// Tests for cache::ColumnCache: hit/miss accounting, LRU eviction order,
// budget-exhaustion rejection, fingerprint invalidation (including the
// receipt-driven delta invalidation after DynamicCsrPlusEngine::ApplyUpdates
// is published), and bit-identity of cached vs uncached service results
// across thread counts.

#include "cache/column_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/memory.h"
#include "common/rng.h"
#include "core/csrplus_engine.h"
#include "core/dynamic_engine.h"
#include "graph/normalize.h"
#include "service/query_service.h"
#include "test_util.h"

namespace csrplus::cache {
namespace {

using csrplus::testing::RandomGraph;
using csrplus::testing::ScopedNumThreads;
using linalg::DenseMatrix;

/// Restores the global memory budget on scope exit.
class ScopedMemoryBudget {
 public:
  explicit ScopedMemoryBudget(int64_t bytes)
      : saved_(MemoryBudget::Global().limit_bytes()) {
    MemoryBudget::Global().SetLimit(bytes);
  }
  ~ScopedMemoryBudget() { MemoryBudget::Global().SetLimit(saved_); }

 private:
  int64_t saved_;
};

std::vector<double> MakeColumn(Index n, double seed) {
  std::vector<double> column(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) {
    column[static_cast<std::size_t>(i)] = seed + static_cast<double>(i);
  }
  return column;
}

TEST(ColumnCacheTest, MissThenHitRoundTrip) {
  ColumnCache cache;
  const auto column = MakeColumn(5, 0.25);
  std::vector<double> out;
  EXPECT_FALSE(cache.Lookup(7, 3, &out));
  EXPECT_TRUE(cache.Insert(7, 3, column.data(), 5));
  ASSERT_TRUE(cache.Lookup(7, 3, &out));
  EXPECT_EQ(out, column);
  // Same node under a different fingerprint is a different answer.
  EXPECT_FALSE(cache.Lookup(8, 3, &out));

  const ColumnCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.inserts, 1);
  EXPECT_EQ(stats.resident_columns, 1);
  EXPECT_EQ(stats.resident_bytes, 5 * static_cast<int64_t>(sizeof(double)));
  EXPECT_NEAR(stats.hit_rate(), 1.0 / 3.0, 1e-12);
}

TEST(ColumnCacheTest, FingerprintZeroNeverCaches) {
  ColumnCache cache;
  const auto column = MakeColumn(4, 1.0);
  EXPECT_FALSE(cache.Insert(0, 1, column.data(), 4));
  std::vector<double> out;
  EXPECT_FALSE(cache.Lookup(0, 1, &out));
  const ColumnCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.rejections, 1);
  EXPECT_EQ(stats.resident_columns, 0);
}

TEST(ColumnCacheTest, StridedLookupScattersIntoMatrixColumn) {
  ColumnCache cache;
  const auto column = MakeColumn(4, 10.0);
  ASSERT_TRUE(cache.Insert(3, 2, column.data(), 4));
  // Scatter into column 1 of a row-major 4 x 3 block.
  DenseMatrix block(4, 3);
  ASSERT_TRUE(cache.Lookup(3, 2, block.data() + 1, 3, 4));
  for (Index i = 0; i < 4; ++i) {
    EXPECT_EQ(block(i, 1), column[static_cast<std::size_t>(i)]);
  }
}

TEST(ColumnCacheTest, LruEvictionOrderWithinOneShard) {
  ColumnCacheOptions options;
  options.capacity_bytes = 2 * 4 * static_cast<int64_t>(sizeof(double));
  ColumnCache cache(options);
  const auto a = MakeColumn(4, 1.0), b = MakeColumn(4, 2.0),
             c = MakeColumn(4, 3.0);
  ASSERT_TRUE(cache.Insert(1, 10, a.data(), 4));
  ASSERT_TRUE(cache.Insert(1, 11, b.data(), 4));
  // Touch a: it becomes most recently used, so b is the LRU victim.
  std::vector<double> out;
  ASSERT_TRUE(cache.Lookup(1, 10, &out));
  ASSERT_TRUE(cache.Insert(1, 12, c.data(), 4));
  EXPECT_TRUE(cache.Lookup(1, 10, &out));
  EXPECT_FALSE(cache.Lookup(1, 11, &out));
  EXPECT_TRUE(cache.Lookup(1, 12, &out));
  const ColumnCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.resident_columns, 2);
}

TEST(ColumnCacheTest, CapacityForKColumnsKeepsAnyKColumns) {
  // One LRU over the whole capacity: a cache sized for 8 columns keeps any 8
  // columns, whatever their keys hash to.
  constexpr Index kLength = 8192;
  ColumnCacheOptions options;
  options.capacity_bytes = 8 * kLength * static_cast<int64_t>(sizeof(double));
  ColumnCache cache(options);
  for (Index node = 0; node < 8; ++node) {
    const auto column = MakeColumn(kLength, static_cast<double>(node));
    ASSERT_TRUE(cache.Insert(1, node, column.data(), kLength));
  }
  std::vector<double> out;
  for (Index node = 0; node < 8; ++node) {
    EXPECT_TRUE(cache.Lookup(1, node, &out)) << "node " << node;
  }
  const ColumnCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_EQ(stats.resident_columns, 8);
}

TEST(ColumnCacheTest, DuplicateInsertRefreshesRecency) {
  ColumnCacheOptions options;
  options.capacity_bytes = 2 * 4 * static_cast<int64_t>(sizeof(double));
  ColumnCache cache(options);
  const auto a = MakeColumn(4, 1.0), b = MakeColumn(4, 2.0),
             c = MakeColumn(4, 3.0);
  ASSERT_TRUE(cache.Insert(1, 10, a.data(), 4));
  ASSERT_TRUE(cache.Insert(1, 11, b.data(), 4));
  // Re-inserting a keeps the cached bytes but promotes it to MRU.
  EXPECT_FALSE(cache.Insert(1, 10, a.data(), 4));
  ASSERT_TRUE(cache.Insert(1, 12, c.data(), 4));
  std::vector<double> out;
  EXPECT_TRUE(cache.Lookup(1, 10, &out));
  EXPECT_EQ(out, a);
  EXPECT_FALSE(cache.Lookup(1, 11, &out));
}

TEST(ColumnCacheTest, OversizeColumnIsRejected) {
  ColumnCacheOptions options;
  options.capacity_bytes = 8;  // one double
  ColumnCache cache(options);
  const auto column = MakeColumn(4, 1.0);
  EXPECT_FALSE(cache.Insert(1, 0, column.data(), 4));
  EXPECT_EQ(cache.Stats().rejections, 1);
  EXPECT_EQ(cache.Stats().resident_columns, 0);
}

TEST(ColumnCacheTest, BudgetExhaustionRejectsInsert) {
  ColumnCache cache;  // plenty of capacity
  const auto column = MakeColumn(64, 1.0);
  ScopedMemoryBudget tiny(64);  // smaller than one column (64 * 8 bytes)
  EXPECT_FALSE(cache.Insert(1, 0, column.data(), 64));
  const ColumnCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.rejections, 1);
  EXPECT_EQ(stats.inserts, 0);
  EXPECT_EQ(stats.resident_bytes, 0);
}

TEST(ColumnCacheTest, EvictEngineDropsOnlyThatFingerprint) {
  ColumnCache cache;
  const auto column = MakeColumn(4, 1.0);
  for (Index node = 0; node < 6; ++node) {
    ASSERT_TRUE(cache.Insert(1, node, column.data(), 4));
    ASSERT_TRUE(cache.Insert(2, node, column.data(), 4));
  }
  EXPECT_EQ(cache.EvictEngine(1), 6);
  std::vector<double> out;
  for (Index node = 0; node < 6; ++node) {
    EXPECT_FALSE(cache.Lookup(1, node, &out));
    EXPECT_TRUE(cache.Lookup(2, node, &out));
  }
  const ColumnCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.invalidations, 6);
  EXPECT_EQ(stats.resident_columns, 6);
  EXPECT_EQ(cache.EvictEngine(0), 0);  // fingerprint 0: no-op
}

TEST(ColumnCacheTest, ClearDropsEverything) {
  ColumnCache cache;
  const auto column = MakeColumn(4, 1.0);
  for (Index node = 0; node < 5; ++node) {
    ASSERT_TRUE(cache.Insert(9, node, column.data(), 4));
  }
  cache.Clear();
  const ColumnCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.resident_columns, 0);
  EXPECT_EQ(stats.resident_bytes, 0);
  EXPECT_EQ(stats.invalidations, 5);
  std::vector<double> out;
  EXPECT_FALSE(cache.Lookup(9, 0, &out));
}

TEST(ColumnCacheTest, ZeroCapacityDoesNotCrashAndRejectsInserts) {
  ColumnCacheOptions options;
  options.capacity_bytes = 0;
  ColumnCache cache(options);
  const auto column = MakeColumn(4, 1.0);
  EXPECT_FALSE(cache.Insert(1, 0, column.data(), 4));
  std::vector<double> out;
  EXPECT_FALSE(cache.Lookup(1, 0, &out));
  EXPECT_EQ(cache.Stats().resident_columns, 0);
}

TEST(ColumnCacheTest, UnfingerprintedLookupsCountMissesWithoutShardState) {
  ColumnCache cache;
  std::vector<double> out;
  EXPECT_FALSE(cache.Lookup(0, 1, &out));  // vector overload
  DenseMatrix block(4, 1);
  EXPECT_FALSE(cache.Lookup(0, 1, block.data(), 1, 4));  // strided overload
  const ColumnCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.hits, 0);
}

TEST(ColumnCacheTest, VectorLookupHitCountsExactlyOnce) {
  ColumnCache cache;
  const auto column = MakeColumn(8, 2.0);
  ASSERT_TRUE(cache.Insert(5, 9, column.data(), 8));
  std::vector<double> out;
  ASSERT_TRUE(cache.Lookup(5, 9, &out));
  EXPECT_EQ(out, column);
  const ColumnCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 0);
  // A miss clears the output vector rather than leaving stale bytes.
  EXPECT_FALSE(cache.Lookup(5, 10, &out));
  EXPECT_TRUE(out.empty());
}

TEST(ColumnCacheTest, LookupUnderConcurrentEvictionKeepsExactAccounting) {
  // A tiny capacity so inserts continuously evict while readers race the
  // vector-overload Lookup: the returned copy must always be a complete
  // column (never a torn read), and hits + misses must equal the number of
  // lookups exactly — the TOCTOU double-find used to double-count misses.
  ColumnCacheOptions options;
  options.capacity_bytes = 4 * 8 * static_cast<int64_t>(sizeof(double));
  ColumnCache cache(options);
  constexpr int kNodes = 16;
  constexpr int kLookupsPerThread = 4000;
  constexpr int kReaders = 3;

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const Index node = static_cast<Index>(i % kNodes);
      const auto column = MakeColumn(8, static_cast<double>(node));
      cache.Insert(1, node, column.data(), 8);
      ++i;
    }
  });

  std::atomic<int64_t> observed_hits{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      std::vector<double> out;
      for (int i = 0; i < kLookupsPerThread; ++i) {
        const Index node = static_cast<Index>((i + t) % kNodes);
        if (cache.Lookup(1, node, &out)) {
          // A hit must be the complete, self-consistent column.
          ASSERT_EQ(out.size(), 8u);
          for (std::size_t j = 0; j < out.size(); ++j) {
            ASSERT_EQ(out[j],
                      static_cast<double>(node) + static_cast<double>(j));
          }
          observed_hits.fetch_add(1, std::memory_order_relaxed);
        } else {
          ASSERT_TRUE(out.empty());
        }
      }
    });
  }
  for (auto& reader : readers) reader.join();
  stop.store(true);
  writer.join();

  const ColumnCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, observed_hits.load());
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<int64_t>(kReaders) * kLookupsPerThread);
}

// ---------------------------------------------------------------------------
// Service integration: cached serving must be bit-identical to uncached.

std::shared_ptr<const core::CsrPlusEngine> MakeEngine(Index nodes,
                                                     int64_t edges,
                                                     uint64_t seed) {
  auto graph = RandomGraph(nodes, edges, seed);
  core::CsrPlusOptions options;
  options.rank = 8;
  auto engine = core::CsrPlusEngine::Precompute(graph, options);
  CSR_CHECK(engine.ok()) << engine.status().ToString();
  return std::make_shared<const core::CsrPlusEngine>(std::move(*engine));
}

TEST(ColumnCacheServiceTest, CachedServingIsBitIdenticalAcrossThreadCounts) {
  auto engine = MakeEngine(90, 600, 17);
  ASSERT_NE(engine->StateFingerprint(), 0u);
  // Repeat every query set so the second pass is served from cache.
  const std::vector<std::vector<Index>> sets = {
      {1, 2, 3}, {2, 3, 4}, {50, 2}, {89, 1, 50}, {7}, {1, 2, 3}, {50, 2}};

  std::vector<DenseMatrix> expected;
  {
    ScopedNumThreads one(1);
    for (const auto& queries : sets) {
      auto direct = engine->MultiSourceQuery(queries);
      ASSERT_TRUE(direct.ok());
      expected.push_back(std::move(*direct));
    }
  }

  for (int threads : {1, 4}) {
    ScopedNumThreads scoped(threads);
    ColumnCache cache;
    service::ServiceOptions options;
    options.cache = &cache;
    service::QueryService service(engine, options);
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t i = 0; i < sets.size(); ++i) {
        service::QueryRequest request;
        request.queries = sets[i];
        service::QueryResponse response = service.Query(std::move(request));
        ASSERT_TRUE(response.status.ok()) << response.status.ToString();
        EXPECT_TRUE(response.scores == expected[i])
            << "set " << i << " pass " << pass << " threads " << threads
            << ": cached result differs from direct execution";
      }
    }
    service.Shutdown();
    const ColumnCacheStats stats = cache.Stats();
    EXPECT_GT(stats.hits, 0) << "second pass never hit the cache";
  }
}

TEST(ColumnCacheServiceTest, F32ColumnsAreNeverServedToF64Requests) {
  // The f32 serving tier answers with different bits than the f64 tier, so a
  // shared cache must keep the two generations apart: StateFingerprint folds
  // the precision tag, making an f32-cached column invisible to f64 lookups.
  auto graph = RandomGraph(50, 300, 31);
  core::CsrPlusOptions options;
  options.rank = 6;
  auto f64_built = core::CsrPlusEngine::Precompute(graph, options);
  ASSERT_TRUE(f64_built.ok()) << f64_built.status().ToString();
  options.precision = core::Precision::kF32;
  auto f32_built = core::CsrPlusEngine::Precompute(graph, options);
  ASSERT_TRUE(f32_built.ok()) << f32_built.status().ToString();
  const auto f64_engine =
      std::make_shared<const core::CsrPlusEngine>(std::move(*f64_built));
  const auto f32_engine =
      std::make_shared<const core::CsrPlusEngine>(std::move(*f32_built));

  const uint64_t fp64 = f64_engine->StateFingerprint();
  const uint64_t fp32 = f32_engine->StateFingerprint();
  ASSERT_NE(fp64, 0u);
  ASSERT_NE(fp32, 0u);
  EXPECT_NE(fp64, fp32) << "precision tag missing from the fingerprint";

  // Cache-level: a column inserted under the f32 generation hits only there.
  ColumnCache cache;
  auto f32_column = csrplus::testing::QueryColumn(*f32_engine, 7);
  ASSERT_TRUE(f32_column.ok());
  const std::vector<double>& column32 = *f32_column;
  std::vector<double> out;
  ASSERT_TRUE(cache.Insert(fp32, 7, column32.data(),
                           static_cast<Index>(column32.size())));
  EXPECT_FALSE(cache.Lookup(fp64, 7, &out))
      << "f32 column served to an f64 request";
  ASSERT_TRUE(cache.Lookup(fp32, 7, &out));
  EXPECT_EQ(out, column32);

  // Service-level: warm the shared cache through the f32 engine, then serve
  // the same queries through the f64 engine — every answer must match a
  // direct f64 call bit for bit, untouched by the resident f32 columns.
  const std::vector<Index> queries = {7, 11, 42};
  service::ServiceOptions service_options;
  service_options.cache = &cache;
  {
    service::QueryService f32_service(f32_engine, service_options);
    service::QueryRequest request;
    request.queries = queries;
    ASSERT_TRUE(f32_service.Query(std::move(request)).status.ok());
  }
  service::QueryService f64_service(f64_engine, service_options);
  service::QueryRequest request;
  request.queries = queries;
  service::QueryResponse response = f64_service.Query(std::move(request));
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  auto direct = f64_engine->MultiSourceQuery(queries);
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(response.scores == *direct)
      << "f64 serving through a cache warmed by the f32 tier is not "
         "bit-identical to direct f64 execution";
}

TEST(ColumnCacheServiceTest, DynamicEngineMutationInvalidatesCachedColumns) {
  // The receipt-driven delta-invalidation contract (docs/mutations.md): an
  // incremental ApplyUpdates batch keeps the fingerprint stable, publishing
  // it evicts exactly the receipt's touched columns, untouched columns keep
  // hitting, and post-publish serving is bit-identical to the new engine
  // with no cache in front of it.
  //
  // Two disconnected 20-node halves guarantee a nonempty untouched set: an
  // edge inserted in the second half can only touch its own component.
  constexpr Index kNodes = 40;
  graph::GraphBuilder builder(kNodes);
  Rng rng(23);
  for (int e = 0; e < 100; ++e) {
    Index u = static_cast<Index>(rng.Below(20));
    Index v = static_cast<Index>(rng.Below(20));
    if (u != v) builder.AddEdge(u, v);
    u = 20 + static_cast<Index>(rng.Below(20));
    v = 20 + static_cast<Index>(rng.Below(20));
    if (u != v) builder.AddEdge(u, v);
  }
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());

  core::DynamicOptions options;
  options.base.rank = 6;
  options.max_incremental_updates = 100;   // stay incremental: no rebuild
  options.rebuild_touched_fraction = 1.0;  // (either trigger would rotate)
  auto built = core::DynamicCsrPlusEngine::Build(*graph, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto engine =
      std::make_shared<const core::DynamicCsrPlusEngine>(std::move(*built));

  ColumnCache cache;
  service::ServiceOptions service_options;
  service_options.cache = &cache;
  service::QueryService service(engine, service_options);

  std::vector<Index> all(kNodes);
  for (Index i = 0; i < kNodes; ++i) all[static_cast<std::size_t>(i)] = i;
  auto serve = [&service](const std::vector<Index>& q) {
    service::QueryRequest request;
    request.queries = q;
    return service.Query(std::move(request));
  };

  // Warm every column, then serve the set again purely from the cache.
  ASSERT_TRUE(serve(all).status.ok());
  ASSERT_TRUE(serve(all).status.ok());
  EXPECT_EQ(cache.Stats().hits, kNodes);

  // Writer path: clone the served snapshot, mutate the clone off-path,
  // publish the new generation together with the receipt's touched set.
  const uint64_t fp = engine->StateFingerprint();
  auto next = std::make_shared<core::DynamicCsrPlusEngine>(*engine);
  const auto update = [&]() -> core::EdgeUpdate {
    for (Index u = 20; u < kNodes; ++u) {
      const auto& nbrs = graph->OutNeighbors(u);
      for (Index v = 20; v < kNodes; ++v) {
        if (u != v && std::find(nbrs.begin(), nbrs.end(),
                                static_cast<int32_t>(v)) == nbrs.end()) {
          return core::EdgeUpdate::Insert(u, v);
        }
      }
    }
    return core::EdgeUpdate::Insert(20, 21);
  }();
  auto receipt = next->ApplyUpdates({&update, 1});
  ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
  ASSERT_EQ(receipt->effective_count, 1);
  ASSERT_FALSE(receipt->rebuilt);
  EXPECT_EQ(receipt->fingerprint, fp);  // incremental => fingerprint stable
  ASSERT_FALSE(receipt->touched_support.empty());
  // The perturbation cannot escape the second component.
  for (Index q : receipt->touched_support) EXPECT_GE(q, 20);
  ASSERT_TRUE(service.PublishEngine(next, receipt->touched_support).ok());

  // Exactly the touched columns were dropped; the rest stayed resident.
  const ColumnCacheStats after_publish = cache.Stats();
  EXPECT_EQ(after_publish.invalidations,
            static_cast<int64_t>(receipt->touched_support.size()));
  EXPECT_EQ(after_publish.resident_columns,
            kNodes - static_cast<int64_t>(receipt->touched_support.size()));

  // Untouched columns keep hitting — no misses when serving only them.
  std::vector<Index> untouched;
  for (Index q : all) {
    if (!std::binary_search(receipt->touched_support.begin(),
                            receipt->touched_support.end(), q)) {
      untouched.push_back(q);
    }
  }
  const int64_t misses_before = cache.Stats().misses;
  ASSERT_TRUE(serve(untouched).status.ok());
  EXPECT_EQ(cache.Stats().misses, misses_before);

  // Soundness oracle: serving through the partially-retained cache is
  // bit-identical to the published engine with no cache at all.
  auto fresh = serve(all);
  ASSERT_TRUE(fresh.status.ok());
  auto direct = next->MultiSourceQuery(all);
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(fresh.scores == *direct)
      << "stale cached columns served after a published ApplyUpdates";
}

}  // namespace
}  // namespace csrplus::cache
