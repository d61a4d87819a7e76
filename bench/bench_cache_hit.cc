// Column-cache hit path — batched serving with vs without the cache.
//
// The column-independence contract makes whole-column memoisation sound
// (docs/architecture.md#column-cache); real query logs are heavily skewed,
// so a modest cache should absorb most engine work. This bench drives the
// same closed-loop client load (N threads, multi-source requests whose
// query nodes are drawn Zipf(1.0) from a fixed universe) through the
// batched service twice — once without a cache, once with a warmed
// cache::ColumnCache — and reports the QPS ratio plus the steady-state hit
// rate measured over the timed window only.
//
// Knobs (env): COSIM_CACHE_N (nodes), COSIM_CACHE_CLIENTS (client
// threads), COSIM_CACHE_REQUESTS (requests per client), COSIM_CACHE_Q
// (queries per request), COSIM_CACHE_UNIVERSE (Zipf universe size),
// COSIM_CACHE_ENFORCE=1 (exit nonzero unless QPS ratio >= 2 and steady
// hit rate >= 0.8 — the CI smoke gate).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "cache/column_cache.h"
#include "graph/generators/generators.h"
#include "service/query_service.h"

namespace {

using namespace csrplus;
using namespace csrplus::bench;

// Zipf(s = 1.0) over ranks 1..universe: P(rank k) proportional to 1/k.
// Rank k maps to node id k-1, so node 0 is the hottest query.
class ZipfSampler {
 public:
  explicit ZipfSampler(Index universe) {
    cdf_.reserve(static_cast<std::size_t>(universe));
    double total = 0.0;
    for (Index k = 1; k <= universe; ++k) {
      total += 1.0 / static_cast<double>(k);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  Index Sample(Rng& rng) const {
    const double u = rng.Uniform();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<Index>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

struct LoadResult {
  double seconds = 0.0;
  int ok = 0;
  int failed = 0;
  double steady_hit_rate = 0.0;

  double qps() const { return ok / seconds; }
};

// One closed-loop run. With a cache, a single-threaded warm-up sweep over
// the whole query universe populates it first (steady state for a repeated
// workload is a warm cache — the universe fits well inside the default
// capacity) and the hit rate is computed from the stats delta across the
// timed window, so cold misses don't dilute it.
LoadResult RunLoad(std::shared_ptr<const core::QueryEngine> engine,
                   cache::ColumnCache* cache, int num_clients,
                   int requests_per_client, Index qsize, Index universe,
                   const ZipfSampler& zipf) {
  service::ServiceOptions options;
  options.cache = cache;
  service::QueryService service(std::move(engine), options);

  const auto make_request = [&](Rng& rng) {
    service::QueryRequest request;
    while (static_cast<Index>(request.queries.size()) < qsize) {
      const Index q = zipf.Sample(rng);
      if (std::find(request.queries.begin(), request.queries.end(), q) ==
          request.queries.end()) {
        request.queries.push_back(q);
      }
    }
    return request;
  };

  cache::ColumnCacheStats before;
  if (cache != nullptr) {
    for (Index base = 0; base < universe; base += qsize) {
      service::QueryRequest request;
      for (Index q = base; q < std::min<Index>(base + qsize, universe); ++q) {
        request.queries.push_back(q);
      }
      service::QueryResponse response = service.Query(std::move(request));
      CSR_CHECK(response.status.ok()) << response.status.ToString();
    }
    before = cache->Stats();
  }

  std::atomic<int> ok{0}, failed{0};
  WallTimer timer;
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(num_clients));
  for (int c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(0xCAC4E1ull + static_cast<uint64_t>(c) * 977);
      for (int r = 0; r < requests_per_client; ++r) {
        service::QueryResponse response = service.Query(make_request(rng));
        response.status.ok() ? ++ok : ++failed;
      }
    });
  }
  for (auto& t : clients) t.join();

  LoadResult result;
  result.seconds = timer.ElapsedSeconds();
  service.Shutdown();
  result.ok = ok.load();
  result.failed = failed.load();
  if (cache != nullptr) {
    const cache::ColumnCacheStats after = cache->Stats();
    const int64_t lookups =
        (after.hits + after.misses) - (before.hits + before.misses);
    if (lookups > 0) {
      result.steady_hit_rate =
          static_cast<double>(after.hits - before.hits) / lookups;
    }
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  if (!csrplus::bench::ParseBenchArgs(argc, argv)) return 2;
  RunConfig config = PaperDefaults();
  // As in bench_service_throughput: the per-column engine cost (O(n r))
  // must dominate the fixed per-request cost for the arms to separate.
  config.rank = GetEnvInt64("COSIM_RANK", 64);
  PrintBanner("Cache hit path",
              "batched serving with vs without the column cache", config);

  const Index n = static_cast<Index>(GetEnvInt64("COSIM_CACHE_N", 20000));
  const int num_clients =
      static_cast<int>(GetEnvInt64("COSIM_CACHE_CLIENTS", 8));
  const int requests =
      static_cast<int>(GetEnvInt64("COSIM_CACHE_REQUESTS", 50));
  const Index qsize = static_cast<Index>(GetEnvInt64("COSIM_CACHE_Q", 8));
  const Index universe = std::min<Index>(
      n, static_cast<Index>(GetEnvInt64("COSIM_CACHE_UNIVERSE", 1024)));
  const bool enforce = GetEnvInt64("COSIM_CACHE_ENFORCE", 0) != 0;

  auto graph = graph::ErdosRenyi(n, 8 * n, 0xCAC4E);
  CSR_CHECK(graph.ok()) << graph.status().ToString();
  std::printf("graph: %s\n",
              graph::ToString(graph::ComputeStats(*graph)).c_str());

  core::CsrPlusOptions engine_options;
  engine_options.rank = std::min<Index>(config.rank, n);
  engine_options.damping = config.damping;
  WallTimer timer;
  auto built = core::CsrPlusEngine::Precompute(*graph, engine_options);
  CSR_CHECK(built.ok()) << built.status().ToString();
  const auto engine =
      std::make_shared<const core::CsrPlusEngine>(std::move(*built));
  std::printf("precompute: rank %ld in %s\n",
              static_cast<long>(engine->rank()),
              eval::FormatTime(timer.ElapsedSeconds()).c_str());
  std::printf("workload: Zipf(1.0) over %ld nodes, %d clients x %d requests "
              "x %ld queries\n\n",
              static_cast<long>(universe), num_clients, requests,
              static_cast<long>(qsize));

  const ZipfSampler zipf(universe);
  const LoadResult uncached =
      RunLoad(engine, nullptr, num_clients, requests, qsize, universe, zipf);

  cache::ColumnCache cache;  // defaults: 256 MiB, 8 shards
  const LoadResult cached =
      RunLoad(engine, &cache, num_clients, requests, qsize, universe, zipf);

  eval::TablePrinter table(
      {"mode", "ok", "failed", "QPS", "steady hit rate"});
  const std::pair<const char*, const LoadResult*> arms[] = {
      {"uncached", &uncached}, {"cached", &cached}};
  for (const auto& [mode, r] : arms) {
    char hit_cell[32];
    if (r == &cached) {
      std::snprintf(hit_cell, sizeof(hit_cell), "%.1f%%",
                    100.0 * r->steady_hit_rate);
    } else {
      std::snprintf(hit_cell, sizeof(hit_cell), "-");
    }
    table.AddRow({mode, std::to_string(r->ok), std::to_string(r->failed),
                  std::to_string(static_cast<int64_t>(r->qps())), hit_cell});
  }
  table.Print();

  const cache::ColumnCacheStats stats = cache.Stats();
  const double ratio =
      uncached.ok > 0 ? cached.qps() / uncached.qps() : 0.0;
  std::printf("\ncached/uncached QPS: %.2fx  steady hit rate: %.1f%%  "
              "(resident: %lld columns / %lld bytes, evictions %lld, "
              "rejections %lld)\n",
              ratio, 100.0 * cached.steady_hit_rate,
              static_cast<long long>(stats.resident_columns),
              static_cast<long long>(stats.resident_bytes),
              static_cast<long long>(stats.evictions),
              static_cast<long long>(stats.rejections));

  if (enforce) {
    bool pass = true;
    if (ratio < 2.0) {
      std::fprintf(stderr, "FAIL: QPS ratio %.2fx < 2.0x\n", ratio);
      pass = false;
    }
    if (cached.steady_hit_rate < 0.80) {
      std::fprintf(stderr, "FAIL: steady hit rate %.1f%% < 80%%\n",
                   100.0 * cached.steady_hit_rate);
      pass = false;
    }
    if (uncached.failed + cached.failed > 0) {
      std::fprintf(stderr, "FAIL: %d requests failed\n",
                   uncached.failed + cached.failed);
      pass = false;
    }
    if (!pass) return 1;
    std::printf("enforce: QPS ratio >= 2.0x and hit rate >= 80%% -- OK\n");
  }
  return 0;
}
