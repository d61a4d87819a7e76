// Mutate-while-serve — query latency and cache health under a live update
// stream.
//
// The mutation pipeline (registry ApplyUpdates -> clone -> incremental SVD
// -> PublishEngine -> receipt-driven cache eviction; docs/mutations.md)
// promises that writers never block readers: queries keep draining against
// the previous generation while a batch is applied off the serving path,
// and only the receipt's touched columns are re-fetched afterwards. This
// bench quantifies that promise. It drives the same closed-loop Zipf client
// load through a cached dynamic tenant twice — once mutation-free, once
// with a writer thread streaming mixed insert/delete batches at 1% of the
// edge count per minute — and compares query p99 plus the steady-state
// cache hit rate of the mutating arm.
//
// The graph is built as disconnected communities so an update's
// forward/reverse reach (the receipt's touched support) stays block-local;
// the writer mutates only blocks inside the hot query universe, making
// every published batch cache-relevant (the worst case for delta
// invalidation that does not degenerate into whole-cache flushes).
//
// Gate (--enforce=1): mutating p99 <= 1.5x mutation-free p99, steady hit
// rate >= 60%, no failed request, and at least one applied batch.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"

namespace {

using namespace csrplus;
using namespace csrplus::bench;

constexpr Index kNodes = 4096;
constexpr Index kBlocks = 64;
constexpr Index kBlockSize = kNodes / kBlocks;
constexpr Index kDegree = 8;
constexpr int kClients = 4;
constexpr int kRequestsPerClient = 2500;
constexpr Index kQuerySize = 8;
constexpr Index kUniverse = 2048;
constexpr Index kWriteBlocks = 2;  // blocks the writer may touch
constexpr int kBatchSize = 8;      // updates per batch
constexpr int kRebuildBudget = 4096;

struct Arm {
  LoadResult load;
  double steady_hit_rate = 0.0;
  int batches_applied = 0;
  int64_t updates_applied = 0;
  double apply_seconds = 0.0;  // writer time inside ApplyUpdates
};

// Streams paced mixed insert/delete batches through the registry until
// `done`: inserts land inside the first kWriteBlocks blocks, deletes remove
// edges this writer inserted earlier.
void RunWriter(service::EngineRegistry& registry, double updates_per_sec,
               const std::atomic<bool>& done, Arm* arm) {
  Rng rng(0x3117A7E5ull);
  std::vector<std::pair<Index, Index>> inserted;
  const auto interval = std::chrono::duration<double>(
      static_cast<double>(kBatchSize) / updates_per_sec);
  const auto in_block = [&](Index lo) {
    return lo + static_cast<Index>(
                    rng.Below(static_cast<uint64_t>(kBlockSize)));
  };
  while (!done.load(std::memory_order_relaxed)) {
    std::vector<core::EdgeUpdate> batch;
    while (static_cast<int>(batch.size()) < kBatchSize) {
      if (batch.size() % 2 == 1 && !inserted.empty()) {
        const std::size_t pick = rng.Below(inserted.size());
        const auto [u, v] = inserted[pick];
        inserted.erase(inserted.begin() + static_cast<int64_t>(pick));
        batch.push_back(core::EdgeUpdate::Delete(u, v));
        continue;
      }
      const Index lo = static_cast<Index>(rng.Below(
                           static_cast<uint64_t>(kWriteBlocks))) *
                       kBlockSize;
      const Index u = in_block(lo);
      const Index v = in_block(lo);
      if (u == v) continue;
      batch.push_back(core::EdgeUpdate::Insert(u, v));
      inserted.emplace_back(u, v);
    }
    WallTimer apply_timer;
    auto receipt = registry.ApplyUpdates("bench", batch);
    CSR_CHECK(receipt.ok()) << receipt.status().ToString();
    arm->apply_seconds += apply_timer.ElapsedSeconds();
    ++arm->batches_applied;
    arm->updates_applied += static_cast<int64_t>(receipt->effective_count);
    std::this_thread::sleep_for(interval);
  }
}

// One closed-loop run against the tenant's service, after a warm-up sweep
// over the query universe; with `updates_per_sec` > 0 a writer streams
// batches for the whole window.
Arm RunArm(service::EngineRegistry& registry, const ZipfSampler& zipf,
           double updates_per_sec) {
  service::QueryService* service = registry.Find("bench");
  cache::ColumnCache* cache = registry.TenantCache("bench");
  CSR_CHECK(service != nullptr && cache != nullptr);
  WarmCache(*service, kUniverse, kQuerySize);
  const cache::ColumnCacheStats before = cache->Stats();

  Arm arm;
  std::atomic<bool> done{false};
  std::thread writer;
  if (updates_per_sec > 0.0) {
    writer = std::thread(
        [&] { RunWriter(registry, updates_per_sec, done, &arm); });
  }
  arm.load = RunClosedLoop(
      *service, kClients, kRequestsPerClient, 0x9E1A7ull, 7919, [&](Rng& rng) {
        return DistinctRequest(kQuerySize, [&] { return zipf.Sample(rng); });
      });
  done.store(true, std::memory_order_relaxed);
  if (writer.joinable()) writer.join();
  arm.steady_hit_rate = SteadyHitRate(before, cache->Stats());
  return arm;
}

}  // namespace

int main(int argc, char** argv) {
  if (!csrplus::bench::ParseBenchArgs(argc, argv)) return 2;
  RunConfig config = PaperDefaults();
  // Modest rank: the writer's per-batch cost (engine clone + subspace
  // refresh, O(n r) + O(n r^2)) must stay a small duty cycle next to
  // serving, or on small CI machines the bursts alone define the tail.
  config.rank = GetEnvInt64("COSIM_RANK", 8);
  PrintBanner("Mutation stream",
              "query p99 with vs without a live edge-update stream", config);

  // Disconnected communities: dedup in-block edges via the builder.
  graph::GraphBuilder builder(kNodes);
  {
    Rng rng(0xB10C5ull);
    for (Index block = 0; block < kBlocks; ++block) {
      const Index lo = block * kBlockSize;
      int64_t added = 0;
      while (added < static_cast<int64_t>(kDegree) * kBlockSize) {
        const Index u = lo + static_cast<Index>(rng.Below(
                                 static_cast<uint64_t>(kBlockSize)));
        const Index v = lo + static_cast<Index>(rng.Below(
                                 static_cast<uint64_t>(kBlockSize)));
        if (u == v) continue;
        builder.AddEdge(u, v);
        ++added;
      }
    }
  }
  auto graph = builder.Build();
  CSR_CHECK(graph.ok()) << graph.status().ToString();
  std::printf("graph: %s (%ld blocks of %ld)\n",
              graph::ToString(graph::ComputeStats(*graph)).c_str(),
              static_cast<long>(kBlocks), static_cast<long>(kBlockSize));

  // 1% of the edge count per minute.
  const double updates_per_sec = std::max(
      1.0, static_cast<double>(graph->num_edges()) * 0.01 / 60.0);

  service::EngineRegistry registry;
  service::TenantOptions tenant;
  tenant.kind = service::EngineKind::kDynamic;
  tenant.config.rank = std::min<Index>(config.rank, kNodes);
  tenant.config.damping = config.damping;
  tenant.config.max_incremental_updates = kRebuildBudget;
  tenant.cache_capacity_bytes = int64_t{256} << 20;
  WallTimer timer;
  CSR_CHECK(registry
                .AddTenant("bench", graph::ColumnNormalizedTransition(*graph),
                           tenant)
                .ok());
  std::printf("precompute: rank %ld in %s\n",
              static_cast<long>(tenant.config.rank),
              eval::FormatTime(timer.ElapsedSeconds()).c_str());
  std::printf("workload: Zipf(1.0) over %ld nodes, %d clients x %d requests "
              "x %ld queries; writer: %.1f updates/s in batches of %d over "
              "%ld blocks\n\n",
              static_cast<long>(kUniverse), kClients, kRequestsPerClient,
              static_cast<long>(kQuerySize), updates_per_sec, kBatchSize,
              static_cast<long>(kWriteBlocks));

  const ZipfSampler zipf(kUniverse);
  const Arm quiet = RunArm(registry, zipf, /*updates_per_sec=*/0.0);
  const Arm mutating = RunArm(registry, zipf, updates_per_sec);
  registry.Shutdown();

  const double quiet_p99 = Percentile(quiet.load.latencies_us, 0.99);
  const double mutating_p99 = Percentile(mutating.load.latencies_us, 0.99);
  eval::TablePrinter table({"mode", "ok", "failed", "QPS", "avg batch",
                            "p50 µs", "p99 µs", "steady hit rate", "batches",
                            "updates"});
  const std::pair<const char*, const Arm*> arms[] = {
      {"mutation-free", &quiet}, {"mutating", &mutating}};
  for (const auto& [mode, arm] : arms) {
    table.AddRow(
        {mode, std::to_string(arm->load.ok), std::to_string(arm->load.failed),
         std::to_string(static_cast<int64_t>(arm->load.qps())),
         StrPrintf("%.2f", arm->load.mean_batch()),
         StrPrintf("%.0f", Percentile(arm->load.latencies_us, 0.50)),
         StrPrintf("%.0f", Percentile(arm->load.latencies_us, 0.99)),
         StrPrintf("%.1f%%", 100.0 * arm->steady_hit_rate),
         std::to_string(arm->batches_applied),
         std::to_string(arm->updates_applied)});
  }
  table.Print();
  std::printf("\nwriter: %.1fms per batch\n\n",
              mutating.batches_applied > 0
                  ? 1000.0 * mutating.apply_seconds / mutating.batches_applied
                  : 0.0);

  Gates gates({"mutating/quiet p99", "steady hit rate", "failed requests",
               "applied batches"});
  gates.AtMost("mutating/quiet p99",
               quiet_p99 > 0.0 ? mutating_p99 / quiet_p99 : 0.0, 1.5);
  gates.AtLeast("steady hit rate", mutating.steady_hit_rate, 0.60);
  gates.AtMost("failed requests", quiet.load.failed + mutating.load.failed, 0);
  gates.AtLeast("applied batches", mutating.batches_applied, 1);
  return gates.Finish();
}
