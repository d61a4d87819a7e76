// Column-cache hit path — batched serving with vs without the cache.
//
// The column-independence contract makes whole-column memoisation sound
// (docs/architecture.md#column-cache); real query logs are heavily skewed,
// so a modest cache should absorb most engine work. This bench drives the
// same closed-loop client load (N threads, multi-source requests whose
// query nodes are drawn Zipf(1.0) from a fixed universe) through the
// batched service in alternating pairs of arms — one without a cache, one
// with a freshly warmed cache::ColumnCache — and reports each pair's QPS
// ratio plus the steady-state hit rate measured over the timed window only.
// A single short window is decided by one scheduler hiccup; the median over
// kPairs alternating pairs is not.
//
// Knobs (env): COSIM_CACHE_N (nodes), COSIM_CACHE_CLIENTS (client
// threads), COSIM_CACHE_REQUESTS (requests per client per arm).
// Gate (--enforce=1): median QPS ratio >= 2, steady hit rate >= 80% on every
// cached arm, no failed request.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"

namespace {

using namespace csrplus;
using namespace csrplus::bench;

constexpr Index kQuerySize = 8;
constexpr Index kUniverse = 1024;
constexpr int kPairs = 5;  // odd, so the median is one pair's ratio

struct Arm {
  LoadResult load;
  double steady_hit_rate = 0.0;
};

// One closed-loop run. With a cache, a warm-up sweep over the whole query
// universe populates it first (the universe fits well inside the default
// capacity) and the hit rate covers the timed window only.
Arm RunArm(std::shared_ptr<const core::QueryEngine> engine,
           cache::ColumnCache* cache, int num_clients, int requests_per_client,
           Index universe, const ZipfSampler& zipf) {
  service::ServiceOptions options;
  options.cache = cache;
  service::QueryService service(std::move(engine), options);
  cache::ColumnCacheStats before;
  if (cache != nullptr) {
    WarmCache(service, universe, kQuerySize);
    before = cache->Stats();
  }
  Arm arm;
  arm.load = RunClosedLoop(
      service, num_clients, requests_per_client, 0xCAC4E1ull, 977,
      [&](Rng& rng) {
        return DistinctRequest(kQuerySize, [&] { return zipf.Sample(rng); });
      });
  service.Shutdown();
  if (cache != nullptr) {
    arm.steady_hit_rate = SteadyHitRate(before, cache->Stats());
  }
  return arm;
}

}  // namespace

int main(int argc, char** argv) {
  if (!csrplus::bench::ParseBenchArgs(argc, argv)) return 2;
  RunConfig config = PaperDefaults();
  // The per-column engine cost (O(n r)) must dominate the fixed
  // per-request cost for the arms to separate.
  config.rank = GetEnvInt64("COSIM_RANK", 64);
  PrintBanner("Cache hit path",
              "batched serving with vs without the column cache", config);

  const Index n = static_cast<Index>(GetEnvInt64("COSIM_CACHE_N", 20000));
  const int num_clients =
      static_cast<int>(GetEnvInt64("COSIM_CACHE_CLIENTS", 8));
  const int requests =
      static_cast<int>(GetEnvInt64("COSIM_CACHE_REQUESTS", 50));
  const Index universe = std::min<Index>(n, kUniverse);

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
              static_cast<long>(kQuerySize));

  const ZipfSampler zipf(universe);
  Gates gates({"median cached/uncached QPS", "steady hit rate",
               "failed requests"});
  eval::TablePrinter table({"pair", "mode", "ok", "failed", "QPS",
                            "avg batch", "steady hit rate"});
  std::vector<double> ratios;
  int failed = 0;
  cache::ColumnCacheStats stats;
  for (int pair = 1; pair <= kPairs; ++pair) {
    const Arm uncached =
        RunArm(engine, nullptr, num_clients, requests, universe, zipf);
    cache::ColumnCache cache;  // default capacity: 256 MiB
    const Arm cached =
        RunArm(engine, &cache, num_clients, requests, universe, zipf);
    stats = cache.Stats();
    for (const Arm* arm : {&uncached, &cached}) {
      table.AddRow({std::to_string(pair),
                    arm == &cached ? "cached" : "uncached",
                    std::to_string(arm->load.ok),
                    std::to_string(arm->load.failed),
                    std::to_string(static_cast<int64_t>(arm->load.qps())),
                    StrPrintf("%.2f", arm->load.mean_batch()),
                    arm == &cached
                        ? StrPrintf("%.1f%%", 100.0 * arm->steady_hit_rate)
                        : "-"});
    }
    ratios.push_back(uncached.load.ok > 0
                         ? cached.load.qps() / uncached.load.qps()
                         : 0.0);
    gates.AtLeast("steady hit rate", cached.steady_hit_rate, 0.80,
                  "pair " + std::to_string(pair));
    failed += uncached.load.failed + cached.load.failed;
  }
  table.Print();

  std::printf("\nQPS ratio per pair:");
  for (double ratio : ratios) std::printf(" %.2f", ratio);
  std::sort(ratios.begin(), ratios.end());
  const double median = ratios[ratios.size() / 2];
  std::printf(" (median %.2f)\n", median);
  std::printf("cache (last pair): resident %lld columns / %lld bytes, "
              "evictions %lld, rejections %lld\n\n",
              static_cast<long long>(stats.resident_columns),
              static_cast<long long>(stats.resident_bytes),
              static_cast<long long>(stats.evictions),
              static_cast<long long>(stats.rejections));

  gates.AtLeast("median cached/uncached QPS", median, 2.0);
  gates.AtMost("failed requests", failed, 0);
  return gates.Finish();
}
