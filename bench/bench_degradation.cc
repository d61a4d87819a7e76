// Degradation under overload — tiered serving keeps tail latency bounded.
//
// docs/serving-tiers.md promises that a service configured with an
// approximate tier sheds best-effort traffic once the dispatcher queue
// crosses `shed_trigger_depth`, trading the RP-CoSim error bound for
// bounded p99 instead of collapsing. This bench measures that promise:
//
//   arm 1 (unloaded)  sequential exact requests        -> baseline p99
//   arm 2 (capacity)  saturated closed-loop exact load -> exact capacity QPS
//   arm 3 (overload)  open-loop best-effort arrivals at 10x capacity
//                                                      -> p99, tier mix
//
// Knob (env): COSIM_DEGRADATION_N (nodes).
// Gate (--enforce=1):
//   * overload p99 <= 3x unloaded exact p99
//   * zero admission rejections (the approximate tier has headroom, so the
//     bounded queue must never fill)
//   * the controller actually sheds: some answers come from the
//     approximate tier

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/rp_cosim.h"
#include "bench_util.h"
#include "core/csrplus_engine.h"
#include "graph/generators/generators.h"
#include "graph/normalize.h"
#include "service/query_service.h"

namespace {

using namespace csrplus;
using namespace csrplus::bench;

constexpr Index kQuerySize = 4;
constexpr int kOverloadRequests = 400;  // open-loop arrivals
constexpr double kOverload = 10.0;      // arrival rate / exact capacity
constexpr int kShedDepth = 4;           // controller trigger
// RP-CoSim sketch, deliberately tiny (see main).
constexpr int kApproxIterations = 1;
constexpr Index kApproxSamples = 2;

service::QueryRequest MakeRequest(Rng& rng, Index hot_set,
                                  service::QualityClass quality) {
  service::QueryRequest request = DistinctRequest(kQuerySize, [&] {
    return static_cast<Index>(rng.Below(static_cast<uint64_t>(hot_set)));
  });
  request.quality = quality;
  return request;
}

// Closed-loop exact arm: one client measures the unloaded baseline; many
// clients saturate the dispatcher and measure exact capacity.
LoadResult RunExact(service::QueryService& service, int num_clients,
                    Index hot_set) {
  return RunClosedLoop(service, num_clients, /*requests_per_client=*/50,
                       0xDE6ull, 7919, [&](Rng& rng) {
                         return MakeRequest(rng, hot_set,
                                            service::QualityClass::kExact);
                       });
}

struct OverloadResult {
  int ok = 0;
  int rejected = 0;  ///< admission failures (queue full / budget)
  int served_exact = 0;
  int served_approx = 0;
  double p50_us = 0.0, p99_us = 0.0;
  double offered_qps = 0.0;
  double mean_batch = 0.0;  ///< requests coalesced per micro-batch
};

// Open-loop arm: one generator submits best-effort requests on a fixed
// arrival schedule (rate = overload x capacity) regardless of completions —
// the arrival process a queueing collapse needs. Tickets are drained after
// the schedule ends.
OverloadResult RunOverload(service::QueryService& service, double rate_qps,
                           Index hot_set) {
  OverloadResult result;
  std::vector<service::QueryService::Ticket> tickets;
  tickets.reserve(static_cast<std::size_t>(kOverloadRequests));
  Rng rng(0x0E71ull);
  const auto start = std::chrono::steady_clock::now();
  const double gap_ns = 1e9 / rate_qps;
  for (int r = 0; r < kOverloadRequests; ++r) {
    std::this_thread::sleep_until(
        start + std::chrono::nanoseconds(
                    static_cast<int64_t>(gap_ns * static_cast<double>(r))));
    auto ticket = service.Submit(
        MakeRequest(rng, hot_set, service::QualityClass::kBestEffort));
    if (ticket.ok()) {
      tickets.push_back(*std::move(ticket));
    } else {
      ++result.rejected;
    }
  }
  const double offered_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  result.offered_qps =
      offered_seconds > 0.0 ? kOverloadRequests / offered_seconds : 0.0;

  std::vector<uint64_t> latencies;
  latencies.reserve(tickets.size());
  double batch_sum = 0.0;
  for (auto& ticket : tickets) {
    const service::QueryResponse& response = ticket.Wait();
    if (!response.status.ok()) continue;
    ++result.ok;
    batch_sum += static_cast<double>(response.batch_requests);
    latencies.push_back(response.total_micros);
    if (response.served_tier == service::ServedTier::kApproximate) {
      ++result.served_approx;
    } else if (response.served_tier == service::ServedTier::kExact) {
      ++result.served_exact;
    }
  }
  result.p50_us = Percentile(latencies, 0.50);
  result.p99_us = Percentile(latencies, 0.99);
  result.mean_batch = result.ok > 0 ? batch_sum / result.ok : 0.0;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  if (!csrplus::bench::ParseBenchArgs(argc, argv)) return 2;
  RunConfig config = PaperDefaults();
  // A high serving rank: overload survival is about the cost GAP between the
  // tiers, and the exact tier's per-batch cost is dominated by streaming the
  // rank-n factor pair. Paper-table ranks make exact so cheap that 10x its
  // capacity out-runs the fixed per-request costs no approximation avoids.
  config.rank = GetEnvInt64("COSIM_RANK", 256);
  PrintBanner("Degradation under overload",
              "tiered serving bounds p99 past exact capacity", config);

  const Index n = static_cast<Index>(GetEnvInt64("COSIM_DEGRADATION_N", 8000));
  const Index hot_set = std::min<Index>(n, 64 * kQuerySize);

  auto graph = graph::ErdosRenyi(n, 8 * n, 0xDE6A);
  CSR_CHECK(graph.ok()) << graph.status().ToString();
  std::printf("graph: %s\n",
              graph::ToString(graph::ComputeStats(*graph)).c_str());

  // Exact tier: the paper engine at serving rank.
  core::CsrPlusOptions engine_options;
  engine_options.rank = std::min<Index>(config.rank, n);
  engine_options.damping = config.damping;
  auto built = core::CsrPlusEngine::Precompute(*graph, engine_options);
  CSR_CHECK(built.ok()) << built.status().ToString();
  const auto exact =
      std::make_shared<const core::CsrPlusEngine>(std::move(*built));

  // Approximate tier: hardened RP-CoSim with a deliberately tiny sketch so
  // its advertised per-query cost sits far under the exact engine's.
  const linalg::CsrMatrix transition = graph::ColumnNormalizedTransition(*graph);
  baselines::RpCoSimOptions approx_options;
  approx_options.damping = config.damping;
  approx_options.iterations = kApproxIterations;
  approx_options.num_samples = kApproxSamples;
  baselines::RpCosimEngine approx(&transition, approx_options);
  CSR_CHECK(approx.PrecomputeSketch().ok());

  const double exact_cost = exact->EstimateCost(1).per_query_cost;
  const double approx_cost = approx.EstimateCost(1).per_query_cost;
  std::printf("advertised cost: exact %.0f approx %.0f work units/query "
              "(%.1fx cheaper), approx error bound %.3g\n\n",
              exact_cost, approx_cost, exact_cost / approx_cost,
              approx.Accuracy().error_bound);

  service::ServiceOptions service_options;
  service_options.approximate_engine = &approx;
  service_options.shed_trigger_depth = kShedDepth;
  service_options.shed_resume_depth = 1;
  // Overload survival depends on batch amortization: a deep shed-tier queue
  // must coalesce into wide micro-batches so the per-request fixed costs
  // (dispatch, output scatter) amortize. Serving defaults are tuned for
  // latency; this bench serves throughput under collapse.
  service_options.max_batch_requests = 64;
  service_options.max_batch_queries = 64 * kQuerySize;
  service::QueryService service(exact, service_options);

  // Warm the dispatcher / thread pool before timing anything.
  Rng warm_rng(0x11ull);
  for (int i = 0; i < 4; ++i) {
    (void)service.Query(
        MakeRequest(warm_rng, hot_set, service::QualityClass::kExact));
  }

  const LoadResult unloaded = RunExact(service, /*num_clients=*/1, hot_set);
  const LoadResult capacity = RunExact(service, /*num_clients=*/4, hot_set);
  const double rate = kOverload * std::max(capacity.qps(), 1.0);
  const OverloadResult overloaded = RunOverload(service, rate, hot_set);
  service.Shutdown();

  const double unloaded_p99 = Percentile(unloaded.latencies_us, 0.99);
  eval::TablePrinter table(
      {"arm", "ok", "rejected", "exact", "approx", "p50 us", "p99 us"});
  const std::pair<const char*, const LoadResult*> exact_arms[] = {
      {"unloaded exact", &unloaded}, {"saturated exact", &capacity}};
  for (const auto& [arm, r] : exact_arms) {
    table.AddRow({arm, std::to_string(r->ok), "0", std::to_string(r->ok), "0",
                  StrPrintf("%.0f", Percentile(r->latencies_us, 0.50)),
                  StrPrintf("%.0f", Percentile(r->latencies_us, 0.99))});
  }
  table.AddRow({"overload best-effort", std::to_string(overloaded.ok),
                std::to_string(overloaded.rejected),
                std::to_string(overloaded.served_exact),
                std::to_string(overloaded.served_approx),
                StrPrintf("%.0f", overloaded.p50_us),
                StrPrintf("%.0f", overloaded.p99_us)});
  table.Print();

  std::printf("\nexact capacity: %.0f QPS; offered: %.0f QPS (%.1fx); "
              "overload mean batch %.1f requests\n\n",
              capacity.qps(), overloaded.offered_qps,
              overloaded.offered_qps / std::max(capacity.qps(), 1.0),
              overloaded.mean_batch);

  Gates gates({"overload/unloaded p99", "admission rejections",
               "approximate answers"});
  gates.AtMost("overload/unloaded p99",
               unloaded_p99 > 0.0 ? overloaded.p99_us / unloaded_p99 : 0.0,
               3.0);
  gates.AtMost("admission rejections", overloaded.rejected, 0);
  gates.AtLeast("approximate answers", overloaded.served_approx, 1);
  return gates.Finish();
}
