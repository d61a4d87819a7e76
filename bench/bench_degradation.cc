// Degradation under overload — tiered serving keeps tail latency bounded.
//
// docs/serving-tiers.md promises that a service configured with an
// approximate tier sheds best-effort traffic once the dispatcher queue
// crosses `shed_trigger_depth`, trading the RP-CoSim error bound for
// bounded p99 instead of collapsing. This bench measures that promise:
//
//   arm 1 (unloaded)  sequential exact requests        -> baseline p99
//   arm 2 (capacity)  saturated closed-loop exact load -> exact capacity QPS
//   arm 3 (overload)  open-loop best-effort arrivals at
//                     COSIM_DEGRADATION_OVERLOAD x capacity -> p99, tier mix
//
// Gate (enforced when COSIM_DEGRADATION_ENFORCE=1, the CI smoke mode):
//   * overload p99 <= 3x unloaded exact p99
//   * zero admission rejections (the approximate tier has headroom, so the
//     bounded queue must never fill)
//
// Knobs (env): COSIM_DEGRADATION_N (nodes), COSIM_DEGRADATION_Q (queries
// per request), COSIM_DEGRADATION_REQUESTS (open-loop arrivals),
// COSIM_DEGRADATION_OVERLOAD (arrival-rate multiplier),
// COSIM_DEGRADATION_SHED_DEPTH (controller trigger),
// COSIM_DEGRADATION_APPROX_SAMPLES / _APPROX_ITERS (RP-CoSim sketch).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
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

uint64_t Percentile(std::vector<uint64_t>* latencies, double p) {
  if (latencies->empty()) return 0;
  std::sort(latencies->begin(), latencies->end());
  return (*latencies)[static_cast<std::size_t>(
      p * static_cast<double>(latencies->size() - 1))];
}

service::QueryRequest MakeRequest(Rng* rng, Index qsize, Index hot_set,
                                  service::QualityClass quality) {
  service::QueryRequest request;
  request.quality = quality;
  while (static_cast<Index>(request.queries.size()) < qsize) {
    const Index q =
        static_cast<Index>(rng->Below(static_cast<uint64_t>(hot_set)));
    if (std::find(request.queries.begin(), request.queries.end(), q) ==
        request.queries.end()) {
      request.queries.push_back(q);
    }
  }
  return request;
}

struct ClosedLoopResult {
  double qps = 0.0;
  int ok = 0;
  uint64_t p50_us = 0, p99_us = 0;
};

// Closed-loop arm: `num_clients` threads each issue `requests_per_client`
// requests back to back. One client measures the unloaded baseline; many
// clients saturate the dispatcher and measure exact capacity.
ClosedLoopResult RunClosedLoop(service::QueryService* service, int num_clients,
                               int requests_per_client, Index qsize,
                               Index hot_set) {
  std::atomic<int> ok{0};
  std::vector<std::vector<uint64_t>> latencies(
      static_cast<std::size_t>(num_clients));
  WallTimer timer;
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(num_clients));
  for (int c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(0xDE6ull + static_cast<uint64_t>(c) * 7919);
      auto& mine = latencies[static_cast<std::size_t>(c)];
      for (int r = 0; r < requests_per_client; ++r) {
        service::QueryResponse response = service->Query(
            MakeRequest(&rng, qsize, hot_set,
                        service::QualityClass::kExact));
        if (response.status.ok()) {
          ++ok;
          mine.push_back(response.total_micros);
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  ClosedLoopResult result;
  const double seconds = timer.ElapsedSeconds();
  result.ok = ok.load();
  result.qps = seconds > 0.0 ? result.ok / seconds : 0.0;
  std::vector<uint64_t> all;
  for (const auto& mine : latencies) {
    all.insert(all.end(), mine.begin(), mine.end());
  }
  result.p50_us = Percentile(&all, 0.50);
  result.p99_us = Percentile(&all, 0.99);
  return result;
}

struct OverloadResult {
  int ok = 0;
  int rejected = 0;  ///< admission failures (queue full / budget)
  int served_exact = 0;
  int served_approx = 0;
  uint64_t p50_us = 0, p99_us = 0;
  double offered_qps = 0.0;
  double mean_batch = 0.0;  ///< requests coalesced per micro-batch
};

// Open-loop arm: one generator submits best-effort requests on a fixed
// arrival schedule (rate = overload x capacity) regardless of completions —
// the arrival process a queueing collapse needs. Tickets are drained after
// the schedule ends.
OverloadResult RunOverload(service::QueryService* service, double rate_qps,
                           int num_requests, Index qsize, Index hot_set) {
  OverloadResult result;
  std::vector<service::QueryService::Ticket> tickets;
  tickets.reserve(static_cast<std::size_t>(num_requests));
  Rng rng(0x0E71ull);
  const auto start = std::chrono::steady_clock::now();
  const double gap_ns = 1e9 / rate_qps;
  for (int r = 0; r < num_requests; ++r) {
    std::this_thread::sleep_until(
        start + std::chrono::nanoseconds(
                    static_cast<int64_t>(gap_ns * static_cast<double>(r))));
    auto ticket = service->Submit(MakeRequest(
        &rng, qsize, hot_set, service::QualityClass::kBestEffort));
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
      offered_seconds > 0.0 ? num_requests / offered_seconds : 0.0;

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
  result.p50_us = Percentile(&latencies, 0.50);
  result.p99_us = Percentile(&latencies, 0.99);
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
  const Index qsize = static_cast<Index>(GetEnvInt64("COSIM_DEGRADATION_Q", 4));
  const int num_requests =
      static_cast<int>(GetEnvInt64("COSIM_DEGRADATION_REQUESTS", 400));
  const double overload = GetEnvDouble("COSIM_DEGRADATION_OVERLOAD", 10.0);
  const int shed_depth =
      static_cast<int>(GetEnvInt64("COSIM_DEGRADATION_SHED_DEPTH", 4));
  const Index hot_set = std::min<Index>(n, 64 * qsize);

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
  approx_options.iterations = static_cast<int>(
      GetEnvInt64("COSIM_DEGRADATION_APPROX_ITERS", 1));
  approx_options.num_samples = static_cast<Index>(
      GetEnvInt64("COSIM_DEGRADATION_APPROX_SAMPLES", 2));
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
  service_options.shed_trigger_depth = shed_depth;
  service_options.shed_resume_depth = 1;
  // Overload survival depends on batch amortization: a deep shed-tier queue
  // must coalesce into wide micro-batches so the per-request fixed costs
  // (dispatch, output scatter) amortize. Serving defaults are tuned for
  // latency; this bench serves throughput under collapse.
  service_options.max_batch_requests = 64;
  service_options.max_batch_queries = std::max<Index>(64 * qsize, 64);
  service::QueryService service(exact, service_options);

  // Warm the dispatcher / thread pool before timing anything.
  Rng warm_rng(0x11ull);
  for (int i = 0; i < 4; ++i) {
    (void)service.Query(MakeRequest(&warm_rng, qsize, hot_set,
                                    service::QualityClass::kExact));
  }

  ClosedLoopResult unloaded =
      RunClosedLoop(&service, /*num_clients=*/1, /*requests_per_client=*/50,
                    qsize, hot_set);
  ClosedLoopResult capacity =
      RunClosedLoop(&service, /*num_clients=*/4, /*requests_per_client=*/50,
                    qsize, hot_set);
  const double rate = overload * std::max(capacity.qps, 1.0);
  OverloadResult overloaded =
      RunOverload(&service, rate, num_requests, qsize, hot_set);
  service.Shutdown();

  eval::TablePrinter table(
      {"arm", "ok", "rejected", "exact", "approx", "p50 us", "p99 us"});
  table.AddRow({"unloaded exact", std::to_string(unloaded.ok), "0",
                std::to_string(unloaded.ok), "0",
                std::to_string(unloaded.p50_us),
                std::to_string(unloaded.p99_us)});
  table.AddRow({"saturated exact", std::to_string(capacity.ok), "0",
                std::to_string(capacity.ok), "0",
                std::to_string(capacity.p50_us),
                std::to_string(capacity.p99_us)});
  table.AddRow({"overload best-effort", std::to_string(overloaded.ok),
                std::to_string(overloaded.rejected),
                std::to_string(overloaded.served_exact),
                std::to_string(overloaded.served_approx),
                std::to_string(overloaded.p50_us),
                std::to_string(overloaded.p99_us)});
  table.Print();

  std::printf("\nexact capacity: %.0f QPS; offered: %.0f QPS (%.1fx); "
              "overload mean batch %.1f requests\n",
              capacity.qps, overloaded.offered_qps,
              overloaded.offered_qps / std::max(capacity.qps, 1.0),
              overloaded.mean_batch);
  const double p99_ratio =
      unloaded.p99_us > 0
          ? static_cast<double>(overloaded.p99_us) /
                static_cast<double>(unloaded.p99_us)
          : 0.0;
  std::printf("overload p99 / unloaded exact p99: %.2fx "
              "(gate: <= 3x with zero admission rejections)\n",
              p99_ratio);

  if (GetEnvInt64("COSIM_DEGRADATION_ENFORCE", 0) != 0) {
    bool failed = false;
    if (p99_ratio > 3.0) {
      std::printf("DEGRADATION GATE FAIL: p99 ratio %.2fx > 3x\n", p99_ratio);
      failed = true;
    }
    if (overloaded.rejected != 0) {
      std::printf("DEGRADATION GATE FAIL: %d admission rejections with "
                  "approximate-tier headroom\n",
                  overloaded.rejected);
      failed = true;
    }
    if (overloaded.served_approx == 0) {
      std::printf("DEGRADATION GATE FAIL: controller never shed to the "
                  "approximate tier under %.1fx overload\n",
                  overload);
      failed = true;
    }
    if (failed) return 1;
    std::printf("DEGRADATION GATE PASS\n");
  }
  return 0;
}
