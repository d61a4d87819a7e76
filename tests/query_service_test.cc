// Tests for service::QueryService: batch equivalence (bit-identical to
// unbatched execution), deadlines, cancellation, admission control and a
// multi-client hammer (the CI TSan job runs this file).

#include "service/query_service.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/rp_cosim.h"
#include "cache/column_cache.h"
#include "common/memory.h"
#include "core/csrplus_engine.h"
#include "core/query_engine.h"
#include "graph/normalize.h"
#include "test_util.h"

namespace csrplus::service {
namespace {

using csrplus::testing::RandomGraph;
using csrplus::testing::ScopedNumThreads;

std::shared_ptr<const core::CsrPlusEngine> MakeEngine(Index nodes = 100,
                                                     int64_t edges = 700,
                                                     uint64_t seed = 11) {
  auto graph = RandomGraph(nodes, edges, seed);
  core::CsrPlusOptions options;
  options.rank = 8;
  auto engine = core::CsrPlusEngine::Precompute(graph, options);
  CSR_CHECK(engine.ok()) << engine.status().ToString();
  return std::make_shared<const core::CsrPlusEngine>(std::move(*engine));
}

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

/// An engine wrapper whose queries block until released — used to hold the
/// dispatcher busy so later submissions pile up in the queue.
class GatedEngine : public core::QueryEngine {
 public:
  explicit GatedEngine(const core::QueryEngine* inner) : inner_(inner) {}

  Result<linalg::DenseMatrix> MultiSourceQuery(
      const std::vector<Index>& queries) const override {
    ++calls_;
    while (gated_.load()) std::this_thread::yield();
    return inner_->MultiSourceQuery(queries);
  }
  Index NumNodes() const override { return inner_->NumNodes(); }
  std::string_view Name() const override { return inner_->Name(); }
  uint64_t StateFingerprint() const override {
    return inner_->StateFingerprint();
  }

  void Open() { gated_.store(false); }
  void Close() { gated_.store(true); }
  int calls() const { return calls_.load(); }

 private:
  const core::QueryEngine* inner_;
  mutable std::atomic<bool> gated_{false};
  mutable std::atomic<int> calls_{0};
};

TEST(QueryServiceTest, SingleRequestMatchesDirectEngineCall) {
  auto engine = MakeEngine();
  QueryService service(engine);
  QueryRequest request;
  request.queries = {3, 41, 77};
  QueryResponse response = service.Query(std::move(request));
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  auto direct = engine->MultiSourceQuery({3, 41, 77});
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(response.scores == *direct);  // bit-identical
  EXPECT_GE(response.batch_requests, 1);
}

TEST(QueryServiceTest, BatchedResultsAreBitIdenticalAcrossThreadCounts) {
  auto engine = MakeEngine();
  // Overlapping query sets: coalescing dedups them into one union batch.
  const std::vector<std::vector<Index>> sets = {
      {1, 2, 3}, {2, 3, 4}, {50, 2}, {99, 1, 50}, {7}, {3, 7, 99}};

  // Reference: direct per-request engine calls, single-threaded.
  std::vector<linalg::DenseMatrix> expected;
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
    auto gated = std::make_shared<GatedEngine>(engine.get());
    gated->Close();  // hold the dispatcher so all submissions queue up
    QueryService service(gated);

    // One warm-up request occupies the dispatcher; the rest pile up and
    // coalesce into micro-batches behind it.
    QueryRequest blocker;
    blocker.queries = {0};
    auto blocker_ticket = service.Submit(std::move(blocker));
    ASSERT_TRUE(blocker_ticket.ok());

    std::vector<QueryService::Ticket> tickets;
    for (const auto& queries : sets) {
      QueryRequest request;
      request.queries = queries;
      auto ticket = service.Submit(std::move(request));
      ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
      tickets.push_back(std::move(*ticket));
    }
    gated->Open();

    for (std::size_t i = 0; i < tickets.size(); ++i) {
      const QueryResponse& response = tickets[i].Wait();
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      EXPECT_TRUE(response.scores == expected[i])
          << "request " << i << " with " << threads
          << " threads: batched result differs from direct execution";
    }
    blocker_ticket->Wait();
  }
}

TEST(QueryServiceTest, OverlappingRequestsCoalesceIntoOneBatch) {
  auto engine = MakeEngine();
  auto gated = std::make_shared<GatedEngine>(engine.get());
  gated->Close();
  QueryService service(gated);

  QueryRequest blocker;
  blocker.queries = {0};
  auto blocker_ticket = service.Submit(std::move(blocker));
  ASSERT_TRUE(blocker_ticket.ok());
  // Wait until the dispatcher is actually inside the blocker's engine call;
  // otherwise the first coalesced request might be claimed alone.
  while (gated->calls() == 0) std::this_thread::yield();

  std::vector<QueryService::Ticket> tickets;
  for (const auto& queries :
       std::vector<std::vector<Index>>{{1, 2}, {2, 3}, {1, 3}}) {
    QueryRequest request;
    request.queries = queries;
    auto ticket = service.Submit(std::move(request));
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(std::move(*ticket));
  }
  gated->Open();

  for (auto& ticket : tickets) {
    const QueryResponse& response = ticket.Wait();
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(response.batch_requests, 3);
    EXPECT_EQ(response.batch_queries, 3);  // union of {1,2},{2,3},{1,3}
  }
  // Blocker ran alone, then one coalesced batch: two engine calls total.
  blocker_ticket->Wait();
  EXPECT_EQ(gated->calls(), 2);
}

TEST(QueryServiceTest, TopKPerRequestRidesTheSharedBatch) {
  auto engine = MakeEngine();
  QueryService service(engine);
  QueryRequest request;
  request.queries = {3, 41};
  request.top_k = 5;
  QueryResponse response = service.Query(std::move(request));
  ASSERT_TRUE(response.status.ok());
  ASSERT_EQ(response.topk.size(), 2u);
  for (std::size_t j = 0; j < 2; ++j) {
    EXPECT_EQ(response.topk[j].size(), 5u);
  }
  // The query node itself is excluded by default.
  for (const auto& scored : response.topk[0]) EXPECT_NE(scored.node, 3);
  for (const auto& scored : response.topk[1]) EXPECT_NE(scored.node, 41);
}

TEST(QueryServiceTest, DeadlineExpiredInQueueReturnsTypedError) {
  auto engine = MakeEngine();
  auto gated = std::make_shared<GatedEngine>(engine.get());
  gated->Close();
  QueryService service(gated);

  QueryRequest blocker;
  blocker.queries = {0};
  auto blocker_ticket = service.Submit(std::move(blocker));
  ASSERT_TRUE(blocker_ticket.ok());
  while (gated->calls() == 0) std::this_thread::yield();

  QueryRequest doomed;
  doomed.queries = {5};
  doomed.timeout_micros = 1;  // expires while the blocker holds the engine
  auto ticket = service.Submit(std::move(doomed));
  ASSERT_TRUE(ticket.ok());

  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  gated->Open();
  const QueryResponse& response = ticket->Wait();
  EXPECT_TRUE(response.status.IsDeadlineExceeded())
      << response.status.ToString();
  EXPECT_TRUE(response.scores.empty());
  blocker_ticket->Wait();
}

TEST(QueryServiceTest, HugeTimeoutSaturatesInsteadOfExpiring) {
  // A wire deadline_micros is an arbitrary u64. Added to the submit time it
  // must saturate: a wrapped sum would lie in the past and fail the request
  // before it ever ran.
  auto engine = MakeEngine();
  QueryService service(engine);
  for (uint64_t timeout : {UINT64_MAX, UINT64_MAX - 1, uint64_t{1} << 63}) {
    QueryRequest request;
    request.queries = {3, 41};
    request.timeout_micros = timeout;
    QueryResponse response = service.Query(std::move(request));
    EXPECT_TRUE(response.status.ok())
        << "timeout " << timeout << ": " << response.status.ToString();
  }
}

TEST(QueryServiceTest, SerializedDispatchMatchesCoalescingBitForBit) {
  // max_batch_requests = 1 (`csrplus serve --no-coalesce`) runs every
  // request in its own engine call; the answers must not change.
  auto engine = MakeEngine();
  const std::vector<std::vector<Index>> sets = {
      {1, 2, 3}, {2, 3, 4}, {50, 2}, {99, 1, 50}, {7}, {3, 7, 99}};

  const auto run = [&](int max_batch_requests) {
    auto gated = std::make_shared<GatedEngine>(engine.get());
    gated->Close();  // queue every request before the dispatcher runs one
    ServiceOptions options;
    options.max_batch_requests = max_batch_requests;
    QueryService service(gated, options);
    std::vector<QueryService::Ticket> tickets;
    for (const auto& queries : sets) {
      QueryRequest request;
      request.queries = queries;
      auto ticket = service.Submit(std::move(request));
      CSR_CHECK(ticket.ok()) << ticket.status().ToString();
      tickets.push_back(std::move(*ticket));
    }
    gated->Open();
    std::vector<QueryResponse> responses;
    for (auto& ticket : tickets) responses.push_back(ticket.Wait());
    return responses;
  };

  const std::vector<QueryResponse> serialized = run(1);
  const std::vector<QueryResponse> coalesced = run(16);
  int widest_coalesced = 0;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    ASSERT_TRUE(serialized[i].status.ok()) << serialized[i].status.ToString();
    ASSERT_TRUE(coalesced[i].status.ok()) << coalesced[i].status.ToString();
    EXPECT_EQ(serialized[i].batch_requests, 1) << "request " << i;
    EXPECT_TRUE(serialized[i].scores == coalesced[i].scores)
        << "request " << i << ": serialized answer differs from coalesced";
    widest_coalesced = std::max(widest_coalesced, coalesced[i].batch_requests);
  }
  // The coalescing arm really merged something (the first request may run
  // alone; the five queued behind it share one batch).
  EXPECT_GT(widest_coalesced, 1);
}

TEST(QueryServiceTest, CancelWhileQueuedCompletesImmediately) {
  auto engine = MakeEngine();
  auto gated = std::make_shared<GatedEngine>(engine.get());
  gated->Close();
  QueryService service(gated);

  QueryRequest blocker;
  blocker.queries = {0};
  auto blocker_ticket = service.Submit(std::move(blocker));
  ASSERT_TRUE(blocker_ticket.ok());
  while (gated->calls() == 0) std::this_thread::yield();

  QueryRequest request;
  request.queries = {5, 6};
  auto ticket = service.Submit(std::move(request));
  ASSERT_TRUE(ticket.ok());
  EXPECT_FALSE(ticket->Done());
  ticket->Cancel();
  // Completes without the dispatcher ever reaching it (the engine is still
  // gated shut).
  const QueryResponse& response = ticket->Wait();
  EXPECT_TRUE(response.status.IsCancelled()) << response.status.ToString();
  gated->Open();
  blocker_ticket->Wait();
  EXPECT_EQ(gated->calls(), 1);  // only the blocker ever executed
}

TEST(QueryServiceTest, AdmissionRejectsWhenQueueIsFull) {
  auto engine = MakeEngine();
  auto gated = std::make_shared<GatedEngine>(engine.get());
  gated->Close();
  ServiceOptions options;
  options.max_queue_requests = 2;
  QueryService service(gated, options);

  QueryRequest blocker;
  blocker.queries = {0};
  auto blocker_ticket = service.Submit(std::move(blocker));
  ASSERT_TRUE(blocker_ticket.ok());
  while (gated->calls() == 0) std::this_thread::yield();

  std::vector<QueryService::Ticket> tickets;
  for (int i = 0; i < 2; ++i) {
    QueryRequest request;
    request.queries = {static_cast<Index>(i + 1)};
    auto ticket = service.Submit(std::move(request));
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(std::move(*ticket));
  }
  QueryRequest overflow;
  overflow.queries = {9};
  auto rejected = service.Submit(std::move(overflow));
  EXPECT_TRUE(rejected.status().IsResourceExhausted())
      << rejected.status().ToString();
  gated->Open();
  for (auto& t : tickets) EXPECT_TRUE(t.Wait().status.ok());
  blocker_ticket->Wait();
}

TEST(QueryServiceTest, AdmissionRejectsUnderTinyMemoryBudget) {
  auto engine = MakeEngine();
  QueryService service(engine);
  // Smaller than one response block (100 nodes x 1 query x 8 bytes).
  ScopedMemoryBudget tiny(100);
  QueryRequest request;
  request.queries = {5};
  auto ticket = service.Submit(std::move(request));
  EXPECT_TRUE(ticket.status().IsResourceExhausted())
      << ticket.status().ToString();
}

TEST(QueryServiceTest, InvalidRequestsAreRejectedAtSubmit) {
  auto engine = MakeEngine();
  QueryService service(engine);
  QueryRequest empty;
  EXPECT_TRUE(service.Submit(std::move(empty)).status().IsInvalidArgument());
  QueryRequest out_of_range;
  out_of_range.queries = {1000};
  EXPECT_TRUE(
      service.Submit(std::move(out_of_range)).status().IsInvalidArgument());
  QueryRequest duplicates;
  duplicates.queries = {3, 3};
  EXPECT_TRUE(
      service.Submit(std::move(duplicates)).status().IsInvalidArgument());
}

TEST(QueryServiceTest, OversizedRequestIsRejectedAtSubmit) {
  // A request wider than max_batch_queries can never be served within the
  // batch-width cap; it used to slip through as the first popped request
  // and run as an oversized batch.
  auto engine = MakeEngine();
  ServiceOptions options;
  options.max_batch_queries = 4;
  QueryService service(engine, options);
  QueryRequest oversized;
  oversized.queries = {0, 1, 2, 3, 4};
  EXPECT_TRUE(
      service.Submit(std::move(oversized)).status().IsInvalidArgument());
  // Exactly at the cap is fine.
  QueryRequest at_cap;
  at_cap.queries = {0, 1, 2, 3};
  auto ticket = service.Submit(std::move(at_cap));
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  const QueryResponse& response = ticket->Wait();
  EXPECT_TRUE(response.status.ok()) << response.status.ToString();
}

TEST(QueryServiceTest, ShutdownCancelsQueuedAndRejectsNewSubmissions) {
  auto engine = MakeEngine();
  auto gated = std::make_shared<GatedEngine>(engine.get());
  gated->Close();
  auto service = std::make_unique<QueryService>(gated);

  QueryRequest blocker;
  blocker.queries = {0};
  auto blocker_ticket = service->Submit(std::move(blocker));
  ASSERT_TRUE(blocker_ticket.ok());
  while (gated->calls() == 0) std::this_thread::yield();

  QueryRequest queued;
  queued.queries = {5};
  auto ticket = service->Submit(std::move(queued));
  ASSERT_TRUE(ticket.ok());

  // Shutdown blocks until the running batch finishes, so release the gate
  // from a helper thread.
  std::thread opener([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    gated->Open();
  });
  service->Shutdown();
  opener.join();

  EXPECT_TRUE(blocker_ticket->Wait().status.ok());
  EXPECT_TRUE(ticket->Wait().status.IsCancelled());

  QueryRequest late;
  late.queries = {1};
  EXPECT_TRUE(
      service->Submit(std::move(late)).status().IsFailedPrecondition());
}

// Shared body for the multi-client hammers: when `cache` is non-null the
// service serves through it, and every response is still verified against a
// direct (uncached) engine call after the join. A caller-supplied engine
// (e.g. one serving a mapped artifact) is hammered in place of the default
// heap-backed one.
void RunMultiClientHammer(
    cache::ColumnCache* cache,
    std::shared_ptr<const core::CsrPlusEngine> engine = nullptr) {
  if (engine == nullptr) engine = MakeEngine(120, 900, 5);
  ServiceOptions options;
  options.max_batch_queries = 16;
  options.cache = cache;
  QueryService service(engine, options);

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 25;
  std::atomic<int> ok{0}, failed{0};
  // Each client keeps (queries, scores) pairs; equivalence is verified
  // serially after the join so the engine sees no extra concurrent callers.
  std::vector<std::vector<std::pair<std::vector<Index>, linalg::DenseMatrix>>>
      collected(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(static_cast<uint64_t>(c) + 1);
      for (int r = 0; r < kRequestsPerClient; ++r) {
        QueryRequest request;
        request.tag = "hammer";
        request.top_k = (r % 2 == 0) ? 3 : 0;
        const int size = 1 + static_cast<int>(rng.Below(4));
        while (static_cast<int>(request.queries.size()) < size) {
          // Skew towards a hot set of 12 nodes so the cached variant
          // actually revisits columns under contention.
          const Index q = static_cast<Index>(
              rng.Below(2) == 0 ? rng.Below(12) : rng.Below(120));
          if (std::find(request.queries.begin(), request.queries.end(), q) ==
              request.queries.end()) {
            request.queries.push_back(q);
          }
        }
        std::vector<Index> queries = request.queries;
        QueryResponse response = service.Query(std::move(request));
        if (!response.status.ok()) {
          ++failed;
          continue;
        }
        ++ok;
        collected[static_cast<std::size_t>(c)].emplace_back(
            std::move(queries), std::move(response.scores));
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok.load(), kClients * kRequestsPerClient);
  EXPECT_EQ(failed.load(), 0);
  for (const auto& per_client : collected) {
    for (const auto& [queries, scores] : per_client) {
      auto direct = engine->MultiSourceQuery(queries);
      ASSERT_TRUE(direct.ok());
      EXPECT_TRUE(scores == *direct) << "batched result differs";
    }
  }
}

// Runs `body` once per kernel ISA this binary + CPU can execute, logging the
// ISAs that had to be skipped (e.g. avx512 on older hosts) so a green run on
// a weak machine is visibly not full coverage.
template <typename Body>
void ForEachAvailableIsa(Body&& body) {
  for (linalg::kernels::Isa isa : csrplus::testing::AllKernelIsas()) {
    if (!linalg::kernels::IsaCompiled(isa) ||
        !linalg::kernels::IsaSupported(isa)) {
      std::fprintf(stderr,
                   "[  SKIPPED ] kernel ISA %s unavailable on this host; "
                   "hammer coverage for it is reduced\n",
                   linalg::kernels::IsaName(isa));
      continue;
    }
    SCOPED_TRACE(::testing::Message()
                 << "kernel ISA " << linalg::kernels::IsaName(isa));
    csrplus::testing::ScopedKernelIsa scoped(isa);
    body();
  }
}

TEST(QueryServiceTest, MultiClientHammer) {
  // The hammer (and its after-join direct-call verification) must hold under
  // every dispatchable kernel ISA, not just the startup pick.
  ForEachAvailableIsa([] { RunMultiClientHammer(nullptr); });
}

// Fixture pieces for the serving-tier tests: an exact CSR+ engine and a
// hardened RP-CoSim approximate engine over the same graph.
struct TieredSetup {
  // Heap storage keeps the addresses the engines point at stable no matter
  // how the setup struct itself moves.
  std::unique_ptr<linalg::CsrMatrix> transition;
  std::shared_ptr<const core::CsrPlusEngine> exact;
  std::unique_ptr<baselines::RpCosimEngine> approx;

  static TieredSetup Make() {
    auto graph = RandomGraph(100, 700, 11);
    core::CsrPlusOptions options;
    options.rank = 8;
    auto exact = core::CsrPlusEngine::Precompute(graph, options);
    CSR_CHECK(exact.ok()) << exact.status().ToString();
    auto transition = std::make_unique<linalg::CsrMatrix>(
        graph::ColumnNormalizedTransition(graph));
    baselines::RpCoSimOptions rp_options;
    rp_options.iterations = 3;
    rp_options.num_samples = 8;
    auto approx = std::make_unique<baselines::RpCosimEngine>(transition.get(),
                                                             rp_options);
    CSR_CHECK(approx->PrecomputeSketch().ok());
    return TieredSetup{
        std::move(transition),
        std::make_shared<const core::CsrPlusEngine>(std::move(*exact)),
        std::move(approx)};
  }
};

TEST(QueryServiceTierTest, QualityClassRoutesToConfiguredTier) {
  auto setup = TieredSetup::Make();
  ServiceOptions options;
  options.approximate_engine = setup.approx.get();
  QueryService service(setup.exact, options);

  QueryRequest exact_request;
  exact_request.queries = {3, 41};
  QueryResponse exact_response = service.Query(std::move(exact_request));
  ASSERT_TRUE(exact_response.status.ok());
  EXPECT_EQ(exact_response.served_tier, ServedTier::kExact);
  auto exact_direct = setup.exact->MultiSourceQuery({3, 41});
  ASSERT_TRUE(exact_direct.ok());
  EXPECT_TRUE(exact_response.scores == *exact_direct);

  QueryRequest approx_request;
  approx_request.queries = {3, 41};
  approx_request.quality = QualityClass::kApproximate;
  QueryResponse approx_response = service.Query(std::move(approx_request));
  ASSERT_TRUE(approx_response.status.ok());
  EXPECT_EQ(approx_response.served_tier, ServedTier::kApproximate);
  auto approx_direct = setup.approx->MultiSourceQuery({3, 41});
  ASSERT_TRUE(approx_direct.ok());
  EXPECT_TRUE(approx_response.scores == *approx_direct);  // bit-identical

  // Best-effort on an idle service stays exact: no queue, no shedding.
  QueryRequest best_effort;
  best_effort.queries = {7};
  best_effort.quality = QualityClass::kBestEffort;
  QueryResponse best_response = service.Query(std::move(best_effort));
  ASSERT_TRUE(best_response.status.ok());
  EXPECT_EQ(best_response.served_tier, ServedTier::kExact);
}

TEST(QueryServiceTierTest, QualityClassesIgnoredWithoutApproximateTier) {
  auto engine = MakeEngine();
  QueryService service(engine);
  for (QualityClass quality :
       {QualityClass::kExact, QualityClass::kApproximate,
        QualityClass::kBestEffort}) {
    QueryRequest request;
    request.queries = {5};
    request.quality = quality;
    QueryResponse response = service.Query(std::move(request));
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(response.served_tier, ServedTier::kExact)
        << "quality " << QualityClassName(quality);
  }
}

TEST(QueryServiceTierTest, DeadlineHeadroomShedsBestEffort) {
  auto setup = TieredSetup::Make();
  ServiceOptions options;
  options.approximate_engine = setup.approx.get();
  options.shed_trigger_depth = 0;  // depth shedding off: isolate headroom
  options.shed_headroom_micros = uint64_t{1} << 40;
  QueryService service(setup.exact, options);

  QueryRequest best_effort;
  best_effort.queries = {5};
  best_effort.quality = QualityClass::kBestEffort;
  best_effort.timeout_micros = 60'000'000;  // far below the headroom
  QueryResponse shed = service.Query(std::move(best_effort));
  ASSERT_TRUE(shed.status.ok());
  EXPECT_EQ(shed.served_tier, ServedTier::kApproximate);

  // Exact quality is never shed, headroom or not.
  QueryRequest exact_request;
  exact_request.queries = {5};
  exact_request.timeout_micros = 60'000'000;
  QueryResponse exact_response = service.Query(std::move(exact_request));
  ASSERT_TRUE(exact_response.status.ok());
  EXPECT_EQ(exact_response.served_tier, ServedTier::kExact);

  // A best-effort request without a deadline has no headroom to run out of.
  QueryRequest no_deadline;
  no_deadline.queries = {5};
  no_deadline.quality = QualityClass::kBestEffort;
  QueryResponse undated = service.Query(std::move(no_deadline));
  ASSERT_TRUE(undated.status.ok());
  EXPECT_EQ(undated.served_tier, ServedTier::kExact);
}

// Replays one fixed load trace: a gated blocker pins the dispatcher, a
// best-effort burst queues behind it (depth >= trigger => shed), then a
// lone best-effort request on the drained queue (depth <= resume => back
// to exact). Returns the served tiers in submission order.
std::vector<ServedTier> RunSheddingTrace(const TieredSetup& setup) {
  auto gated = std::make_shared<GatedEngine>(setup.exact.get());
  gated->Close();
  ServiceOptions options;
  options.approximate_engine = setup.approx.get();
  options.shed_trigger_depth = 4;
  options.shed_resume_depth = 1;
  QueryService service(gated, options);

  QueryRequest blocker;
  blocker.queries = {0};
  auto blocker_ticket = service.Submit(std::move(blocker));
  CSR_CHECK(blocker_ticket.ok());
  while (gated->calls() == 0) std::this_thread::yield();

  std::vector<QueryService::Ticket> tickets;
  for (int i = 0; i < 6; ++i) {
    QueryRequest request;
    request.queries = {static_cast<Index>(i + 1)};
    request.quality = QualityClass::kBestEffort;
    auto ticket = service.Submit(std::move(request));
    CSR_CHECK(ticket.ok());
    tickets.push_back(std::move(*ticket));
  }
  gated->Open();

  std::vector<ServedTier> served;
  served.push_back(blocker_ticket->Wait().served_tier);
  for (auto& ticket : tickets) served.push_back(ticket.Wait().served_tier);

  // Queue has fully drained; the controller observed depth <= resume while
  // popping the tail, so a fresh best-effort request runs exact again.
  QueryRequest after;
  after.queries = {50};
  after.quality = QualityClass::kBestEffort;
  served.push_back(service.Query(std::move(after)).served_tier);
  return served;
}

TEST(QueryServiceTierTest, DepthSheddingIsDeterministicAcrossReplays) {
  auto setup = TieredSetup::Make();
  const std::vector<ServedTier> first = RunSheddingTrace(setup);
  ASSERT_EQ(first.size(), 8u);
  // Blocker ran exact; the burst queued to depth 6 >= trigger 4, so every
  // burst member was shed; the post-drain request resumed exact.
  EXPECT_EQ(first.front(), ServedTier::kExact);
  for (std::size_t i = 1; i + 1 < first.size(); ++i) {
    EXPECT_EQ(first[i], ServedTier::kApproximate) << "burst request " << i;
  }
  EXPECT_EQ(first.back(), ServedTier::kExact);
  // Same load trace => same tier decisions, replay after replay.
  EXPECT_EQ(RunSheddingTrace(setup), first);
  EXPECT_EQ(RunSheddingTrace(setup), first);
}

TEST(QueryServiceTierTest, TieredBatchesStayHomogeneous) {
  auto setup = TieredSetup::Make();
  auto gated = std::make_shared<GatedEngine>(setup.exact.get());
  gated->Close();
  ServiceOptions options;
  options.approximate_engine = setup.approx.get();
  options.shed_trigger_depth = 0;  // routing by quality class only
  QueryService service(gated, options);

  QueryRequest blocker;
  blocker.queries = {0};
  auto blocker_ticket = service.Submit(std::move(blocker));
  ASSERT_TRUE(blocker_ticket.ok());
  while (gated->calls() == 0) std::this_thread::yield();

  // Alternating tiers queued back to back: coalescing must break at every
  // tier boundary instead of mixing engines in one evaluation.
  std::vector<QueryService::Ticket> tickets;
  for (int i = 0; i < 4; ++i) {
    QueryRequest request;
    request.queries = {static_cast<Index>(i + 1)};
    request.quality = (i % 2 == 0) ? QualityClass::kExact
                                   : QualityClass::kApproximate;
    auto ticket = service.Submit(std::move(request));
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(std::move(*ticket));
  }
  gated->Open();
  blocker_ticket->Wait();
  for (int i = 0; i < 4; ++i) {
    const QueryResponse& response = tickets[static_cast<std::size_t>(i)].Wait();
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(response.served_tier, (i % 2 == 0)
                                        ? ServedTier::kExact
                                        : ServedTier::kApproximate);
    EXPECT_EQ(response.batch_requests, 1)
        << "tier boundary was coalesced away";
  }
}

TEST(QueryServiceTierTest, MismatchedNodeCountsDieAtConstruction) {
  auto exact = MakeEngine(100, 700, 11);
  auto smaller = MakeEngine(50, 300, 7);
  ServiceOptions options;
  options.approximate_engine = smaller.get();
  EXPECT_DEATH(QueryService(exact, options), "same node set");
}

TEST(QueryServiceTest, MultiClientHammerWithMappedEngine) {
  // Same load, served zero-copy off a mapped artifact. The background
  // verifier thread checksums the mapped sections while the client threads
  // read them (the CI TSan job runs this file), and every batched result
  // must match a direct call on the mapped engine bit for bit.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("csrplus_service_mapped_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "hammer.cspc").string();
  auto writer = MakeEngine(120, 900, 5);
  ASSERT_TRUE(writer->SavePrecompute(path).ok());

  core::LoadOptions load_options;
  load_options.mode = core::LoadMode::kMapped;  // background verify on
  auto loaded = core::CsrPlusEngine::LoadPrecompute(path, load_options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto mapped = std::make_shared<const core::CsrPlusEngine>(std::move(*loaded));
  ForEachAvailableIsa([&] { RunMultiClientHammer(nullptr, mapped); });
  EXPECT_TRUE(mapped->VerifyMappedSections().ok());
  std::filesystem::remove_all(dir);
}

TEST(QueryServiceTest, MultiClientHammerWithColumnCache) {
  // Same load, served through the column cache: concurrent lookups, inserts
  // and LRU churn must neither race (the CI TSan job runs this file) nor
  // perturb a single result bit. A fresh cache per ISA keeps the hit/insert
  // assertions meaningful for each pass.
  ForEachAvailableIsa([] {
    cache::ColumnCache cache;
    RunMultiClientHammer(&cache);
    const cache::ColumnCacheStats stats = cache.Stats();
    EXPECT_GT(stats.hits, 0) << "hot-set repeats never hit the cache";
    EXPECT_GT(stats.inserts, 0);
  });
}

}  // namespace
}  // namespace csrplus::service
