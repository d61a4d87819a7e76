#include "service/query_service.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/memory.h"
#include "obs/stats.h"
#include "obs/trace.h"

namespace csrplus::service {
namespace {

// Response-block charge for admission: the n x |Q| score matrix the request
// will hold until the client collects it. Top-k extraction is O(k) extra and
// not worth charging.
int64_t AdmissionBytes(Index num_nodes, std::size_t num_queries) {
  return static_cast<int64_t>(num_nodes) * static_cast<int64_t>(num_queries) *
         static_cast<int64_t>(sizeof(double));
}

}  // namespace

const char* QualityClassName(QualityClass quality) {
  switch (quality) {
    case QualityClass::kExact:
      return "exact";
    case QualityClass::kApproximate:
      return "approximate";
    case QualityClass::kBestEffort:
      return "best-effort";
  }
  return "unknown";
}

const char* ServedTierName(ServedTier tier) {
  switch (tier) {
    case ServedTier::kExact:
      return "exact";
    case ServedTier::kApproximate:
      return "approximate";
    case ServedTier::kUnspecified:
      return "unspecified";
  }
  return "unknown";
}

QueryService::QueryService(std::shared_ptr<const core::QueryEngine> engine,
                           ServiceOptions options)
    : engine_(std::move(engine)),
      options_(options),
      num_nodes_(engine_ != nullptr ? engine_->NumNodes() : 0) {
  CSR_CHECK(engine_ != nullptr) << "QueryService needs an engine";
  if (options_.approximate_engine != nullptr) {
    CSR_CHECK(options_.approximate_engine->NumNodes() == num_nodes_)
        << "the approximate tier must serve the same node set as the exact "
           "engine";
  }
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
}

const core::QueryEngine* QueryService::EngineFor(
    const core::QueryEngine* exact, ServedTier tier) const {
  if (tier == ServedTier::kApproximate &&
      options_.approximate_engine != nullptr) {
    return options_.approximate_engine;
  }
  return exact;
}

Status QueryService::PublishEngine(
    std::shared_ptr<const core::QueryEngine> next,
    const std::vector<Index>& touched_support) {
  if (next == nullptr) {
    return Status::InvalidArgument("PublishEngine: engine must not be null");
  }
  std::lock_guard<std::mutex> lk(publish_mu_);
  const auto old = engine_snapshot();
  if (next->NumNodes() != num_nodes_) {
    return Status::InvalidArgument(
        "PublishEngine: new generation serves a different node count");
  }
  if (next == old) return Status::OK();  // republishing the same snapshot
  const uint64_t old_fp = old->StateFingerprint();
  const uint64_t new_fp = next->StateFingerprint();
  {
    std::lock_guard<std::mutex> slk(snapshot_mu_);
    engine_ = std::move(next);
  }

  // RCU grace period: a micro-batch loads the snapshot inside its odd epoch
  // window, so once the epoch observed *after* the swap leaves that window
  // the old snapshot has drained — no in-flight evaluation can re-insert a
  // stale column under a fingerprint we are about to reconcile below.
  const uint64_t epoch = batch_epoch_.load(std::memory_order_acquire);
  if (epoch & 1) {
    while (batch_epoch_.load(std::memory_order_acquire) == epoch) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  cache::ColumnCache* cache = options_.cache;
  if (cache != nullptr) {
    if (old_fp != new_fp) {
      // Generation rotated (full rebuild, engine swap): the old columns can
      // never hit again — reclaim them eagerly.
      if (old_fp != 0) cache->EvictEngine(old_fp);
    } else if (old_fp != 0 && !touched_support.empty()) {
      // Fingerprint stable across an incremental update: only the receipt's
      // touched columns changed; everything else keeps hitting.
      cache->EvictColumns(old_fp, touched_support);
    }
  }
  CSRPLUS_OBS_COUNTER_ADD("csrplus.service.engine_publishes", "generations",
                          "engine snapshots published over the service "
                          "lifetime",
                          1);
  return Status::OK();
}

ServedTier QueryService::RouteTier(const QueryRequest& request,
                                   uint64_t deadline_micros,
                                   uint64_t now) const {
  if (options_.approximate_engine == nullptr) return ServedTier::kExact;
  switch (request.quality) {
    case QualityClass::kExact:
      return ServedTier::kExact;
    case QualityClass::kApproximate:
      return ServedTier::kApproximate;
    case QualityClass::kBestEffort:
      if (shedding_) return ServedTier::kApproximate;
      if (options_.shed_headroom_micros > 0 && deadline_micros != 0 &&
          deadline_micros < now + options_.shed_headroom_micros) {
        return ServedTier::kApproximate;
      }
      return ServedTier::kExact;
  }
  return ServedTier::kExact;
}

QueryService::~QueryService() { Shutdown(); }

void QueryService::Shutdown() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  queue_cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

Result<QueryService::Ticket> QueryService::Submit(
    QueryRequest request, std::function<void()> on_done) {
  if (request.top_k < 0) {
    return Status::InvalidArgument("top_k must be >= 0");
  }
  // PublishEngine guarantees every generation serves num_nodes_, so the
  // validation and the admission charge stay right even if a publish lands
  // between here and dispatch.
  CSR_RETURN_IF_ERROR(core::ValidateQueries(request.queries, num_nodes_,
                                            core::QueryDuplicates::kReject));
  // The dispatcher never merges past max_batch_queries, but the first
  // request it pops used to be exempt — one oversized request would force
  // an unbounded-width batch. Enforce the invariant at the door instead.
  if (static_cast<Index>(request.queries.size()) >
      options_.max_batch_queries) {
    return Status::InvalidArgument(
        "request has " + std::to_string(request.queries.size()) +
        " queries; the service batch limit is " +
        std::to_string(options_.max_batch_queries));
  }
  auto state = std::make_shared<RequestState>();
  state->on_done = std::move(on_done);
  state->submit_micros = obs::NowMicros();
  if (request.timeout_micros > 0) {
    // Saturate: a timeout near 2^64 (straight off the wire) means "no
    // practical deadline", not a sum that wraps to a time already past.
    const uint64_t headroom = UINT64_MAX - state->submit_micros;
    state->deadline_micros =
        request.timeout_micros > headroom
            ? UINT64_MAX
            : state->submit_micros + request.timeout_micros;
  }
  state->admission_bytes = AdmissionBytes(num_nodes_, request.queries.size());
  state->request = std::move(request);

  {
    std::lock_guard<std::mutex> lk(mu_);
    if (shutdown_) {
      return Status::FailedPrecondition("QueryService is shut down");
    }
    if (static_cast<int>(queue_.size()) >= options_.max_queue_requests) {
      CSRPLUS_OBS_COUNTER_ADD("csrplus.service.rejected_queue_full",
                              "requests",
                              "submissions rejected: queue at capacity", 1);
      return Status::ResourceExhausted("service submission queue is full");
    }
    if (options_.max_outstanding_bytes > 0 &&
        outstanding_bytes_ + state->admission_bytes >
            options_.max_outstanding_bytes) {
      CSRPLUS_OBS_COUNTER_ADD(
          "csrplus.service.rejected_service_budget", "requests",
          "submissions rejected: per-service outstanding-bytes cap "
          "(tenant isolation)",
          1);
      return Status::ResourceExhausted(
          "service outstanding-bytes cap reached (" +
          std::to_string(options_.max_outstanding_bytes) + " bytes)");
    }
    const Status budget = MemoryBudget::Global().TryReserve(
        outstanding_bytes_ + state->admission_bytes,
        "service admission (outstanding response blocks)");
    if (!budget.ok()) {
      CSRPLUS_OBS_COUNTER_ADD("csrplus.service.rejected_budget", "requests",
                              "submissions rejected: memory budget", 1);
      return budget;
    }
    outstanding_bytes_ += state->admission_bytes;
    queue_.push_back(state);
    CSRPLUS_OBS_COUNTER_ADD("csrplus.service.admitted", "requests",
                            "requests admitted into the queue", 1);
    CSRPLUS_OBS_GAUGE_SET("csrplus.service.queue_depth", "requests",
                          "requests currently queued",
                          static_cast<int64_t>(queue_.size()));
  }
  queue_cv_.notify_one();
  return Ticket(this, std::move(state));
}

QueryResponse QueryService::Query(QueryRequest request) {
  CSRPLUS_TRACE_SPAN_ARG(span, obs::spans::kServiceRequest, "num_queries",
                         static_cast<int64_t>(request.queries.size()));
  auto ticket = Submit(std::move(request));
  if (!ticket.ok()) {
    QueryResponse response;
    response.status = ticket.status();
    return response;
  }
  return ticket->Wait();
}

const QueryResponse& QueryService::Ticket::Wait() {
  std::unique_lock<std::mutex> lk(state_->mu);
  state_->cv.wait(lk, [&] { return state_->phase == Phase::kDone; });
  return state_->response;
}

bool QueryService::Ticket::WaitFor(uint64_t micros) {
  std::unique_lock<std::mutex> lk(state_->mu);
  return state_->cv.wait_for(lk, std::chrono::microseconds(micros),
                             [&] { return state_->phase == Phase::kDone; });
}

bool QueryService::Ticket::Done() const {
  std::lock_guard<std::mutex> lk(state_->mu);
  return state_->phase == Phase::kDone;
}

void QueryService::Ticket::Cancel() { service_->CancelRequest(state_); }

void QueryService::CancelRequest(const std::shared_ptr<RequestState>& state) {
  // Lock order: service mutex before request mutex (matches the dispatcher).
  std::lock_guard<std::mutex> lk(mu_);
  std::lock_guard<std::mutex> slk(state->mu);
  if (state->phase == Phase::kDone) return;
  state->cancel_requested = true;
  if (state->phase != Phase::kQueued) return;  // dispatcher drops it later
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->get() == state.get()) {
      queue_.erase(it);
      break;
    }
  }
  outstanding_bytes_ -= state->admission_bytes;
  CSRPLUS_OBS_GAUGE_SET("csrplus.service.queue_depth", "requests",
                        "requests currently queued",
                        static_cast<int64_t>(queue_.size()));
  QueryResponse response;
  response.status = Status::Cancelled("request cancelled while queued");
  response.wait_micros = obs::NowMicros() - state->submit_micros;
  FinishLocked(state.get(), std::move(response));
}

void QueryService::FinishLocked(RequestState* state, QueryResponse response) {
  response.total_micros = obs::NowMicros() - state->submit_micros;
  if (response.status.IsDeadlineExceeded()) {
    CSRPLUS_OBS_COUNTER_ADD("csrplus.service.deadline_exceeded", "requests",
                            "requests that missed their deadline", 1);
  } else if (response.status.IsCancelled()) {
    CSRPLUS_OBS_COUNTER_ADD("csrplus.service.cancelled", "requests",
                            "requests cancelled before completion", 1);
  }
  CSRPLUS_OBS_HISTOGRAM_RECORD("csrplus.service.queue_wait_us", "us",
                               "submission-to-dispatch wait",
                               response.wait_micros);
  CSRPLUS_OBS_HISTOGRAM_RECORD("csrplus.service.request_us", "us",
                               "submission-to-completion latency",
                               response.total_micros);
  if (response.served_tier == ServedTier::kExact) {
    CSRPLUS_OBS_HISTOGRAM_RECORD("csrplus.service.tier.exact_request_us",
                                 "us", "exact-tier end-to-end latency",
                                 response.total_micros);
  } else if (response.served_tier == ServedTier::kApproximate) {
    CSRPLUS_OBS_HISTOGRAM_RECORD("csrplus.service.tier.approx_request_us",
                                 "us", "approximate-tier end-to-end latency",
                                 response.total_micros);
  }
  state->response = std::move(response);
  state->phase = Phase::kDone;
  state->cv.notify_all();
  if (state->on_done) {
    // Fires exactly once: every terminal path funnels through here. The
    // callback contract (Submit) forbids re-entering the service, so
    // invoking it under the request lock is safe.
    auto on_done = std::move(state->on_done);
    state->on_done = nullptr;
    on_done();
  }
}

std::vector<std::shared_ptr<QueryService::RequestState>>
QueryService::NextBatch() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    queue_cv_.wait(lk, [&] { return shutdown_ || !queue_.empty(); });
    if (shutdown_) {
      // Drain: everything still queued completes as cancelled.
      while (!queue_.empty()) {
        auto state = queue_.front();
        queue_.pop_front();
        std::lock_guard<std::mutex> slk(state->mu);
        outstanding_bytes_ -= state->admission_bytes;
        QueryResponse response;
        response.status = Status::Cancelled("service shut down");
        response.wait_micros = obs::NowMicros() - state->submit_micros;
        FinishLocked(state.get(), std::move(response));
      }
      CSRPLUS_OBS_GAUGE_SET("csrplus.service.queue_depth", "requests",
                            "requests currently queued", 0);
      return {};
    }

    // Adaptive controller: one depth observation per batch assembly, with
    // hysteresis so the tier does not flap around the trigger (normative
    // semantics: docs/serving-tiers.md). The decision is a pure function of
    // the observed depth sequence, so identical load traces produce
    // identical tier decisions.
    const std::size_t observed_depth = queue_.size();
    if (options_.approximate_engine != nullptr &&
        options_.shed_trigger_depth > 0) {
      if (static_cast<int>(observed_depth) >= options_.shed_trigger_depth) {
        shedding_ = true;
      } else if (static_cast<int>(observed_depth) <=
                 options_.shed_resume_depth) {
        shedding_ = false;
      }
    }
    CSRPLUS_OBS_GAUGE_SET("csrplus.service.tier.shedding", "bool",
                          "1 while the controller sheds best-effort traffic "
                          "to the approximate tier",
                          shedding_ ? 1 : 0);
    CSRPLUS_TRACE_SPAN_ARG(route_span, obs::spans::kTierRoute, "queue_depth",
                           static_cast<int64_t>(observed_depth));
    CSRPLUS_TRACE_ARG(route_span, "shedding",
                      static_cast<int64_t>(shedding_ ? 1 : 0));
    const uint64_t route_now = obs::NowMicros();

    std::vector<std::shared_ptr<RequestState>> batch;
    std::unordered_set<Index> distinct;
    ServedTier batch_tier = ServedTier::kExact;
    while (!queue_.empty()) {
      const auto& front = queue_.front();
      // deadline_micros and request are write-once before enqueue, so
      // routing may read them without the per-request lock.
      const ServedTier front_tier =
          RouteTier(front->request, front->deadline_micros, route_now);
      // The first popped request skips the widening checks below — safe only
      // because Submit rejects any request with more than max_batch_queries
      // queries, so no single request can blow past the batch cap on its own.
      if (!batch.empty()) {
        // Batches are tier-homogeneous: one engine evaluates the union.
        if (front_tier != batch_tier) break;
        if (static_cast<int>(batch.size()) >= options_.max_batch_requests) {
          break;
        }
        Index added = 0;
        for (Index q : front->request.queries) {
          if (distinct.find(q) == distinct.end()) ++added;
        }
        if (static_cast<Index>(distinct.size()) + added >
            options_.max_batch_queries) {
          break;
        }
      }
      auto state = queue_.front();
      queue_.pop_front();
      std::lock_guard<std::mutex> slk(state->mu);
      const uint64_t now = obs::NowMicros();
      if (state->cancel_requested) {  // defensive; Cancel dequeues itself
        outstanding_bytes_ -= state->admission_bytes;
        QueryResponse response;
        response.status = Status::Cancelled("request cancelled while queued");
        response.wait_micros = now - state->submit_micros;
        FinishLocked(state.get(), std::move(response));
        continue;
      }
      if (state->deadline_micros != 0 && now > state->deadline_micros) {
        outstanding_bytes_ -= state->admission_bytes;
        QueryResponse response;
        response.status =
            Status::DeadlineExceeded("deadline expired while queued");
        response.wait_micros = now - state->submit_micros;
        FinishLocked(state.get(), std::move(response));
        continue;
      }
      state->phase = Phase::kRunning;
      state->routed_tier = front_tier;
      state->response.wait_micros = now - state->submit_micros;
      if (front_tier == ServedTier::kApproximate) {
        CSRPLUS_OBS_COUNTER_ADD("csrplus.service.tier.approx_requests",
                                "requests",
                                "requests routed to the approximate tier", 1);
        if (state->request.quality == QualityClass::kBestEffort) {
          CSRPLUS_OBS_COUNTER_ADD(
              "csrplus.service.tier.shed", "requests",
              "best-effort requests shed to the approximate tier", 1);
        }
      } else {
        CSRPLUS_OBS_COUNTER_ADD("csrplus.service.tier.exact_requests",
                                "requests",
                                "requests routed to the exact tier", 1);
      }
      if (batch.empty()) batch_tier = front_tier;
      for (Index q : state->request.queries) distinct.insert(q);
      batch.push_back(std::move(state));
    }
    CSRPLUS_OBS_GAUGE_SET("csrplus.service.queue_depth", "requests",
                          "requests currently queued",
                          static_cast<int64_t>(queue_.size()));
    if (!batch.empty()) return batch;
    // Everything popped was cancelled or expired; wait for more work.
  }
}

Result<DenseMatrix> QueryService::EvaluateBatch(
    const core::QueryEngine* exact, const std::vector<Index>& union_queries,
    ServedTier tier) {
  const core::QueryEngine* engine = EngineFor(exact, tier);
  cache::ColumnCache* cache = options_.cache;
  const uint64_t fp = cache != nullptr ? engine->StateFingerprint() : 0;
  if (cache == nullptr || fp == 0) {
    // Pass-through: no cache configured, or the engine cannot vouch for its
    // state (StateFingerprint contract) — identical to the pre-cache path.
    return engine->MultiSourceQuery(union_queries);
  }

  const Index n = engine->NumNodes();
  const Index cols = static_cast<Index>(union_queries.size());
  // Mirror the engine's own output charge: the block is allocated here
  // instead of inside MultiSourceQuery, so near the cap the cached and
  // uncached paths fail alike.
  CSR_RETURN_IF_ERROR(MemoryBudget::Global().TryReserve(
      static_cast<int64_t>(n) * cols * static_cast<int64_t>(sizeof(double)),
      "service cached batch output"));
  DenseMatrix block(n, cols);

  // Scatter cached columns straight into the block; collect the misses.
  std::vector<Index> miss_queries;
  std::vector<Index> miss_cols;
  for (Index j = 0; j < cols; ++j) {
    if (!cache->Lookup(fp, union_queries[static_cast<std::size_t>(j)],
                       block.data() + j, cols, n)) {
      miss_queries.push_back(union_queries[static_cast<std::size_t>(j)]);
      miss_cols.push_back(j);
    }
  }
  if (miss_queries.empty()) return block;

  // Evaluate only the miss set — the whole point of the cache.
  CSR_ASSIGN_OR_RETURN(DenseMatrix fresh,
                       engine->MultiSourceQuery(miss_queries));

  // Copy fresh columns into place (row-major friendly: one pass over rows),
  // then hand each one to the cache as a contiguous vector.
  const Index m = static_cast<Index>(miss_queries.size());
  for (Index i = 0; i < n; ++i) {
    const double* src = fresh.RowPtr(i);
    double* dst = block.RowPtr(i);
    for (Index k = 0; k < m; ++k) {
      dst[miss_cols[static_cast<std::size_t>(k)]] = src[k];
    }
  }
  std::vector<double> column(static_cast<std::size_t>(n));
  for (Index k = 0; k < m; ++k) {
    for (Index i = 0; i < n; ++i) {
      column[static_cast<std::size_t>(i)] = fresh(i, k);
    }
    cache->Insert(fp, miss_queries[static_cast<std::size_t>(k)], column.data(),
                  n);
  }
  return block;
}

void QueryService::DispatcherLoop() {
  for (;;) {
    auto batch = NextBatch();
    if (batch.empty()) return;
    // NextBatch wrote every member's routed_tier on this thread and batches
    // are tier-homogeneous, so the front's tier is the batch's tier.
    const ServedTier tier = batch.front()->routed_tier;

    // Open the grace-period window (odd epoch) *before* pinning the engine
    // snapshot: PublishEngine waits for this window to close before it
    // reconciles the cache, so everything this batch does — evaluate,
    // cache-insert, scatter — happens against a generation the publisher
    // has not yet invalidated.
    batch_epoch_.fetch_add(1, std::memory_order_acq_rel);
    const std::shared_ptr<const core::QueryEngine> snapshot =
        engine_snapshot();

    // Union of the batch's query sets, first occurrence fixing the column.
    std::vector<Index> union_queries;
    std::unordered_map<Index, Index> col_of;
    for (const auto& state : batch) {
      for (Index q : state->request.queries) {
        if (col_of.emplace(q, static_cast<Index>(union_queries.size()))
                .second) {
          union_queries.push_back(q);
        }
      }
    }

    CSRPLUS_OBS_COUNTER_ADD("csrplus.service.batches", "batches",
                            "micro-batches executed", 1);
    CSRPLUS_OBS_HISTOGRAM_RECORD("csrplus.service.batch_requests", "requests",
                                 "requests coalesced per micro-batch",
                                 static_cast<uint64_t>(batch.size()));
    CSRPLUS_OBS_HISTOGRAM_RECORD("csrplus.service.batch_queries", "queries",
                                 "distinct queries per micro-batch",
                                 static_cast<uint64_t>(union_queries.size()));

    Result<DenseMatrix> result = [&]() -> Result<DenseMatrix> {
      CSRPLUS_TRACE_SPAN_ARG(span, obs::spans::kServiceBatch, "num_requests",
                             static_cast<int64_t>(batch.size()));
      CSRPLUS_TRACE_ARG(span, "num_queries",
                        static_cast<int64_t>(union_queries.size()));
      CSRPLUS_OBS_SCOPED_US("csrplus.service.batch_us",
                            "micro-batch engine execution wall time");
      return EvaluateBatch(snapshot.get(), union_queries, tier);
    }();

    const Index n = snapshot->NumNodes();
    int64_t released_bytes = 0;
    for (const auto& state : batch) {
      QueryResponse response;
      response.batch_requests = static_cast<int>(batch.size());
      response.batch_queries = static_cast<Index>(union_queries.size());
      response.served_tier = tier;
      std::lock_guard<std::mutex> slk(state->mu);
      response.wait_micros = state->response.wait_micros;
      if (state->cancel_requested) {
        response.status = Status::Cancelled("request cancelled while running");
      } else if (state->deadline_micros != 0 &&
                 obs::NowMicros() > state->deadline_micros) {
        response.status =
            Status::DeadlineExceeded("deadline expired during execution");
      } else if (!result.ok()) {
        response.status = result.status().WithContext("batched query failed");
      } else {
        // Scatter: column j of this request is column col_of[queries[j]] of
        // the shared block — a pure copy, so the result is bit-identical to
        // running the request alone (see the engine contract).
        const std::vector<Index>& queries = state->request.queries;
        std::vector<Index> cols(queries.size());
        for (std::size_t j = 0; j < queries.size(); ++j) {
          cols[j] = col_of[queries[j]];
        }
        DenseMatrix scores(n, static_cast<Index>(queries.size()));
        for (Index i = 0; i < n; ++i) {
          const double* src = result->RowPtr(i);
          double* dst = scores.RowPtr(i);
          for (std::size_t j = 0; j < queries.size(); ++j) {
            dst[j] = src[cols[j]];
          }
        }
        if (state->request.top_k > 0) {
          response.topk.reserve(queries.size());
          for (std::size_t j = 0; j < queries.size(); ++j) {
            std::vector<Index> exclude;
            if (state->request.exclude_query) exclude.push_back(queries[j]);
            response.topk.push_back(
                core::TopKOfColumn(scores, static_cast<Index>(j),
                                   state->request.top_k, exclude));
          }
        }
        response.scores = std::move(scores);
        response.status = Status::OK();
      }
      FinishLocked(state.get(), std::move(response));
      released_bytes += state->admission_bytes;
    }
    // Close the grace-period window: the batch no longer holds the snapshot
    // and all its cache inserts are done.
    batch_epoch_.fetch_add(1, std::memory_order_acq_rel);
    {
      std::lock_guard<std::mutex> lk(mu_);
      outstanding_bytes_ -= released_bytes;
    }
  }
}

}  // namespace csrplus::service
