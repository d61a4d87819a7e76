// Lightweight scoped-span phase tracer.
//
// A TraceSpan records a named phase (normalize, svd, repeated_squaring,
// z_memoise, query, artifact_load, ...) into a per-thread ring buffer:
// construction takes a timestamp, destruction appends one complete event
// (name, start, duration, thread, nesting depth, args). Recording never
// takes a lock — buffers are thread-local and registered with the tracer
// once per thread; parent/child nesting is a thread-local depth counter.
//
// Tracing is off by default (spans are two relaxed loads and a branch);
// enable it with SetTracingEnabled(true), the --trace-out CLI flag, or
// CSRPLUS_STATS=trace. Each thread buffers the most recent kRingCapacity
// events (older ones are overwritten; the drop count is reported).
//
// DumpTraceJson() emits the Chrome trace event format — load the file at
// chrome://tracing or https://ui.perfetto.dev. Schema documented in
// docs/observability.md ("Trace dump schema").

#ifndef CSRPLUS_OBS_TRACE_H_
#define CSRPLUS_OBS_TRACE_H_

#include <cstdint>
#include <string>

#include "obs/stats.h"

namespace csrplus::obs {

/// The span taxonomy. Instrumentation must use these constants (or document
/// any addition in docs/observability.md — the taxonomy is part of the ops
/// surface, and tests diff it against the doc).
namespace spans {
inline constexpr const char kGraphLoad[] = "graph_load";
inline constexpr const char kNormalize[] = "normalize";
inline constexpr const char kFingerprint[] = "fingerprint";
inline constexpr const char kSvd[] = "svd";
inline constexpr const char kPrecompute[] = "precompute";
inline constexpr const char kRepeatedSquaring[] = "repeated_squaring";
inline constexpr const char kZMemoise[] = "z_memoise";
inline constexpr const char kQuery[] = "query";
inline constexpr const char kArtifactLoad[] = "artifact_load";
inline constexpr const char kArtifactSave[] = "artifact_save";
inline constexpr const char kPoolRegion[] = "pool_region";
inline constexpr const char kBaseline[] = "baseline";
inline constexpr const char kServiceBatch[] = "service_batch";
inline constexpr const char kServiceRequest[] = "service_request";
inline constexpr const char kCacheLookup[] = "cache_lookup";
inline constexpr const char kCacheInsert[] = "cache_insert";
inline constexpr const char kNetRead[] = "net_read";
inline constexpr const char kNetDispatch[] = "net_dispatch";
inline constexpr const char kNetWrite[] = "net_write";
inline constexpr const char kTierRoute[] = "tier_route";
}  // namespace spans

/// True when span recording is on.
bool TracingEnabled();
void SetTracingEnabled(bool enabled);

/// One completed span. Names and arg keys must be string literals (the
/// event stores the pointer, not a copy).
struct TraceEvent {
  static constexpr int kMaxArgs = 2;
  const char* name = nullptr;
  const char* arg_key[kMaxArgs] = {nullptr, nullptr};
  int64_t arg_value[kMaxArgs] = {0, 0};
  uint64_t start_us = 0;  ///< µs since the observability epoch
  uint64_t dur_us = 0;
  int64_t mem_delta_bytes = 0;  ///< tracked-alloc delta over the span (0 if
                                ///< the memory hooks are not linked)
  int32_t tid = 0;   ///< dense per-buffer thread id, assigned at registration
  int32_t depth = 0; ///< nesting depth at span start (0 = top level)
};

/// RAII span. Cheap no-op when tracing is disabled.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  ~TraceSpan();

  /// Attaches a small integer annotation (rank, n, |Q|, bytes...). At most
  /// TraceEvent::kMaxArgs per span; extras are dropped. `key` must be a
  /// string literal.
  void AddArg(const char* key, int64_t value);

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceEvent event_;  // staged; appended to the ring on destruction
  int64_t mem_start_bytes_ = 0;
  bool active_ = false;
};

/// Per-thread ring capacity (events). Oldest events are overwritten.
inline constexpr int kRingCapacity = 4096;

/// Total events dropped to ring overwrites across all threads.
uint64_t TraceDroppedEvents();

/// Serialises every buffered span as a Chrome trace ("traceEvents" array of
/// "ph":"X" complete events, timestamps in µs since the obs epoch). Safe to
/// call any time; spans still open are simply absent. Concurrent recording
/// during a dump may miss the very latest events but is memory-safe.
std::string DumpTraceJson();

/// Discards all buffered events (buffers stay registered). For tests.
void ClearTraceBuffers();

}  // namespace csrplus::obs

// Scoped-span hooks, compiled out under CSRPLUS_OBS_DISABLED. The _ARG
// forms must not evaluate their value expressions when disabled-at-compile
// -time; keep those expressions side-effect free.
#if defined(CSRPLUS_OBS_DISABLED)
#define CSRPLUS_TRACE_SPAN(var, name)
#define CSRPLUS_TRACE_SPAN_ARG(var, name, key, value)
#define CSRPLUS_TRACE_ARG(var, key, value) \
  do {                                     \
  } while (0)
#else
#define CSRPLUS_TRACE_SPAN(var, name) ::csrplus::obs::TraceSpan var(name)
#define CSRPLUS_TRACE_SPAN_ARG(var, name, key, value) \
  ::csrplus::obs::TraceSpan var(name);                \
  var.AddArg(key, value)
#define CSRPLUS_TRACE_ARG(var, key, value) var.AddArg(key, value)
#endif

#endif  // CSRPLUS_OBS_TRACE_H_
