#include "eval/runner.h"

#include "common/memory.h"
#include "common/timer.h"

namespace csrplus::eval {
namespace {

// Runs `fn` and fills `metrics` with its wall time and the allocation peak
// above the level at entry.
template <typename Fn>
auto Measure(PhaseMetrics* metrics, Fn&& fn) {
  const int64_t base = GetTrackedMemory().current_bytes;
  ResetPeakTrackedBytes();
  WallTimer timer;
  auto result = fn();
  metrics->seconds = timer.ElapsedSeconds();
  metrics->peak_bytes =
      std::max<int64_t>(0, GetTrackedMemory().peak_bytes - base);
  return result;
}

}  // namespace

const std::vector<EngineKind>& PaperMethods() {
  static const std::vector<EngineKind> kMethods = {
      EngineKind::kCsrPlus, EngineKind::kCsrRls, EngineKind::kCsrIt,
      EngineKind::kCsrNi};
  return kMethods;
}

RunOutcome RunMethod(EngineKind kind, const CsrMatrix& transition,
                     const std::vector<Index>& queries,
                     const RunConfig& config) {
  RunOutcome outcome;
  auto engine = Measure(&outcome.precompute, [&] {
    return service::BuildEngine(kind, transition, config);
  });
  if (!engine.ok()) {
    outcome.status = engine.status();
    return outcome;
  }
  auto scores = Measure(&outcome.query,
                        [&] { return (*engine)->MultiSourceQuery(queries); });
  if (!scores.ok()) {
    outcome.status = scores.status();
    return outcome;
  }
  if (config.keep_scores) outcome.scores = std::move(*scores);
  outcome.status = Status::OK();
  return outcome;
}

std::string OutcomeLabel(const RunOutcome& outcome) {
  if (outcome.status.ok()) return "OK";
  if (outcome.status.IsResourceExhausted()) return "FAIL(mem)";
  return "FAIL(" + std::string(StatusCodeToString(outcome.status.code())) + ")";
}

}  // namespace csrplus::eval
