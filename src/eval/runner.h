// Uniform method runner: executes any engine kind on a (transition matrix,
// query set) pair and reports per-phase wall time and tracked peak memory.
// All figure/table benches are thin loops around this. Engines are built by
// service::BuildEngine (engine_registry.h), the one method-dispatch
// constructor; the runner only adds the phase measurements around it.

#ifndef CSRPLUS_EVAL_RUNNER_H_
#define CSRPLUS_EVAL_RUNNER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "linalg/dense_matrix.h"
#include "linalg/sparse_matrix.h"
#include "service/engine_registry.h"

namespace csrplus::eval {

using linalg::CsrMatrix;
using linalg::DenseMatrix;
using linalg::Index;
using service::EngineKind;

/// The paper's four benchmarked methods (Figures 2–9), in its plotting
/// order: CSR+, CSR-RLS, CSR-IT, CSR-NI.
const std::vector<EngineKind>& PaperMethods();

/// Engine construction parameters (defaults = the paper's §4.1 settings)
/// plus what the runner does with the answer.
struct RunConfig : service::EngineConfig {
  bool keep_scores = true;  ///< retain the score block in the outcome.
};

/// Wall time and tracked allocation peak of one phase.
struct PhaseMetrics {
  double seconds = 0.0;
  int64_t peak_bytes = 0;  ///< 0 when the memory hooks are not linked.
};

/// Result of one (method, dataset, config) execution.
struct RunOutcome {
  Status status;           ///< ResourceExhausted == the paper's "crash".
  PhaseMetrics precompute; ///< query-independent work (BuildEngine).
  PhaseMetrics query;      ///< multi-source query work.
  DenseMatrix scores;      ///< n x |Q| block (empty if !keep_scores or fail).

  double total_seconds() const { return precompute.seconds + query.seconds; }
  int64_t peak_bytes() const {
    return std::max(precompute.peak_bytes, query.peak_bytes);
  }
};

/// Runs `kind` end to end: service::BuildEngine is the precompute phase
/// (RLS and RP-CoSim keep no state, so theirs is near zero), then one
/// multi-source query. Never throws; failures land in `status`.
RunOutcome RunMethod(EngineKind kind, const CsrMatrix& transition,
                     const std::vector<Index>& queries,
                     const RunConfig& config);

/// "OK", "FAIL(mem)" or "FAIL(<code>)" cell text for tables.
std::string OutcomeLabel(const RunOutcome& outcome);

}  // namespace csrplus::eval

#endif  // CSRPLUS_EVAL_RUNNER_H_
