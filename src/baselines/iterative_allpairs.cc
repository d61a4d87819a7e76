#include "baselines/iterative_allpairs.h"

#include "common/memory.h"
#include "linalg/dense_ops.h"
#include "obs/trace.h"

namespace csrplus::baselines {

Result<IterativeAllPairsEngine> IterativeAllPairsEngine::Precompute(
    const CsrMatrix& transition, const IterativeOptions& options) {
  CSRPLUS_OBS_COUNTER_ADD("csrplus.baseline.iterative.precomputes", "calls",
                          "CSR-IT dense-iteration precompute invocations", 1);
  CSRPLUS_OBS_SCOPED_US("csrplus.baseline.iterative.precompute_us",
                        "CSR-IT dense-iteration precompute wall time");
  CSRPLUS_TRACE_SPAN_ARG(span, obs::spans::kBaseline, "n", transition.rows());
  if (options.damping <= 0.0 || options.damping >= 1.0) {
    return Status::InvalidArgument("damping factor must be in (0, 1)");
  }
  if (options.iterations < 1) {
    return Status::InvalidArgument("iterations must be >= 1");
  }
  const Index n = transition.rows();
  // Two dense n x n live at once (S and the product buffer).
  CSR_RETURN_IF_ERROR(MemoryBudget::Global().TryReserve(
      2 * n * n * static_cast<int64_t>(sizeof(double)),
      "CSR-IT dense similarity iteration"));

  // Two reused n x n buffers: allocations here are multi-GB on medium
  // graphs, so per-iteration reallocation would dominate wall time on
  // machines with slow page faulting.
  IterativeAllPairsEngine engine;
  DenseMatrix s = DenseMatrix::Identity(n);
  DenseMatrix work(n, n);
  for (int k = 0; k < options.iterations; ++k) {
    // S <- c Q^T S Q + I. S stays symmetric, so Q^T S Q = Q^T (Q^T S)^T.
    transition.MultiplyTransposeDenseInto(s, &work);  // work = Q^T S
    work.TransposeInPlaceSquare();                    // work = S Q
    transition.MultiplyTransposeDenseInto(work, &s);  // s = Q^T S Q
    linalg::ScaleInPlace(options.damping, &s);
    for (Index i = 0; i < n; ++i) s(i, i) += 1.0;
  }
  engine.s_ = std::move(s);
  return engine;
}

Result<DenseMatrix> IterativeAllPairsEngine::MultiSourceQuery(
    const std::vector<Index>& queries) const {
  const Index n = s_.rows();
  CSR_RETURN_IF_ERROR(core::ValidateQueries(queries, n));
  DenseMatrix out(n, static_cast<Index>(queries.size()));
  for (std::size_t j = 0; j < queries.size(); ++j) {
    const Index q = queries[j];
    for (Index i = 0; i < n; ++i) out(i, static_cast<Index>(j)) = s_(i, q);
  }
  return out;
}

}  // namespace csrplus::baselines
