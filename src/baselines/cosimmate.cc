#include "baselines/cosimmate.h"

#include "common/memory.h"
#include "linalg/dense_ops.h"
#include "obs/trace.h"

namespace csrplus::baselines {

Result<DenseMatrix> CoSimMateAllPairs(const CsrMatrix& transition,
                                      const CoSimMateOptions& options) {
  CSRPLUS_OBS_COUNTER_ADD("csrplus.baseline.cosimmate.all_pairs", "calls",
                          "CoSimMate all-pairs invocations", 1);
  CSRPLUS_OBS_SCOPED_US("csrplus.baseline.cosimmate.all_pairs_us",
                        "CoSimMate all-pairs wall time");
  CSRPLUS_TRACE_SPAN_ARG(span, obs::spans::kBaseline, "n", transition.rows());
  if (options.damping <= 0.0 || options.damping >= 1.0) {
    return Status::InvalidArgument("damping factor must be in (0, 1)");
  }
  if (options.squaring_steps < 1) {
    return Status::InvalidArgument("squaring_steps must be >= 1");
  }
  const Index n = transition.rows();
  // S, T and a product buffer — three dense n x n alive at the peak.
  CSR_RETURN_IF_ERROR(MemoryBudget::Global().TryReserve(
      3 * n * n * static_cast<int64_t>(sizeof(double)),
      "CoSimMate squared iterates"));

  DenseMatrix s = DenseMatrix::Identity(n);
  DenseMatrix t = transition.ToDense();
  double c_pow = options.damping;  // c^{2^t} for t = 0.
  for (int step = 0; step < options.squaring_steps; ++step) {
    // S <- S + c^{2^t} T^T S T.
    DenseMatrix ts = linalg::Gemm(t, s, linalg::Transpose::kYes,
                                  linalg::Transpose::kNo);  // T^T S
    DenseMatrix tst = linalg::Gemm(ts, t);                  // T^T S T
    linalg::AddScaled(c_pow, tst, &s);
    if (step + 1 < options.squaring_steps) {
      t = linalg::Gemm(t, t);  // T <- T^2 (densifies)
      c_pow *= c_pow;
    }
  }
  return s;
}

Result<DenseMatrix> CoSimMateMultiSource(const CsrMatrix& transition,
                                         const std::vector<Index>& queries,
                                         const CoSimMateOptions& options) {
  CSRPLUS_OBS_COUNTER_ADD("csrplus.baseline.cosimmate.queries", "calls",
                          "CoSimMate multi-source query invocations", 1);
  if (queries.empty()) {
    return Status::InvalidArgument("query set is empty");
  }
  CSR_ASSIGN_OR_RETURN(DenseMatrix s, CoSimMateAllPairs(transition, options));
  const Index n = s.rows();
  CSR_RETURN_IF_ERROR(core::ValidateQueries(queries, n));
  DenseMatrix out(n, static_cast<Index>(queries.size()));
  for (std::size_t j = 0; j < queries.size(); ++j) {
    const Index q = queries[j];
    for (Index i = 0; i < n; ++i) out(i, static_cast<Index>(j)) = s(i, q);
  }
  return out;
}

Result<CoSimMateEngine> CoSimMateEngine::Precompute(
    const CsrMatrix& transition, const CoSimMateOptions& options) {
  CoSimMateEngine engine;
  CSR_ASSIGN_OR_RETURN(engine.s_, CoSimMateAllPairs(transition, options));
  return engine;
}

Result<DenseMatrix> CoSimMateEngine::MultiSourceQuery(
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
