// CoSimMate (Yu & McCann 2015) — repeated squaring over the full similarity
// matrix (Table 1 row 4 of the paper; an extension baseline here).
//
// Doubles the number of accumulated series terms per step in n-space:
//     S_0 = I,  T_0 = Q,
//     S_{t+1} = S_t + c^{2^t} T_t^T S_t T_t,   T_{t+1} = T_t^2,
// reaching 2^t terms after t steps — exponentially fewer iterations than
// CSR-IT for the same accuracy, but T_t densifies, so both time O(n^3) and
// memory O(n^2) confine it to small graphs (exactly the Table 1 trade-off;
// CSR+ runs the same doubling recurrence in the r x r subspace instead,
// which is Theorem 3.4).

#ifndef CSRPLUS_BASELINES_COSIMMATE_H_
#define CSRPLUS_BASELINES_COSIMMATE_H_

#include <vector>

#include "common/status.h"
#include "core/query_engine.h"
#include "linalg/dense_matrix.h"
#include "linalg/sparse_matrix.h"

namespace csrplus::baselines {

using linalg::CsrMatrix;
using linalg::DenseMatrix;
using linalg::Index;

/// Parameters of CoSimMate.
struct CoSimMateOptions {
  double damping = 0.6;
  /// Squaring steps t; accuracy after t steps matches 2^t iterations of
  /// CSR-IT. Three steps == 8 series terms.
  int squaring_steps = 3;
};

/// Runs the doubling recurrence; returns the full S (budget-guarded).
Result<DenseMatrix> CoSimMateAllPairs(const CsrMatrix& transition,
                                      const CoSimMateOptions& options);

/// Convenience multi-source wrapper (computes all pairs, selects columns).
Result<DenseMatrix> CoSimMateMultiSource(const CsrMatrix& transition,
                                         const std::vector<Index>& queries,
                                         const CoSimMateOptions& options);

/// QueryEngine adapter. Runs the doubling recurrence once at Precompute and
/// answers queries by selecting columns of the stored S (O(n^2) memory, so
/// small graphs only — the same Table 1 trade-off as the free functions).
class CoSimMateEngine : public core::QueryEngine {
 public:
  static Result<CoSimMateEngine> Precompute(const CsrMatrix& transition,
                                            const CoSimMateOptions& options);

  Result<DenseMatrix> MultiSourceQuery(
      const std::vector<Index>& queries) const override;
  Index NumNodes() const override { return s_.rows(); }
  std::string_view Name() const override { return "CoSimMate"; }

 private:
  CoSimMateEngine() = default;
  DenseMatrix s_;
};

}  // namespace csrplus::baselines

#endif  // CSRPLUS_BASELINES_COSIMMATE_H_
