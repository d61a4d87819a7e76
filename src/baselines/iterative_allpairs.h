// CSR-IT — the iterative CoSimRank baseline (Rothe & Schütze [6]) as the
// paper benchmarks it for multi-source search.
//
// Iterates the fixed point over the full dense similarity matrix:
//     S_0 = I_n,   S_{k+1} = c Q^T S_k Q + I_n,
// then answers any query set by selecting columns. Two properties the
// paper observes follow directly: its runtime is independent of |Q|
// ("orthogonal to |Q|", Fig. 5) and its O(n^2) memory makes it the first
// rival to fail as graphs grow (Figs. 5/6/8/9). Budget-guarded so the
// failure is a ResourceExhausted status, not an OOM kill.

#ifndef CSRPLUS_BASELINES_ITERATIVE_ALLPAIRS_H_
#define CSRPLUS_BASELINES_ITERATIVE_ALLPAIRS_H_

#include <vector>

#include "common/status.h"
#include "core/query_engine.h"
#include "linalg/dense_matrix.h"
#include "linalg/sparse_matrix.h"

namespace csrplus::baselines {

using linalg::CsrMatrix;
using linalg::DenseMatrix;
using linalg::Index;

/// Parameters of the iterative baseline.
struct IterativeOptions {
  double damping = 0.6;
  /// Number of fixed-point iterations k (the paper sets k = r for fairness).
  int iterations = 5;
};

/// All-pairs iterative engine.
class IterativeAllPairsEngine : public core::QueryEngine {
 public:
  /// Runs the k dense iterations (the "precompute"; everything happens here).
  static Result<IterativeAllPairsEngine> Precompute(
      const CsrMatrix& transition, const IterativeOptions& options);

  /// Selects the columns of the precomputed S for the query set.
  Result<DenseMatrix> MultiSourceQuery(
      const std::vector<Index>& queries) const override;

  /// The full similarity matrix.
  const DenseMatrix& similarity() const { return s_; }

  Index NumNodes() const override { return s_.rows(); }
  std::string_view Name() const override { return "CSR-IT"; }

 private:
  IterativeAllPairsEngine() = default;
  DenseMatrix s_;
};

}  // namespace csrplus::baselines

#endif  // CSRPLUS_BASELINES_ITERATIVE_ALLPAIRS_H_
