// CSR-RLS — Kusumoto et al.'s (SIGMOD 2014) linearized single-source scheme
// applied query-by-query to CoSimRank, the way the paper benchmarks it.
//
// For the batch of queries E_Q (n x |Q| indicator columns), a forward pass
// stores V_k = Q^k E_Q for k = 0..K, then a Horner backward pass accumulates
//     [S]_{*,Q} = sum_k c^k (Q^T)^k V_k = U_0,
//     U_K = V_K,  U_k = V_k + c Q^T U_{k+1}.
//
// Nothing is shared across queries (each column repeats the same sparse
// products — the duplicate work of the paper's Example 1.1), so time grows
// linearly with |Q| (Fig. 5) and the stored forward iterates cost
// O(K n |Q|) memory, which is what makes CSR-RLS the last rival standing
// before CSR+ on medium graphs and a casualty on large ones (Figs. 6/8/9).

#ifndef CSRPLUS_BASELINES_RLS_H_
#define CSRPLUS_BASELINES_RLS_H_

#include <vector>

#include "common/status.h"
#include "core/query_engine.h"
#include "linalg/dense_matrix.h"
#include "linalg/sparse_matrix.h"

namespace csrplus::baselines {

using linalg::CsrMatrix;
using linalg::DenseMatrix;
using linalg::Index;

/// Parameters of the RLS baseline.
struct RlsOptions {
  double damping = 0.6;
  /// Series length K (the paper sets K = r for fairness).
  int iterations = 5;
};

/// One-shot multi-source evaluation (no reusable precomputed state — that is
/// the point of this baseline).
Result<DenseMatrix> RlsMultiSource(const CsrMatrix& transition,
                                   const std::vector<Index>& queries,
                                   const RlsOptions& options);

/// QueryEngine adapter. CSR-RLS keeps no precomputed state, so the engine
/// only holds a pointer to the transition matrix (which must outlive it)
/// and re-runs the forward/backward passes per query call.
class RlsEngine : public core::QueryEngine {
 public:
  RlsEngine(const CsrMatrix* transition, RlsOptions options)
      : transition_(transition), options_(options) {}

  Result<DenseMatrix> MultiSourceQuery(
      const std::vector<Index>& queries) const override {
    return RlsMultiSource(*transition_, queries, options_);
  }
  Index NumNodes() const override { return transition_->rows(); }
  std::string_view Name() const override { return "CSR-RLS"; }

 private:
  const CsrMatrix* transition_;  // not owned
  RlsOptions options_;
};

}  // namespace csrplus::baselines

#endif  // CSRPLUS_BASELINES_RLS_H_
