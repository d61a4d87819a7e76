// Reference CoSimRank computation (Rothe & Schütze, ACL 2014).
//
// CoSimRank is defined by S = c Q^T S Q + I_n (Eq. 1 of the paper) or,
// equivalently, [S]_{a,b} = sum_k c^k <p_a^{(k)}, p_b^{(k)}> over the
// iterated PPR vectors p^{(k+1)} = Q p^{(k)} (Eq. 3). This module provides
// exact (to a chosen truncation ε) evaluations used as ground truth for the
// accuracy experiments (Table 3) and as the correctness oracle in tests.
//
// The per-query single-source scheme runs in O(K m) time and O(K n) memory
// per query via a forward pass storing v_k = Q^k e_q followed by a Horner
// backward pass with Q^T:
//     s = sum_{k=0..K} c^k (Q^T)^k v_k = u_0,
//     u_K = v_K,  u_k = v_k + c Q^T u_{k+1}.

#ifndef CSRPLUS_CORE_COSIMRANK_H_
#define CSRPLUS_CORE_COSIMRANK_H_

#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/query_engine.h"
#include "graph/graph.h"
#include "linalg/dense_matrix.h"
#include "linalg/sparse_matrix.h"

namespace csrplus::core {

using linalg::CsrMatrix;
using linalg::DenseMatrix;
using linalg::Index;

/// Options shared by the reference evaluations.
struct CoSimRankOptions {
  /// Damping factor c in (0, 1); the paper uses 0.6 by default.
  double damping = 0.6;
  /// Truncation accuracy: the series is cut once c^k < epsilon.
  double epsilon = 1e-10;
  /// Explicit iteration override; when > 0 it wins over epsilon. The paper's
  /// experiments set k equal to the low rank r for CSR-IT / CSR-RLS.
  int iterations = 0;
};

/// Number of terms K implied by `options` (c^K <= epsilon, or the override).
int ResolveIterations(const CoSimRankOptions& options);

/// Validates damping/epsilon ranges.
Status ValidateOptions(const CoSimRankOptions& options);

/// The exact reference evaluation behind the shared QueryEngine interface.
///
/// Computes [S]_{*,Q} query-by-query with the per-query forward/Horner
/// scheme (duplicate work across queries — exactly the inefficiency the
/// paper's Example 1.1 describes; CSR+ is the fix). Memory stays at O(K n)
/// regardless of |Q| plus the output block. Keeps no precomputed state:
/// `transition` is borrowed, not owned, and must outlive the engine (same
/// lifetime contract as the RLS baseline).
class ReferenceEngine final : public QueryEngine {
 public:
  ReferenceEngine(const CsrMatrix* transition, const CoSimRankOptions& options)
      : transition_(transition), options_(options) {}

  Result<DenseMatrix> MultiSourceQuery(
      const std::vector<Index>& queries) const override;
  Index NumNodes() const override { return transition_->rows(); }
  std::string_view Name() const override { return "CoSimRank-exact"; }

 private:
  const CsrMatrix* transition_;
  CoSimRankOptions options_;
};

/// Single-pair score [S]_{a,b} without materialising any column: runs the
/// forward iterations for a and b simultaneously and accumulates
/// sum_k c^k <p_a, p_b>. O(K m) time, O(n) memory.
Result<double> SinglePairCoSimRank(const CsrMatrix& transition, Index a,
                                   Index b, const CoSimRankOptions& options);

/// Dense all-pairs S via the fixed-point iteration S <- c Q^T S Q + I.
/// O(n^2) memory — intended for tests on small graphs; budget-guarded.
Result<DenseMatrix> AllPairsCoSimRank(const CsrMatrix& transition,
                                      const CoSimRankOptions& options);

}  // namespace csrplus::core

#endif  // CSRPLUS_CORE_COSIMRANK_H_
