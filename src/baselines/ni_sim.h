// CSR-NI — the low-rank SVD baseline of Li et al. (EDBT 2010), i.e. the
// method CSR+ optimises (Section 3.1 of the paper lists its deficiencies).
//
// Precompute (Eq. 6b):  Lambda = ((Sigma (x) Sigma)^{-1}
//                                  - c (V (x) V)^T (U (x) U))^{-1}
// Query      (Eq. 6a):  vec(S) = vec(I_n)
//                                  + c (U (x) U) Lambda (V (x) V)^T vec(I_n)
//
// Two fidelity modes:
//  * kFaithful — executes the published arithmetic: materialises the
//    (V (x) V) and (U (x) U) tensor factors as n^2 x r^2 dense matrices
//    (budget-guarded — the O(r^2 n^2) footprint the paper attacks) and
//    contracts them in O(r^4 n^2) time. ResourceExhausted on graphs where
//    the paper also reports NI failing.
//  * kMixedProduct — same algorithm structure (Lambda inversion, Eq. 6a
//    query), but the Gram tensor is computed via the Theorem 3.1 identity
//    Theta (x) Theta. Used to validate losslessness at ranks where the
//    faithful mode is prohibitively slow; results are identical.

#ifndef CSRPLUS_BASELINES_NI_SIM_H_
#define CSRPLUS_BASELINES_NI_SIM_H_

#include <vector>

#include "common/status.h"
#include "core/query_engine.h"
#include "linalg/dense_matrix.h"
#include "linalg/sparse_matrix.h"
#include "svd/truncated_svd.h"

namespace csrplus::baselines {

using linalg::CsrMatrix;
using linalg::DenseMatrix;
using linalg::Index;

/// How the (V (x) V)^T (U (x) U) Gram tensor is evaluated.
enum class NiFidelity { kFaithful, kMixedProduct };

/// Parameters of the NI baseline.
struct NiSimOptions {
  Index rank = 5;
  double damping = 0.6;
  NiFidelity fidelity = NiFidelity::kFaithful;
  svd::SvdOptions svd;  ///< rank is overridden by `rank`.
};

/// Precomputed Lambda plus the SVD factors needed by the query phase.
class NiSimEngine : public core::QueryEngine {
 public:
  /// Runs the SVD and the Eq.(6b) precomputation.
  static Result<NiSimEngine> Precompute(const CsrMatrix& transition,
                                        const NiSimOptions& options);

  /// Precomputes from existing SVD factors (so tests can feed CSR+ and NI
  /// the identical U, Sigma, V and assert bit-equality of S). The factors
  /// must decompose Q^T — the paper's convention; Precompute() performs the
  /// swap internally (see the derivation note in csrplus_engine.cc).
  static Result<NiSimEngine> PrecomputeFromFactors(
      const svd::TruncatedSvd& factors, const NiSimOptions& options);

  /// Multi-source query via Eq.(6a): n x |Q| block of S.
  Result<DenseMatrix> MultiSourceQuery(
      const std::vector<Index>& queries) const override;

  Index num_nodes() const { return u_.rows(); }
  Index rank() const { return u_.cols(); }

  Index NumNodes() const override { return num_nodes(); }
  std::string_view Name() const override { return "CSR-NI"; }

  /// Lambda (r^2 x r^2), exposed for the Theorem 3.3/3.4 equivalence tests.
  const DenseMatrix& lambda() const { return lambda_; }

 private:
  NiSimEngine() = default;

  DenseMatrix u_;       // n x r
  DenseMatrix v_;       // n x r
  std::vector<double> sigma_;
  DenseMatrix lambda_;  // r^2 x r^2
  double damping_ = 0.6;
};

}  // namespace csrplus::baselines

#endif  // CSRPLUS_BASELINES_NI_SIM_H_
