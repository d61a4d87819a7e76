// RP-CoSim (Renchi Yang, 2020) — randomized CoSimRank estimation via
// Gaussian random projections (Table 1 row 5; an extension baseline here).
//
// Uses E[G G^T / d] = I_n for a Gaussian sketch G (n x d):
//     S = sum_k c^k (Q^k)^T (Q^k)
//       ~ sum_k c^k W_k W_k^T / d,   W_k = (Q^k)^T G = Q^T W_{k-1}.
// The multi-source block needs only W_k and its query rows, so memory is
// O(n d) — but the estimate carries Monte-Carlo variance ~ 1/sqrt(d),
// unlike the deterministic rank-r truncation of CSR+. The ablation bench
// compares the two accuracy/time trade-offs directly.

#ifndef CSRPLUS_BASELINES_RP_COSIM_H_
#define CSRPLUS_BASELINES_RP_COSIM_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/query_engine.h"
#include "linalg/dense_matrix.h"
#include "linalg/sparse_matrix.h"

namespace csrplus::baselines {

using linalg::CsrMatrix;
using linalg::DenseMatrix;
using linalg::Index;

/// Parameters of RP-CoSim.
struct RpCoSimOptions {
  double damping = 0.6;
  /// Series length K.
  int iterations = 5;
  /// Number of Gaussian samples d (variance ~ 1/sqrt(d)).
  Index num_samples = 200;
  uint64_t seed = 0x52504353ULL;
};

/// Validates an RpCoSimOptions instance (damping in (0,1), iterations and
/// num_samples >= 1).
Status ValidateRpCoSimOptions(const RpCoSimOptions& options);

/// A-priori per-entry error bound of the estimator: the Monte-Carlo
/// standard deviation of one score entry is at most sum_{k=1..K} c^k /
/// sqrt(d) = c (1 - c^K) / ((1 - c) sqrt(d)). This is the bound the
/// engine's AccuracyTag advertises; tests check measured average error
/// against it on the accuracy-bench fixtures.
double RpCoSimErrorBound(const RpCoSimOptions& options);

/// Multi-source estimate of [S]_{*,Q} (n x |Q|).
Result<DenseMatrix> RpCoSimMultiSource(const CsrMatrix& transition,
                                       const std::vector<Index>& queries,
                                       const RpCoSimOptions& options);

/// QueryEngine adapter over the estimator. Holds a pointer to the
/// transition matrix (which must outlive it). Two serving modes:
///
///  * Lazy (default, the historical paper-table mode): every query call
///    regenerates the Gaussian sketch and re-runs the K sparse
///    propagations. Zero resident state, maximal per-query cost.
///  * Hardened (after PrecomputeSketch()): the propagated sketches
///    W_1..W_K are materialised once, so a query runs only the dense
///    query-side GEMMs — the mode the serving tiers use. Bit-identical to
///    the lazy mode (same Rng stream, same floating-point operation order).
///
/// The fixed seed makes the estimator a deterministic function of
/// (transition, options), so the engine advertises a non-zero
/// StateFingerprint and its columns are cacheable in either mode.
class RpCosimEngine : public core::QueryEngine {
 public:
  RpCosimEngine(const CsrMatrix* transition, RpCoSimOptions options);

  /// Materialises W_1..W_K (budget-charged: K n d doubles resident plus an
  /// n x d transient). Idempotent; invalid options surface here as
  /// kInvalidArgument instead of per-query.
  Status PrecomputeSketch();

  /// True once PrecomputeSketch() has succeeded.
  bool sketch_ready() const { return !sketch_.empty(); }

  Result<DenseMatrix> MultiSourceQuery(
      const std::vector<Index>& queries) const override;
  Index NumNodes() const override { return transition_->rows(); }
  std::string_view Name() const override { return "RP-CoSim"; }

  /// Non-zero identity over (transition content, damping, iterations,
  /// samples, seed). The estimator is deterministic given the seed and the
  /// lazy/hardened modes answer bit-identically, so equal fingerprints mean
  /// interchangeable columns (the column-cache contract).
  uint64_t StateFingerprint() const override;

  /// K dense rank-d products per query column: n (K d + 1) fused
  /// multiply-adds. In lazy mode the batch additionally pays the sketch
  /// build (Gaussian fill + K sparse propagations), amortised to zero by
  /// PrecomputeSketch — the hardened engine is what the cost model prices.
  core::CostModel EstimateCost(Index batch_queries) const override;

  /// Approximate, with the RpCoSimErrorBound per-entry bound.
  core::AccuracyTag Accuracy() const override {
    return core::AccuracyTag{core::AccuracyClass::kApproximate,
                             RpCoSimErrorBound(options_)};
  }

  const RpCoSimOptions& options() const { return options_; }

 private:
  const CsrMatrix* transition_;  // not owned
  RpCoSimOptions options_;
  uint64_t graph_hash_ = 0;      // content hash of *transition_
  int64_t graph_nnz_ = 0;
  std::vector<DenseMatrix> sketch_;  // W_1..W_K once hardened
};

}  // namespace csrplus::baselines

#endif  // CSRPLUS_BASELINES_RP_COSIM_H_
