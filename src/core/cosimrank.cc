#include "core/cosimrank.h"

#include <cmath>

#include "common/memory.h"
#include "linalg/dense_ops.h"

namespace csrplus::core {

int ResolveIterations(const CoSimRankOptions& options) {
  if (options.iterations > 0) return options.iterations;
  // Smallest K with c^K <= epsilon.
  const double k = std::log(options.epsilon) / std::log(options.damping);
  return std::max(1, static_cast<int>(std::ceil(k)));
}

Status ValidateOptions(const CoSimRankOptions& options) {
  if (options.damping <= 0.0 || options.damping >= 1.0) {
    return Status::InvalidArgument("damping factor must be in (0, 1)");
  }
  if (options.iterations <= 0 &&
      (options.epsilon <= 0.0 || options.epsilon >= 1.0)) {
    return Status::InvalidArgument("epsilon must be in (0, 1)");
  }
  return Status::OK();
}

namespace {

Status ValidateQuery(const CsrMatrix& transition, Index query) {
  if (query < 0 || query >= transition.rows()) {
    return Status::InvalidArgument("query node " + std::to_string(query) +
                                   " out of range");
  }
  return Status::OK();
}

// Shared implementation of the forward-store / Horner-backward scheme for
// one query; writes the result through `out` (length n).
void SingleSourceInto(const CsrMatrix& q_matrix, Index query, double damping,
                      int num_iterations,
                      std::vector<std::vector<double>>* forward_buffers,
                      double* out) {
  const Index n = q_matrix.rows();
  auto& v = *forward_buffers;  // v[k] = Q^k e_query
  v.resize(static_cast<std::size_t>(num_iterations) + 1);

  v[0].assign(static_cast<std::size_t>(n), 0.0);
  v[0][static_cast<std::size_t>(query)] = 1.0;
  for (int k = 1; k <= num_iterations; ++k) {
    v[static_cast<std::size_t>(k)] = q_matrix.Multiply(v[static_cast<std::size_t>(k - 1)]);
  }

  // Horner backward: u = v_K; u = v_k + c Q^T u.
  std::vector<double> u = v[static_cast<std::size_t>(num_iterations)];
  for (int k = num_iterations - 1; k >= 0; --k) {
    std::vector<double> t = q_matrix.MultiplyTranspose(u);
    const auto& vk = v[static_cast<std::size_t>(k)];
    for (Index i = 0; i < n; ++i) {
      u[static_cast<std::size_t>(i)] =
          vk[static_cast<std::size_t>(i)] + damping * t[static_cast<std::size_t>(i)];
    }
  }
  for (Index i = 0; i < n; ++i) out[static_cast<std::size_t>(i)] = u[static_cast<std::size_t>(i)];
}

}  // namespace

Result<DenseMatrix> ReferenceEngine::MultiSourceQuery(
    const std::vector<Index>& queries) const {
  CSR_RETURN_IF_ERROR(ValidateOptions(options_));
  const Index n = transition_->rows();
  CSR_RETURN_IF_ERROR(ValidateQueries(queries, n));

  const int64_t out_bytes =
      n * static_cast<int64_t>(queries.size()) * sizeof(double);
  CSR_RETURN_IF_ERROR(
      MemoryBudget::Global().TryReserve(out_bytes, "multi-source output"));

  const int iters = ResolveIterations(options_);
  DenseMatrix out(n, static_cast<Index>(queries.size()));
  std::vector<std::vector<double>> buffers;
  std::vector<double> column(static_cast<std::size_t>(n));
  for (std::size_t j = 0; j < queries.size(); ++j) {
    SingleSourceInto(*transition_, queries[j], options_.damping, iters,
                     &buffers, column.data());
    out.SetColumn(static_cast<Index>(j), column);
  }
  return out;
}

Result<double> SinglePairCoSimRank(const CsrMatrix& transition, Index a,
                                   Index b, const CoSimRankOptions& options) {
  CSR_RETURN_IF_ERROR(ValidateOptions(options));
  CSR_RETURN_IF_ERROR(ValidateQuery(transition, a));
  CSR_RETURN_IF_ERROR(ValidateQuery(transition, b));
  const int iters = ResolveIterations(options);
  const Index n = transition.rows();

  std::vector<double> pa(static_cast<std::size_t>(n), 0.0);
  std::vector<double> pb(static_cast<std::size_t>(n), 0.0);
  pa[static_cast<std::size_t>(a)] = 1.0;
  pb[static_cast<std::size_t>(b)] = 1.0;

  double score = 0.0;
  double ck = 1.0;
  for (int k = 0;; ++k) {
    double dot = 0.0;
    for (Index i = 0; i < n; ++i) {
      dot += pa[static_cast<std::size_t>(i)] * pb[static_cast<std::size_t>(i)];
    }
    score += ck * dot;
    if (k == iters) break;
    pa = transition.Multiply(pa);
    pb = transition.Multiply(pb);
    ck *= options.damping;
  }
  return score;
}

Result<DenseMatrix> AllPairsCoSimRank(const CsrMatrix& transition,
                                      const CoSimRankOptions& options) {
  CSR_RETURN_IF_ERROR(ValidateOptions(options));
  const Index n = transition.rows();
  const int64_t bytes = 2 * n * n * static_cast<int64_t>(sizeof(double));
  CSR_RETURN_IF_ERROR(
      MemoryBudget::Global().TryReserve(bytes, "all-pairs CoSimRank"));

  const int iters = ResolveIterations(options);
  DenseMatrix s = DenseMatrix::Identity(n);
  for (int k = 0; k < iters; ++k) {
    // S <- c Q^T S Q + I, realised as two sparse-times-dense products.
    DenseMatrix sq = transition.MultiplyTransposeDense(s.Transposed());
    // sq = Q^T S^T = (S Q)^T; next: Q^T (S Q) = Q^T sq^T.
    DenseMatrix next = transition.MultiplyTransposeDense(sq.Transposed());
    linalg::ScaleInPlace(options.damping, &next);
    for (Index i = 0; i < n; ++i) next(i, i) += 1.0;
    s = std::move(next);
  }
  return s;
}

}  // namespace csrplus::core
