#include "core/csrplus_engine.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/memory.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "core/precompute_io.h"
#include "graph/normalize.h"
#include "linalg/dense_ops.h"
#include "linalg/kernels/kernels.h"
#include "obs/trace.h"

namespace csrplus::core {

const char* PrecisionName(Precision precision) {
  return precision == Precision::kF32 ? "f32" : "f64";
}

int RepeatedSquaringIterations(double damping, double epsilon) {
  // max{0, floor(log2 log_c eps) + 1}; note log_c eps > 0 since both are
  // in (0, 1).
  const double log_c_eps = std::log(epsilon) / std::log(damping);
  const int k = static_cast<int>(std::floor(std::log2(log_c_eps))) + 1;
  return std::max(0, k);
}

Status CsrPlusOptions::Validate() const {
  if (rank < 1) {
    return Status::InvalidArgument("rank must be >= 1");
  }
  if (damping <= 0.0 || damping >= 1.0) {
    return Status::InvalidArgument("damping factor must be in (0, 1)");
  }
  if (epsilon <= 0.0 || epsilon >= 1.0) {
    return Status::InvalidArgument("epsilon must be in (0, 1)");
  }
  if (num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0");
  }
  return Status::OK();
}

Status ValidateCsrPlusOptions(const CsrPlusOptions& options, Index num_nodes) {
  CSR_RETURN_IF_ERROR(options.Validate());
  if (options.rank > num_nodes) {
    return Status::InvalidArgument("rank " + std::to_string(options.rank) +
                                   " exceeds node count " +
                                   std::to_string(num_nodes));
  }
  return Status::OK();
}

namespace {

// Applies the per-options thread override to the shared pool (0 = keep the
// ambient CSRPLUS_NUM_THREADS / hardware default).
void ApplyThreadOptions(const CsrPlusOptions& options) {
  if (options.num_threads > 0) SetNumThreads(options.num_threads);
}

}  // namespace

Result<CsrPlusEngine> CsrPlusEngine::Precompute(const graph::Graph& g,
                                                const CsrPlusOptions& options) {
  WallTimer timer;
  const CsrMatrix transition = graph::ColumnNormalizedTransition(g);
  const double normalize_seconds = timer.ElapsedSeconds();
  CSR_ASSIGN_OR_RETURN(CsrPlusEngine engine,
                       PrecomputeFromTransition(transition, options));
  engine.stats_.normalize_seconds = normalize_seconds;
  return engine;
}

Result<CsrPlusEngine> CsrPlusEngine::PrecomputeFromTransition(
    const CsrMatrix& transition, const CsrPlusOptions& options) {
  if (transition.rows() != transition.cols()) {
    return Status::InvalidArgument("transition matrix must be square");
  }
  CSR_RETURN_IF_ERROR(ValidateCsrPlusOptions(options, transition.rows()));
  ApplyThreadOptions(options);
  CSRPLUS_TRACE_SPAN_ARG(precompute_span, obs::spans::kPrecompute, "rank",
                         options.rank);
  CSRPLUS_TRACE_ARG(precompute_span, "n", transition.rows());

  // Line 2: rank-r truncated SVD, taken of Q^T so the paper's formulas
  // apply verbatim. Deriving Eq.(6a) from Eq.(1) with the standard
  // convention Q = U Sigma V^T puts the *right* factor V in the query role
  // (S = I + c V (Sigma P Sigma) V^T with H = U^T V Sigma); the paper's "U"
  // is therefore the left factor of Q^T = V Sigma U^T. Swapping the factors
  // of SVD(Q) yields exactly SVD(Q^T), so Algorithm 1 below reads just like
  // the paper with `factors.u`/`factors.v` post-swap. The worked Example 3.6
  // (node b has in-links but no out-links, yet query b returns non-trivial
  // similarities) confirms this reading; the equivalence is covered by
  // tests/theorems_test.cc.
  WallTimer timer;
  svd::SvdOptions svd_options = options.svd;
  svd_options.rank = options.rank;
  CSR_ASSIGN_OR_RETURN(svd::TruncatedSvd factors,
                       svd::ComputeTruncatedSvd(transition, svd_options));
  std::swap(factors.u, factors.v);  // factors now decompose Q^T.
  const double svd_seconds = timer.ElapsedSeconds();

  CSR_ASSIGN_OR_RETURN(CsrPlusEngine engine,
                       PrecomputeFromPaperFactors(std::move(factors), options));
  engine.stats_.svd_seconds = svd_seconds;
  engine.fingerprint_ = FingerprintTransition(transition);
  return engine;
}

Result<CsrPlusEngine> CsrPlusEngine::PrecomputeFromPaperFactors(
    svd::TruncatedSvd factors, const CsrPlusOptions& options) {
  if (factors.rank() != options.rank) {
    return Status::InvalidArgument("factor rank does not match options.rank");
  }
  CSR_RETURN_IF_ERROR(ValidateCsrPlusOptions(options, factors.u.rows()));
  ApplyThreadOptions(options);
  // Charge the retained state (U, Sigma, V, P, Z) up front — the same
  // reservation LoadPrecompute makes, so a budget that rejects a cold start
  // rejects the matching warm start too (and vice versa).
  CSR_RETURN_IF_ERROR(MemoryBudget::Global().TryReserve(
      precompute_io::EngineStateBytes(factors.u.rows(), options.rank),
      "CSR+ precompute state"));

  CSRPLUS_OBS_COUNTER_ADD("csrplus.precompute.runs", "calls",
                          "CSR+ precomputations (Algorithm 1 lines 3-6)", 1);
  CsrPlusEngine engine;
  engine.damping_ = options.damping;
  engine.epsilon_ = options.epsilon;

  // Line 3: H_0 = V^T U Sigma in the r x r subspace.
  WallTimer timer;
  int max_k = 0;
  DenseMatrix p;
  {
    CSRPLUS_OBS_SCOPED_US(
        "csrplus.phase.squaring_us",
        "repeated squaring for the subspace fixed point P (Thm 3.4)");
    CSRPLUS_TRACE_SPAN_ARG(squaring_span, obs::spans::kRepeatedSquaring,
                           "rank", options.rank);
    DenseMatrix h = linalg::Gemm(factors.v, factors.u, linalg::Transpose::kYes,
                                 linalg::Transpose::kNo);
    for (Index i = 0; i < h.rows(); ++i) {
      double* row = h.RowPtr(i);
      for (Index j = 0; j < h.cols(); ++j) {
        row[j] *= factors.sigma[static_cast<std::size_t>(j)];
      }
    }

    // Lines 4-5: repeated squaring for P (Theorem 3.4 / prior work [12]).
    max_k = RepeatedSquaringIterations(options.damping, options.epsilon);
    p = DenseMatrix::Identity(options.rank);
    double c_pow = options.damping;  // c^{2^k} for k = 0.
    for (int k = 0; k <= max_k; ++k) {
      // P <- P + c^{2^k} H P H^T.
      DenseMatrix hp = linalg::Gemm(h, p);
      DenseMatrix hpht =
          linalg::Gemm(hp, h, linalg::Transpose::kNo, linalg::Transpose::kYes);
      linalg::AddScaled(c_pow, hpht, &p);
      // H <- H^2, c^{2^k} -> c^{2^{k+1}}.
      h = linalg::Gemm(h, h);
      c_pow *= c_pow;
    }
    CSRPLUS_TRACE_ARG(squaring_span, "iterations", max_k + 1);
  }
  engine.stats_.squaring_iterations = max_k + 1;

  // Line 6: Z = U (Sigma P Sigma), memoised for the query phase.
  DenseMatrix z;
  {
    CSRPLUS_OBS_SCOPED_US("csrplus.phase.z_memoise_us",
                          "memoising Z = U (Sigma P Sigma) (Thm 3.5)");
    CSRPLUS_TRACE_SPAN(z_span, obs::spans::kZMemoise);
    DenseMatrix sps = linalg::DiagScale(factors.sigma, p, factors.sigma);
    z = linalg::Gemm(factors.u, sps);
  }
  engine.sigma_ = std::move(factors.sigma);
  engine.SetHeapFactors(std::move(factors.u), std::move(z), std::move(p),
                        std::move(factors.v));
  engine.stats_.subspace_seconds = timer.ElapsedSeconds();
  CSRPLUS_OBS_GAUGE_SET("csrplus.engine.state_bytes", "bytes",
                        "heap bytes of the most recent engine's U + Z + P",
                        engine.stats_.state_bytes);
  if (options.precision != Precision::kF64) {
    CSR_RETURN_IF_ERROR(engine.SetServingPrecision(options.precision));
  }
  return engine;
}

void CsrPlusEngine::SetHeapFactors(DenseMatrix u, DenseMatrix z, DenseMatrix p,
                                   DenseMatrix v) {
  auto store = std::make_shared<FactorStore>();
  store->u = std::move(u);
  store->z = std::move(z);
  store->p = std::move(p);
  store->v = std::move(v);
  u_ = store->u;
  z_ = store->z;
  p_ = store->p;
  v_ = store->v;
  stats_.state_bytes = store->u.AllocatedBytes() + store->z.AllocatedBytes() +
                       store->p.AllocatedBytes();
  store_ = std::move(store);
}

Status CsrPlusEngine::SetServingPrecision(Precision precision) {
  if (precision == precision_) return Status::OK();
  if (precision == Precision::kF64) {
    // The double masters were never dropped — just release the mirrors.
    precision_ = Precision::kF64;
    std::vector<float>().swap(u32_);
    std::vector<float>().swap(z32_);
    return Status::OK();
  }
  const Index n = num_nodes();
  const Index r = rank();
  const std::size_t total = static_cast<std::size_t>(n) * static_cast<std::size_t>(r);
  CSR_RETURN_IF_ERROR(MemoryBudget::Global().TryReserve(
      2 * static_cast<int64_t>(total) * static_cast<int64_t>(sizeof(float)),
      "CSR+ f32 serving factors"));
  u32_.resize(total);
  z32_.resize(total);
  const double* u_src = u().data();
  const double* z_src = z().data();
  for (std::size_t i = 0; i < total; ++i) {
    u32_[i] = static_cast<float>(u_src[i]);
    z32_[i] = static_cast<float>(z_src[i]);
  }
  precision_ = Precision::kF32;
  return Status::OK();
}

uint64_t CsrPlusEngine::StateFingerprint() const {
  // No graph fingerprint means the engine cannot tie its answers to a
  // specific input (PrecomputeFromPaperFactors path) — never cacheable.
  if (fingerprint_.empty()) return 0;
  uint64_t hash = AnswerStateHash(fingerprint_, rank(), damping_, epsilon_);
  if (precision_ == Precision::kF32) {
    // The f32 tier answers differently, so it must never share cached
    // columns with its f64 twin. f64 fingerprints are unchanged from
    // before the tier existed, keeping existing caches/artifacts valid.
    const char tag[] = "f32";
    hash = precompute_io::FnvHash(hash, tag, sizeof(tag));
  }
  // FNV never maps non-empty input to 0 in practice, but 0 is the reserved
  // "uncacheable" value, so steer clear of it deterministically.
  return hash == 0 ? 1 : hash;
}

Result<DenseMatrix> CsrPlusEngine::MultiSourceQuery(
    const std::vector<Index>& queries) const {
  const Index n = num_nodes();
  CSR_RETURN_IF_ERROR(ValidateQueries(queries, n));
  // Account both the n x |Q| output block and the transient scratch — near
  // the cap the query fails for the block *plus* its scratch, keeping the
  // "fails due to memory explosion" reproduction honest. f64 scratch is the
  // |Q| x r copy of [U]_{Q,*}; the f32 tier instead carries an r x |Q|
  // float panel and an n x |Q| float accumulator.
  const int64_t nq64 = static_cast<int64_t>(queries.size());
  const int64_t out_bytes = n * nq64 * static_cast<int64_t>(sizeof(double));
  const int64_t scratch_bytes =
      precision_ == Precision::kF32
          ? (rank() + n) * nq64 * static_cast<int64_t>(sizeof(float))
          : nq64 * rank() * static_cast<int64_t>(sizeof(double));
  CSR_RETURN_IF_ERROR(MemoryBudget::Global().TryReserve(
      out_bytes + scratch_bytes, "CSR+ multi-source output"));
  CSRPLUS_OBS_SCOPED_US("csrplus.phase.query_us",
                        "top-level CSR+ query entry points (Alg. 1 line 7)");
  CSRPLUS_OBS_COUNTER_ADD("csrplus.query.multi_source", "calls",
                          "MultiSourceQuery invocations", 1);
  CSRPLUS_OBS_COUNTER_ADD("csrplus.query.sources", "nodes",
                          "total query sources across all query calls",
                          queries.size());
  CSRPLUS_TRACE_SPAN_ARG(span, obs::spans::kQuery, "num_queries",
                         static_cast<int64_t>(queries.size()));
  CSRPLUS_TRACE_ARG(span, "n", n);

  // Line 7: [S]_{*,Q} = [I_n]_{*,Q} + c Z [U]_{Q,*}^T.
  if (precision_ == Precision::kF32) {
    CSRPLUS_OBS_COUNTER_ADD("csrplus.kernel.f32_queries", "calls",
                            "queries answered by the float32 serving tier",
                            1);
    DenseMatrix s = ScaledScoreBlockF32(queries);
    for (std::size_t j = 0; j < queries.size(); ++j) {
      s(queries[j], static_cast<Index>(j)) += 1.0;
    }
    return s;
  }
  const DenseMatrix u_q = u().SelectRows(queries);  // |Q| x r
  DenseMatrix s = linalg::Gemm(z(), u_q, linalg::Transpose::kNo,
                               linalg::Transpose::kYes);  // n x |Q|
  linalg::ScaleInPlace(damping_, &s);
  for (std::size_t j = 0; j < queries.size(); ++j) {
    s(queries[j], static_cast<Index>(j)) += 1.0;
  }
  return s;
}

DenseMatrix CsrPlusEngine::ScaledScoreBlockF32(
    const std::vector<Index>& queries) const {
  const Index n = num_nodes();
  const Index r = rank();
  const Index nq = static_cast<Index>(queries.size());
  // r x nq panel: bt[p][j] = u32[queries[j]][p], i.e. [U32]_{Q,*}^T laid out
  // for the NN driver.
  std::vector<float> bt(static_cast<std::size_t>(r) *
                        static_cast<std::size_t>(nq));
  for (Index j = 0; j < nq; ++j) {
    const float* uq = u32_.data() +
                      static_cast<std::size_t>(queries[static_cast<std::size_t>(j)]) *
                          static_cast<std::size_t>(r);
    for (Index p = 0; p < r; ++p) {
      bt[static_cast<std::size_t>(p) * static_cast<std::size_t>(nq) +
         static_cast<std::size_t>(j)] = uq[p];
    }
  }
  DenseMatrix s(n, nq);
  const linalg::kernels::KernelTable<float>& kt = linalg::kernels::F32();
  // Row shards accumulate in float through the SIMD axpy (each element's
  // products in ascending p — the same float sequence SinglePairQuery
  // computes, so a pair score equals its column entry bit for bit), then
  // widen with the damping multiply in double.
  ParallelFor(n, n * r * nq, [&](Index begin, Index end) {
    const std::size_t rows = static_cast<std::size_t>(end - begin);
    std::vector<float> acc(rows * static_cast<std::size_t>(nq), 0.0f);
    linalg::kernels::GemmNnTiled(
        kt, z32_.data() + static_cast<std::size_t>(begin) * static_cast<std::size_t>(r),
        r, bt.data(), nq, acc.data(), nq, end - begin, r, nq);
    for (Index i = begin; i < end; ++i) {
      double* srow = s.RowPtr(i);
      const float* arow =
          acc.data() + static_cast<std::size_t>(i - begin) * static_cast<std::size_t>(nq);
      for (Index j = 0; j < nq; ++j) {
        srow[j] = damping_ * static_cast<double>(arow[j]);
      }
    }
  });
  return s;
}

Result<double> CsrPlusEngine::SinglePairQuery(Index a, Index b) const {
  const Index n = num_nodes();
  if (a < 0 || a >= n || b < 0 || b >= n) {
    return Status::InvalidArgument("node out of range");
  }
  // O(r) work: a counter only — a clock pair here would dominate the query.
  CSRPLUS_OBS_COUNTER_ADD("csrplus.query.single_pair", "calls",
                          "single-pair O(r) score lookups", 1);
  const Index r = rank();
  if (precision_ == Precision::kF32) {
    // Same float accumulation sequence as the f32 column kernels, so the
    // pair score equals the corresponding column entry bit-for-bit.
    const float* zrow =
        z32_.data() + static_cast<std::size_t>(a) * static_cast<std::size_t>(r);
    const float* urow =
        u32_.data() + static_cast<std::size_t>(b) * static_cast<std::size_t>(r);
    float dot = 0.0f;
    for (Index k = 0; k < r; ++k) dot += zrow[k] * urow[k];
    return damping_ * static_cast<double>(dot) + (a == b ? 1.0 : 0.0);
  }
  const double* zrow = z().RowPtr(a);
  const double* urow = u().RowPtr(b);
  double dot = 0.0;
  for (Index k = 0; k < r; ++k) dot += zrow[k] * urow[k];
  return damping_ * dot + (a == b ? 1.0 : 0.0);
}

}  // namespace csrplus::core
