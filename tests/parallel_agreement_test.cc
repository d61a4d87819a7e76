// Parallel-vs-serial agreement: every parallelised kernel and engine entry
// point must produce (near-)identical results whether the shared pool runs
// 1, 2, or 8 threads. Row/column-partitioned kernels are bit-deterministic
// for any width (each output element is accumulated in the serial order);
// kernels that reduce per-shard partials (A^T B GEMM) may differ by rounding
// only, hence the 1e-12 tolerances at the engine level.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/parallel.h"
#include "core/csrplus_engine.h"
#include "graph/normalize.h"
#include "linalg/dense_ops.h"
#include "svd/truncated_svd.h"
#include "test_util.h"

namespace csrplus {
namespace {

using csrplus::testing::MatricesNear;
using csrplus::testing::RandomGraph;
using csrplus::testing::ScopedNumThreads;
using linalg::DenseMatrix;
using linalg::Index;

constexpr int kWidths[] = {1, 2, 8};

// A graph large enough that every kernel actually crosses the parallel
// dispatch threshold at 8 threads.
linalg::CsrMatrix TestTransition() {
  static const linalg::CsrMatrix q =
      graph::ColumnNormalizedTransition(RandomGraph(3000, 24000, 99));
  return q;
}

core::CsrPlusOptions EngineOptions(int num_threads) {
  core::CsrPlusOptions options;
  options.rank = 8;
  options.num_threads = num_threads;
  return options;
}

TEST(ParallelAgreementTest, MultiSourceQueryAcrossThreadCounts) {
  const auto q = TestTransition();
  std::vector<Index> queries = {1, 77, 512, 1999, 2998};
  auto serial = core::CsrPlusEngine::PrecomputeFromTransition(q, EngineOptions(1));
  ASSERT_TRUE(serial.ok());
  auto s1 = serial->MultiSourceQuery(queries);
  ASSERT_TRUE(s1.ok());
  for (int width : kWidths) {
    auto engine =
        core::CsrPlusEngine::PrecomputeFromTransition(q, EngineOptions(width));
    ASSERT_TRUE(engine.ok());
    auto s = engine->MultiSourceQuery(queries);
    ASSERT_TRUE(s.ok());
    EXPECT_TRUE(MatricesNear(*s, *s1, 1e-12)) << "width " << width;
  }
  SetNumThreads(1);
}

TEST(ParallelAgreementTest, SvdFactorsAreIdenticalAcrossThreadCounts) {
  // Every kernel on the SVD path (per-row Gaussian streams, row-partitioned
  // SpMM/GEMM, column-partitioned transpose SpMM, serial reductions) is
  // bit-deterministic across pool widths, so both backends must reproduce
  // the 1-thread factors exactly — not just approximately.
  const auto q = TestTransition();
  for (auto algorithm :
       {svd::SvdAlgorithm::kRandomized, svd::SvdAlgorithm::kLanczos}) {
    svd::SvdOptions options;
    options.rank = 6;
    options.algorithm = algorithm;
    ScopedNumThreads reset(1);
    auto serial = svd::ComputeTruncatedSvd(q, options);
    ASSERT_TRUE(serial.ok());
    for (int width : kWidths) {
      SetNumThreads(width);
      auto factors = svd::ComputeTruncatedSvd(q, options);
      ASSERT_TRUE(factors.ok());
      EXPECT_EQ(linalg::MaxAbsDiff(factors->u, serial->u), 0.0)
          << "U drifted at width " << width;
      EXPECT_EQ(linalg::MaxAbsDiff(factors->v, serial->v), 0.0)
          << "V drifted at width " << width;
      ASSERT_EQ(factors->sigma.size(), serial->sigma.size());
      for (std::size_t i = 0; i < serial->sigma.size(); ++i) {
        EXPECT_EQ(factors->sigma[i], serial->sigma[i])
            << "sigma[" << i << "] drifted at width " << width;
      }
    }
  }
}

TEST(ParallelAgreementTest, DenseKernelsAcrossThreadCounts) {
  const DenseMatrix a = csrplus::testing::RandomDense(600, 300, 1);
  const DenseMatrix b = csrplus::testing::RandomDense(300, 200, 2);
  const DenseMatrix bt = csrplus::testing::RandomDense(200, 300, 3);
  const DenseMatrix tall = csrplus::testing::RandomDense(600, 200, 4);
  ScopedNumThreads reset(1);
  const DenseMatrix ab = linalg::Gemm(a, b);
  const DenseMatrix abt =
      linalg::Gemm(a, bt, linalg::Transpose::kNo, linalg::Transpose::kYes);
  const DenseMatrix atb =
      linalg::Gemm(a, tall, linalg::Transpose::kYes, linalg::Transpose::kNo);
  for (int width : kWidths) {
    SetNumThreads(width);
    // Row-partitioned products: identical for every width.
    EXPECT_EQ(linalg::MaxAbsDiff(linalg::Gemm(a, b), ab), 0.0);
    EXPECT_EQ(linalg::MaxAbsDiff(
                  linalg::Gemm(a, bt, linalg::Transpose::kNo,
                               linalg::Transpose::kYes),
                  abt),
              0.0);
    // Shard-reduced A^T B: rounding-level agreement.
    EXPECT_TRUE(MatricesNear(linalg::Gemm(a, tall, linalg::Transpose::kYes,
                                          linalg::Transpose::kNo),
                             atb, 1e-12));
  }
}

TEST(ParallelAgreementTest, SparseKernelsAcrossThreadCounts) {
  const auto q = TestTransition();
  const DenseMatrix b = csrplus::testing::RandomDense(q.rows(), 16, 5);
  std::vector<double> x(static_cast<std::size_t>(q.rows()));
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = std::sin(double(i));
  ScopedNumThreads reset(1);
  const DenseMatrix qb = q.MultiplyDense(b);
  const DenseMatrix qtb = q.MultiplyTransposeDense(b);
  const std::vector<double> qx = q.Multiply(x);
  const std::vector<double> qtx = q.MultiplyTranspose(x);
  for (int width : kWidths) {
    SetNumThreads(width);
    // All four are bit-deterministic: outputs are partitioned and each
    // element accumulates in the serial order.
    EXPECT_EQ(linalg::MaxAbsDiff(q.MultiplyDense(b), qb), 0.0);
    EXPECT_EQ(linalg::MaxAbsDiff(q.MultiplyTransposeDense(b), qtb), 0.0);
    EXPECT_EQ(q.Multiply(x), qx);
    EXPECT_EQ(q.MultiplyTranspose(x), qtx);
  }
}

}  // namespace
}  // namespace csrplus
