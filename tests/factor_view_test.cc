// The const-view factor surface: DenseMatrixView semantics, the engine
// accessors' aliasing guarantees, and the zero-copy serving contract — a
// warm engine answers a query allocating only its output block and the
// |Q| x r query panels (no factor is silently copied on the hot path).
//
// This binary links the operator new/delete counting hooks (bench-only in
// every other target) so the allocation bound is a real measurement, not a
// code-review claim.

#include "linalg/dense_matrix.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/memory.h"
#include "core/csrplus_engine.h"
#include "obs/stats.h"
#include "test_util.h"

namespace csrplus {
namespace {

using csrplus::testing::RandomDense;
using csrplus::testing::ScopedNumThreads;
using linalg::DenseMatrix;
using linalg::DenseMatrixView;
using linalg::Index;

TEST(DenseMatrixViewTest, DefaultViewIsEmpty) {
  DenseMatrixView view;
  EXPECT_EQ(view.rows(), 0);
  EXPECT_EQ(view.cols(), 0);
  EXPECT_TRUE(view.empty());
  EXPECT_EQ(view.data(), nullptr);
}

TEST(DenseMatrixViewTest, ViewAliasesTheOwningMatrix) {
  DenseMatrix m = RandomDense(7, 3, 0x11);
  DenseMatrixView view = m;  // implicit, like std::string_view
  EXPECT_EQ(view.data(), m.data());
  EXPECT_EQ(view.rows(), m.rows());
  EXPECT_EQ(view.cols(), m.cols());
  EXPECT_EQ(view.RowPtr(4), m.RowPtr(4));
  EXPECT_EQ(view(2, 1), m(2, 1));

  // Writing through the matrix is visible through the view: no copy exists.
  m(2, 1) = 42.0;
  EXPECT_EQ(view(2, 1), 42.0);
}

TEST(DenseMatrixViewTest, EqualityComparesContentsNotIdentity) {
  DenseMatrix a = RandomDense(5, 4, 0x22);
  DenseMatrix b = a;
  EXPECT_TRUE(DenseMatrixView(a) == DenseMatrixView(b));
  b(0, 0) += 1.0;
  EXPECT_FALSE(DenseMatrixView(a) == DenseMatrixView(b));
  EXPECT_FALSE(DenseMatrixView(a) == DenseMatrixView(RandomDense(4, 5, 0x22)));
}

TEST(DenseMatrixViewTest, DerivedMatricesMatchTheOwningTypes) {
  DenseMatrix m = RandomDense(6, 3, 0x33);
  DenseMatrixView view = m;
  EXPECT_TRUE(view.ToMatrix() == m);
  EXPECT_TRUE(view.Transposed() == m.Transposed());
  EXPECT_EQ(view.Row(2), m.Row(2));
  const std::vector<Index> pick = {5, 0, 3};
  EXPECT_TRUE(view.SelectRows(pick) == m.SelectRows(pick));
}

TEST(DenseMatrixViewTest, ViewOverForeignBufferWorks) {
  const double raw[] = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  DenseMatrixView view(raw, 2, 3);
  EXPECT_EQ(view(0, 0), 1.0);
  EXPECT_EQ(view(1, 2), 6.0);
  EXPECT_EQ(view.PayloadBytes(), 48);
  EXPECT_TRUE(view.ToMatrix() == DenseMatrix::FromRawBuffer(2, 3, raw));
}

TEST(DenseMatrixTest, CheckedDimensionsRejectOverflow) {
  // 2^31 x 2^31 elements overflows a signed 64-bit count; the constructor
  // must refuse before std::vector sees a wrapped (tiny) size.
  const Index huge = Index{1} << 31;
  EXPECT_DEATH(DenseMatrix(huge, huge * 4), "overflow");
  EXPECT_DEATH(DenseMatrix(-1, 3), "");
}

class FactorViewEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const graph::Graph g = csrplus::testing::RandomGraph(400, 3200, 0xFEED);
    core::CsrPlusOptions options;
    options.rank = 8;
    auto engine = core::CsrPlusEngine::Precompute(g, options);
    CSR_CHECK(engine.ok()) << engine.status().ToString();
    engine_ = std::make_unique<core::CsrPlusEngine>(std::move(*engine));
  }

  std::unique_ptr<core::CsrPlusEngine> engine_;
};

TEST_F(FactorViewEngineTest, AccessorsReturnStableViewsOverEngineState) {
  const DenseMatrixView u1 = engine_->u();
  const DenseMatrixView u2 = engine_->u();
  EXPECT_EQ(u1.data(), u2.data()) << "accessor must not copy";
  EXPECT_EQ(u1.rows(), engine_->num_nodes());
  EXPECT_EQ(u1.cols(), engine_->rank());
  EXPECT_EQ(engine_->z().data(), engine_->z().data());
  EXPECT_EQ(engine_->p().rows(), engine_->rank());
  EXPECT_EQ(engine_->v().rows(), engine_->num_nodes());
}

TEST_F(FactorViewEngineTest, MappedAccessorsAliasTheMapping) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("csrplus_factor_view_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "state.cspc").string();
  ASSERT_TRUE(engine_->SavePrecompute(path).ok());

  core::LoadOptions options;
  options.mode = core::LoadMode::kMapped;
  options.background_verify = false;
  auto mapped = core::CsrPlusEngine::LoadPrecompute(path, options);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_TRUE(mapped->is_mapped());

  // The views must be stable across calls (same mapped bytes, no copies)
  // and bit-identical to the engine that wrote the artifact.
  EXPECT_EQ(mapped->u().data(), mapped->u().data());
  EXPECT_EQ(mapped->z().data(), mapped->z().data());
  EXPECT_TRUE(mapped->u() == engine_->u());
  EXPECT_TRUE(mapped->z() == engine_->z());
  EXPECT_TRUE(mapped->p() == engine_->p());
  EXPECT_TRUE(mapped->v() == engine_->v());

  // Copying a mapped engine shares the mapping; both copies serve.
  core::CsrPlusEngine copy = *mapped;
  EXPECT_EQ(copy.u().data(), mapped->u().data());
  auto a = csrplus::testing::QueryColumn(copy, 3);
  auto b = csrplus::testing::QueryColumn(*mapped, 3);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);

  std::filesystem::remove_all(dir);
}

TEST_F(FactorViewEngineTest, CopiesShareHeapFactorStorage) {
  if (!MemoryTrackingActive()) {
    GTEST_SKIP() << "operator new hooks not linked";
  }
#if !defined(CSRPLUS_OBS_DISABLED)
  obs::SetMetricsEnabled(false);
#endif
  const int64_t before = GetTrackedMemory().current_bytes;
  ResetPeakTrackedBytes();
  const core::CsrPlusEngine copy = *engine_;
  const int64_t copied = GetTrackedMemory().peak_bytes - before;
#if !defined(CSRPLUS_OBS_DISABLED)
  obs::SetMetricsEnabled(true);
#endif
  // The copy holds its own Sigma (r doubles) and nothing else: P, the
  // smallest factor, would already be r*r doubles.
  EXPECT_LT(copied, engine_->p().PayloadBytes())
      << "copying a heap-built engine copied factor bytes";
  EXPECT_EQ(copy.u().data(), engine_->u().data());
  EXPECT_EQ(copy.z().data(), engine_->z().data());
  EXPECT_EQ(copy.p().data(), engine_->p().data());
  EXPECT_EQ(copy.v().data(), engine_->v().data());
  EXPECT_FALSE(copy.is_mapped());
}

TEST_F(FactorViewEngineTest, WarmMultiSourceQueryAllocatesOnlyItsBlock) {
  if (!MemoryTrackingActive()) {
    GTEST_SKIP() << "operator new hooks not linked";
  }
  // Single-threaded so the parallel region runs inline (worker wakeups are
  // outside this test's contract), metrics off so counter registration
  // noise cannot mask a factor copy.
  ScopedNumThreads serial(1);
#if !defined(CSRPLUS_OBS_DISABLED)
  obs::SetMetricsEnabled(false);
#endif
  // Warm-up: faults in any lazy registration.
  ASSERT_TRUE(engine_->MultiSourceQuery({0}).ok());
  ASSERT_TRUE(engine_->MultiSourceQuery({1}).ok());

  const int64_t before = GetTrackedMemory().current_bytes;
  ResetPeakTrackedBytes();
  for (Index q = 2; q < 34; ++q) {
    ASSERT_TRUE(engine_->MultiSourceQuery({q}).ok());
  }
  const MemoryStats after = GetTrackedMemory();
  EXPECT_EQ(after.current_bytes, before)
      << "warm queries leaked or cached allocations";
  // One query live at a time: its n x 1 output block, the 1 x r [U]_{q,*}
  // panel and its transpose, plus under 256 bytes of size-independent
  // bookkeeping (the query-set vector, the parallel-region closures). One
  // copied n x r factor would be r times the block, so the bound catches
  // any materialised view.
  const int64_t n = engine_->num_nodes();
  const int64_t r = engine_->rank();
  const int64_t block_bytes = n * static_cast<int64_t>(sizeof(double));
  const int64_t panel_bytes = r * static_cast<int64_t>(sizeof(double));
  const int64_t bound = block_bytes + 2 * panel_bytes + 256;
  ASSERT_LT(bound, n * r * static_cast<int64_t>(sizeof(double)));
  EXPECT_LE(after.peak_bytes - before, bound)
      << "warm queries allocated beyond the output block and query panels";
#if !defined(CSRPLUS_OBS_DISABLED)
  obs::SetMetricsEnabled(true);
#endif
}

}  // namespace
}  // namespace csrplus
