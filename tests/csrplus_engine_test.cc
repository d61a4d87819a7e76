#include "core/csrplus_engine.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <string>

#include "common/memory.h"
#include "core/cosimrank.h"
#include "core/precompute_io.h"
#include "graph/normalize.h"
#include "test_util.h"

namespace csrplus::core {
namespace {

using csrplus::testing::Figure1Graph;
using csrplus::testing::MatricesNear;
using csrplus::testing::RandomGraph;

TEST(RepeatedSquaringIterationsTest, MatchesAlgorithm1Bound) {
  // c = 0.6, eps = 1e-5: log_c(eps) = 22.54, floor(log2) = 4, +1 = 5.
  EXPECT_EQ(RepeatedSquaringIterations(0.6, 1e-5), 5);
  // c = 0.8, eps = 1e-5: log_c = 51.6, floor(log2) = 5, +1 = 6.
  EXPECT_EQ(RepeatedSquaringIterations(0.8, 1e-5), 6);
  // Very loose accuracy degenerates to a single squaring step.
  EXPECT_EQ(RepeatedSquaringIterations(0.6, 0.59), 1);
  // Accuracy looser than one application of c clamps at zero.
  EXPECT_EQ(RepeatedSquaringIterations(0.6, 0.9), 0);
}

TEST(ValidateOptionsTest, CatchesEveryBadField) {
  CsrPlusOptions options;
  options.rank = 0;
  EXPECT_FALSE(ValidateCsrPlusOptions(options, 10).ok());
  options.rank = 11;
  EXPECT_FALSE(ValidateCsrPlusOptions(options, 10).ok());
  options.rank = 5;
  options.damping = 0.0;
  EXPECT_FALSE(ValidateCsrPlusOptions(options, 10).ok());
  options.damping = 0.6;
  options.epsilon = 1.5;
  EXPECT_FALSE(ValidateCsrPlusOptions(options, 10).ok());
  options.epsilon = 1e-5;
  EXPECT_TRUE(ValidateCsrPlusOptions(options, 10).ok());
}

TEST(CsrPlusEngineTest, ReproducesPaperExample36) {
  // Example 3.6: Q = {b, d}, r = 3, c = 0.6 on the Figure 1 graph. The paper
  // prints [S]_{*,b} = [0.16 1.49 0.16 0.49 0.48 0.16] and
  //        [S]_{*,d} = [0.16 0.49 0.16 1.49 0.48 0.16] (2-decimal rounding).
  CsrPlusOptions options;
  options.rank = 3;
  options.damping = 0.6;
  options.epsilon = 1e-5;
  auto engine = CsrPlusEngine::Precompute(Figure1Graph(), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  auto s = engine->MultiSourceQuery({1, 3});  // b, d
  ASSERT_TRUE(s.ok());
  const DenseMatrix expected{{0.16, 0.16}, {1.49, 0.49}, {0.16, 0.16},
                             {0.49, 1.49}, {0.48, 0.48}, {0.16, 0.16}};
  EXPECT_TRUE(MatricesNear(*s, expected, 0.01))
      << "got:\n" << s->ToString(4);
}

TEST(CsrPlusEngineTest, FullRankMatchesExactCoSimRank) {
  // With r = n the SVD is exact, so CSR+ must agree with the reference
  // iterative evaluation to the epsilon of the series truncation.
  graph::Graph g = RandomGraph(40, 220, 3);
  CsrMatrix transition = graph::ColumnNormalizedTransition(g);

  CsrPlusOptions options;
  options.rank = 40;
  options.epsilon = 1e-10;
  auto engine = CsrPlusEngine::PrecomputeFromTransition(transition, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  std::vector<Index> queries = {0, 7, 19, 33};
  auto approx = engine->MultiSourceQuery(queries);
  ASSERT_TRUE(approx.ok());

  CoSimRankOptions exact_options;
  exact_options.epsilon = 1e-12;
  auto exact = ReferenceEngine(&transition, exact_options).MultiSourceQuery(queries);
  ASSERT_TRUE(exact.ok());
  EXPECT_TRUE(MatricesNear(*approx, *exact, 1e-6));
}

TEST(CsrPlusEngineTest, SinglePairMatchesMatrixEntry) {
  auto engine =
      CsrPlusEngine::Precompute(RandomGraph(30, 150, 11), CsrPlusOptions{});
  ASSERT_TRUE(engine.ok());
  auto block = engine->MultiSourceQuery({4});
  ASSERT_TRUE(block.ok());
  for (Index i = 0; i < 30; ++i) {
    auto pair = engine->SinglePairQuery(i, 4);
    ASSERT_TRUE(pair.ok());
    EXPECT_NEAR(*pair, (*block)(i, 0), 1e-12);
  }
}

TEST(CsrPlusEngineTest, QueryValidation) {
  auto engine =
      CsrPlusEngine::Precompute(RandomGraph(10, 40, 17), CsrPlusOptions{});
  ASSERT_TRUE(engine.ok());
  EXPECT_TRUE(engine->MultiSourceQuery({}).status().IsInvalidArgument());
  EXPECT_TRUE(engine->MultiSourceQuery({10}).status().IsInvalidArgument());
  EXPECT_TRUE(engine->SinglePairQuery(0, 99).status().IsInvalidArgument());
}

TEST(CsrPlusEngineTest, StatsArePopulated) {
  auto engine =
      CsrPlusEngine::Precompute(RandomGraph(60, 400, 19), CsrPlusOptions{});
  ASSERT_TRUE(engine.ok());
  const PrecomputeStats& stats = engine->stats();
  EXPECT_GT(stats.state_bytes, 0);
  EXPECT_EQ(stats.squaring_iterations, 6);  // max_k = 5 -> 6 loop trips
  EXPECT_GE(stats.svd_seconds, 0.0);
}

TEST(CsrPlusEngineTest, MultiSourceQueryBudgetsTheTransientFactorCopy) {
  CsrPlusOptions options;
  options.rank = 4;
  auto engine = CsrPlusEngine::Precompute(RandomGraph(200, 1200, 9), options);
  ASSERT_TRUE(engine.ok());
  const std::vector<Index> queries = {0, 3, 50, 199};
  const int64_t out_bytes =
      int64_t{200} * static_cast<int64_t>(queries.size()) * sizeof(double);
  const int64_t u_q_bytes =
      static_cast<int64_t>(queries.size()) * 4 * sizeof(double);
  const int64_t saved = MemoryBudget::Global().limit_bytes();
  // The n x |Q| output alone fits, but output + the transient [U]_{Q,*}
  // copy does not: the reservation must count both.
  MemoryBudget::Global().SetLimit(out_bytes + u_q_bytes / 2);
  auto s = engine->MultiSourceQuery(queries);
  MemoryBudget::Global().SetLimit(saved);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kResourceExhausted);
  auto retry = engine->MultiSourceQuery(queries);
  EXPECT_TRUE(retry.ok());
}

TEST(CsrPlusEngineTest, DampingAffectsScores) {
  graph::Graph g = RandomGraph(30, 200, 23);
  CsrPlusOptions low;
  low.damping = 0.2;
  CsrPlusOptions high;
  high.damping = 0.8;
  auto engine_low = CsrPlusEngine::Precompute(g, low);
  auto engine_high = CsrPlusEngine::Precompute(g, high);
  ASSERT_TRUE(engine_low.ok() && engine_high.ok());
  auto s_low = engine_low->MultiSourceQuery({5});
  auto s_high = engine_high->MultiSourceQuery({5});
  ASSERT_TRUE(s_low.ok() && s_high.ok());
  // Higher damping keeps more of the series mass: off-diagonal scores grow.
  double sum_low = 0.0, sum_high = 0.0;
  for (Index i = 0; i < 30; ++i) {
    if (i == 5) continue;
    sum_low += (*s_low)(i, 0);
    sum_high += (*s_high)(i, 0);
  }
  EXPECT_GT(sum_high, sum_low);
}

TEST(CsrPlusEngineTest, RankImprovesAccuracyMonotonically) {
  graph::Graph g = RandomGraph(50, 350, 29);
  CsrMatrix transition = graph::ColumnNormalizedTransition(g);
  CoSimRankOptions exact_options;
  exact_options.epsilon = 1e-12;
  std::vector<Index> queries = {1, 2, 3};
  auto exact = ReferenceEngine(&transition, exact_options).MultiSourceQuery(queries);
  ASSERT_TRUE(exact.ok());

  double prev_err = 1e300;
  for (Index rank : {5, 15, 30, 50}) {
    CsrPlusOptions options;
    options.rank = rank;
    options.epsilon = 1e-10;
    auto engine = CsrPlusEngine::PrecomputeFromTransition(transition, options);
    ASSERT_TRUE(engine.ok());
    auto approx = engine->MultiSourceQuery(queries);
    ASSERT_TRUE(approx.ok());
    double err = 0.0;
    for (Index i = 0; i < approx->size(); ++i) {
      err += std::fabs(approx->data()[i] - exact->data()[i]);
    }
    EXPECT_LE(err, prev_err + 1e-6);
    prev_err = err;
  }
  EXPECT_LT(prev_err, 1e-4);  // full rank is essentially exact
}

TEST(CsrPlusEngineTest, LoadPrecomputeChargesBudgetLikeTheComputePath) {
  const Index n = 150;
  const Index r = 6;
  graph::Graph g = RandomGraph(n, 900, 31);
  CsrPlusOptions options;
  options.rank = r;
  auto engine = CsrPlusEngine::Precompute(g, options);
  ASSERT_TRUE(engine.ok());

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("csrplus_engine_budget_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "state.cspc").string();
  ASSERT_TRUE(engine->SavePrecompute(path).ok());

  // Warm and cold starts must hit the same wall: with the cap one byte
  // below the engine state's footprint, BOTH the compute path and
  // LoadPrecompute return ResourceExhausted — a warm start cannot sneak a
  // factorisation past the budget that a cold start would have refused.
  const int64_t state_bytes = precompute_io::EngineStateBytes(n, r);
  const int64_t saved = MemoryBudget::Global().limit_bytes();
  MemoryBudget::Global().SetLimit(state_bytes - 1);
  auto cold = CsrPlusEngine::Precompute(g, options);
  auto warm = CsrPlusEngine::LoadPrecompute(path, LoadOptions{});
  MemoryBudget::Global().SetLimit(saved);
  ASSERT_FALSE(cold.ok());
  ASSERT_FALSE(warm.ok());
  EXPECT_EQ(cold.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(warm.status().code(), StatusCode::kResourceExhausted);

  // With the cap restored both succeed and agree bit for bit.
  auto retry = CsrPlusEngine::LoadPrecompute(path, LoadOptions{});
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  auto q_cold = engine->MultiSourceQuery({0, n / 2, n - 1});
  auto q_warm = retry->MultiSourceQuery({0, n / 2, n - 1});
  ASSERT_TRUE(q_cold.ok() && q_warm.ok());
  EXPECT_TRUE(*q_cold == *q_warm);

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace csrplus::core
