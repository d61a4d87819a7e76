// Property-based sweeps (TEST_P) over graph families, damping factors,
// ranks and query-set sizes: the invariants of CoSimRank and of the CSR+
// pipeline must hold across the whole parameter grid, not just at the
// paper's default settings.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/cosimrank.h"
#include "core/csrplus_engine.h"
#include "eval/metrics.h"
#include "graph/generators/generators.h"
#include "graph/normalize.h"
#include "test_util.h"

namespace csrplus {
namespace {

using linalg::CsrMatrix;
using linalg::Index;

enum class GraphFamily { kErdosRenyi, kBarabasiAlbert, kRmat, kWattsStrogatz };

graph::Graph MakeGraph(GraphFamily family, uint64_t seed) {
  switch (family) {
    case GraphFamily::kErdosRenyi:
      return std::move(*graph::ErdosRenyi(120, 700, seed));
    case GraphFamily::kBarabasiAlbert:
      return std::move(*graph::BarabasiAlbert(120, 4, seed));
    case GraphFamily::kRmat:
      return std::move(*graph::Rmat(7, 600, seed));  // 128 nodes
    case GraphFamily::kWattsStrogatz:
      return std::move(*graph::WattsStrogatz(120, 4, 0.2, seed));
  }
  CSR_CHECK(false) << "unreachable";
  __builtin_unreachable();
}

std::string FamilyName(GraphFamily family) {
  switch (family) {
    case GraphFamily::kErdosRenyi:
      return "ER";
    case GraphFamily::kBarabasiAlbert:
      return "BA";
    case GraphFamily::kRmat:
      return "RMAT";
    case GraphFamily::kWattsStrogatz:
      return "WS";
  }
  return "?";
}

// ------------------------------------------------------------------------
// Invariants of the exact CoSimRank scores across families and dampings.

class CoSimRankInvariants
    : public ::testing::TestWithParam<std::tuple<GraphFamily, double>> {};

INSTANTIATE_TEST_SUITE_P(
    Grid, CoSimRankInvariants,
    ::testing::Combine(::testing::Values(GraphFamily::kErdosRenyi,
                                         GraphFamily::kBarabasiAlbert,
                                         GraphFamily::kRmat,
                                         GraphFamily::kWattsStrogatz),
                       ::testing::Values(0.4, 0.6, 0.8)),
    [](const auto& info) {
      return FamilyName(std::get<0>(info.param)) + "_c" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 10));
    });

TEST_P(CoSimRankInvariants, DiagonalDominatesAndBoundsHold) {
  const auto [family, damping] = GetParam();
  graph::Graph g = MakeGraph(family, 1234);
  CsrMatrix q = graph::ColumnNormalizedTransition(g);
  core::CoSimRankOptions options;
  options.damping = damping;
  options.epsilon = 1e-9;

  const core::ReferenceEngine engine(&q, options);
  for (Index query : {0, 31, 77}) {
    auto column = csrplus::testing::QueryColumn(engine, query);
    ASSERT_TRUE(column.ok());
    const std::vector<double>& scores = *column;
    const double self = scores[static_cast<std::size_t>(query)];
    EXPECT_GE(self, 1.0);
    // Geometric bound: [S]_{q,q} <= 1/(1-c) since <p,p> <= 1 per term.
    EXPECT_LE(self, 1.0 / (1.0 - damping) + 1e-9);
    for (Index x = 0; x < g.num_nodes(); ++x) {
      const double v = scores[static_cast<std::size_t>(x)];
      EXPECT_GE(v, -1e-12);  // nonnegative series
      if (x != query) EXPECT_LE(v, self + 1e-12);
    }
  }
}

TEST_P(CoSimRankInvariants, SymmetryAcrossPairs) {
  const auto [family, damping] = GetParam();
  graph::Graph g = MakeGraph(family, 777);
  CsrMatrix q = graph::ColumnNormalizedTransition(g);
  core::CoSimRankOptions options;
  options.damping = damping;
  options.iterations = 12;
  for (auto [a, b] : {std::pair<Index, Index>{3, 99},
                      {17, 45},
                      {60, 61}}) {
    auto ab = core::SinglePairCoSimRank(q, a, b, options);
    auto ba = core::SinglePairCoSimRank(q, b, a, options);
    ASSERT_TRUE(ab.ok() && ba.ok());
    EXPECT_NEAR(*ab, *ba, 1e-11);
  }
}

// ------------------------------------------------------------------------
// CSR+ pipeline invariants over (family, rank, |Q|).

class CsrPlusSweep : public ::testing::TestWithParam<
                         std::tuple<GraphFamily, Index, std::size_t>> {};

INSTANTIATE_TEST_SUITE_P(
    Grid, CsrPlusSweep,
    ::testing::Combine(::testing::Values(GraphFamily::kErdosRenyi,
                                         GraphFamily::kBarabasiAlbert,
                                         GraphFamily::kRmat),
                       ::testing::Values<Index>(3, 8, 20),
                       ::testing::Values<std::size_t>(1, 10, 50)),
    [](const auto& info) {
      return FamilyName(std::get<0>(info.param)) + "_r" +
             std::to_string(std::get<1>(info.param)) + "_q" +
             std::to_string(std::get<2>(info.param));
    });

TEST_P(CsrPlusSweep, QueryBlockShapeAndDiagonalShift) {
  const auto [family, rank, num_queries] = GetParam();
  graph::Graph g = MakeGraph(family, 4321);
  core::CsrPlusOptions options;
  options.rank = rank;
  auto engine = core::CsrPlusEngine::Precompute(g, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  std::vector<Index> queries;
  for (std::size_t i = 0; i < num_queries; ++i) {
    queries.push_back(static_cast<Index>((7 * i + 3) %
                                         static_cast<std::size_t>(g.num_nodes())));
  }
  auto scores = engine->MultiSourceQuery(queries);
  ASSERT_TRUE(scores.ok());
  EXPECT_EQ(scores->rows(), g.num_nodes());
  EXPECT_EQ(scores->cols(), static_cast<Index>(num_queries));

  // The "+ [I]_{*,Q}" term: removing 1 from the query entry must leave the
  // same value the rank-r smooth part c Z U_q^T produces for other nodes —
  // i.e. S_{q,q} - 1 equals the engine's pair query without the identity.
  for (std::size_t j = 0; j < queries.size(); ++j) {
    auto pair = engine->SinglePairQuery(queries[j], queries[j]);
    ASSERT_TRUE(pair.ok());
    EXPECT_NEAR((*scores)(queries[j], static_cast<Index>(j)), *pair, 1e-12);
    EXPECT_GE(*pair, 1.0 - 1e-9);
  }
}

TEST_P(CsrPlusSweep, SingleAndMultiSourceConsistent) {
  const auto [family, rank, num_queries] = GetParam();
  graph::Graph g = MakeGraph(family, 999);
  core::CsrPlusOptions options;
  options.rank = rank;
  auto engine = core::CsrPlusEngine::Precompute(g, options);
  ASSERT_TRUE(engine.ok());
  // The probe's column alone (a one-wide block) and as the first column of
  // a num_queries-wide batch.
  const Index probe = 11;
  std::vector<Index> batch = {probe};
  for (std::size_t i = 1; i < num_queries; ++i) {
    batch.push_back(static_cast<Index>((7 * i + 3) %
                                       static_cast<std::size_t>(g.num_nodes())));
  }
  auto column = csrplus::testing::QueryColumn(*engine, probe);
  auto block = engine->MultiSourceQuery(batch);
  ASSERT_TRUE(column.ok() && block.ok());
  for (Index i = 0; i < g.num_nodes(); ++i) {
    EXPECT_NEAR((*block)(i, 0), (*column)[static_cast<std::size_t>(i)], 1e-12);
  }
}

// ------------------------------------------------------------------------
// Rank-accuracy monotonicity across damping factors (Table 3's trend).

class RankAccuracySweep : public ::testing::TestWithParam<double> {};

INSTANTIATE_TEST_SUITE_P(Damping, RankAccuracySweep,
                         ::testing::Values(0.4, 0.6, 0.8),
                         [](const auto& info) {
                           return "c" + std::to_string(static_cast<int>(
                                            info.param * 10));
                         });

TEST_P(RankAccuracySweep, AvgDiffShrinksWithRank) {
  const double damping = GetParam();
  graph::Graph g = MakeGraph(GraphFamily::kErdosRenyi, 31337);
  CsrMatrix q = graph::ColumnNormalizedTransition(g);

  core::CoSimRankOptions exact_options;
  exact_options.damping = damping;
  exact_options.epsilon = 1e-12;
  std::vector<Index> queries = {5, 15, 25, 35};
  auto exact = core::ReferenceEngine(&q, exact_options).MultiSourceQuery(queries);
  ASSERT_TRUE(exact.ok());

  double prev = 1e300;
  for (Index rank : {5, 20, 60, 120}) {
    core::CsrPlusOptions options;
    options.rank = rank;
    options.damping = damping;
    options.epsilon = 1e-10;
    auto engine = core::CsrPlusEngine::PrecomputeFromTransition(q, options);
    ASSERT_TRUE(engine.ok());
    auto approx = engine->MultiSourceQuery(queries);
    ASSERT_TRUE(approx.ok());
    const double err = eval::AvgDiff(*approx, *exact);
    EXPECT_LE(err, prev + 1e-9) << "rank " << rank;
    prev = err;
  }
  EXPECT_LT(prev, 1e-5);
}

}  // namespace
}  // namespace csrplus
