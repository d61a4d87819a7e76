#include "core/cosimrank.h"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/normalize.h"
#include "test_util.h"

namespace csrplus::core {
namespace {

using csrplus::testing::Figure1Graph;
using csrplus::testing::MatricesNear;
using csrplus::testing::RandomGraph;

CsrMatrix Figure1Transition() {
  return graph::ColumnNormalizedTransition(Figure1Graph());
}

// Engine-based helpers used throughout this file; the deprecated free
// functions are exercised exactly once, in DeprecatedWrappersTest below.
Result<std::vector<double>> SingleSource(const CsrMatrix& q, Index node,
                                         const CoSimRankOptions& options) {
  return csrplus::testing::QueryColumn(ReferenceEngine(&q, options), node);
}

Result<DenseMatrix> MultiSource(const CsrMatrix& q,
                                const std::vector<Index>& queries,
                                const CoSimRankOptions& options) {
  return ReferenceEngine(&q, options).MultiSourceQuery(queries);
}

TEST(ResolveIterationsTest, EpsilonDrivenCount) {
  CoSimRankOptions options;
  options.damping = 0.6;
  options.epsilon = 1e-5;
  // 0.6^K <= 1e-5  =>  K >= 22.54...  => 23.
  EXPECT_EQ(ResolveIterations(options), 23);
}

TEST(ResolveIterationsTest, ExplicitOverrideWins) {
  CoSimRankOptions options;
  options.iterations = 7;
  EXPECT_EQ(ResolveIterations(options), 7);
}

TEST(ValidateOptionsTest, RejectsBadDampingAndEpsilon) {
  CoSimRankOptions options;
  options.damping = 1.0;
  EXPECT_FALSE(ValidateOptions(options).ok());
  options.damping = 0.6;
  options.epsilon = 0.0;
  options.iterations = 0;
  EXPECT_FALSE(ValidateOptions(options).ok());
  options.iterations = 3;  // explicit iterations make epsilon irrelevant
  EXPECT_TRUE(ValidateOptions(options).ok());
}

TEST(SingleSourceTest, SelfSimilarityAtLeastOne) {
  CsrMatrix q = Figure1Transition();
  CoSimRankOptions options;
  for (Index node = 0; node < 6; ++node) {
    auto scores = SingleSource(q, node, options);
    ASSERT_TRUE(scores.ok());
    EXPECT_GE((*scores)[static_cast<std::size_t>(node)], 1.0);
  }
}

TEST(SingleSourceTest, SelfSimilarityDominatesColumn) {
  // The paper: [S]_{a,a} exceeds [S]_{a,x} for any other x.
  CsrMatrix q = Figure1Transition();
  CoSimRankOptions options;
  for (Index node = 0; node < 6; ++node) {
    auto scores = SingleSource(q, node, options);
    ASSERT_TRUE(scores.ok());
    for (Index x = 0; x < 6; ++x) {
      if (x == node) continue;
      EXPECT_LT((*scores)[static_cast<std::size_t>(x)],
                (*scores)[static_cast<std::size_t>(node)]);
    }
  }
}

TEST(SingleSourceTest, MatchesDefinitionSeries) {
  // Compare against a direct evaluation of Eq.(3):
  // [S]_{x,q} = sum_k c^k <p_x^(k), p_q^(k)>.
  CsrMatrix q = Figure1Transition();
  const double c = 0.6;
  const int kmax = 40;
  const Index n = 6;

  // All PPR iterate vectors for every node.
  std::vector<std::vector<std::vector<double>>> ppr(
      static_cast<std::size_t>(n));
  for (Index a = 0; a < n; ++a) {
    std::vector<double> p(static_cast<std::size_t>(n), 0.0);
    p[static_cast<std::size_t>(a)] = 1.0;
    for (int k = 0; k <= kmax; ++k) {
      ppr[static_cast<std::size_t>(a)].push_back(p);
      p = q.Multiply(p);
    }
  }
  CoSimRankOptions options;
  options.iterations = kmax;
  const Index query = 1;  // node b
  auto scores = SingleSource(q, query, options);
  ASSERT_TRUE(scores.ok());
  for (Index x = 0; x < n; ++x) {
    double expected = 0.0;
    double ck = 1.0;
    for (int k = 0; k <= kmax; ++k) {
      double dot = 0.0;
      for (Index i = 0; i < n; ++i) {
        dot += ppr[static_cast<std::size_t>(x)][static_cast<std::size_t>(k)]
                  [static_cast<std::size_t>(i)] *
               ppr[static_cast<std::size_t>(query)][static_cast<std::size_t>(k)]
                  [static_cast<std::size_t>(i)];
      }
      expected += ck * dot;
      ck *= c;
    }
    EXPECT_NEAR((*scores)[static_cast<std::size_t>(x)], expected, 1e-9);
  }
}

TEST(SingleSourceTest, RejectsBadQuery) {
  CsrMatrix q = Figure1Transition();
  CoSimRankOptions options;
  EXPECT_TRUE(SingleSource(q, -1, options).status().IsInvalidArgument());
  EXPECT_TRUE(SingleSource(q, 6, options).status().IsInvalidArgument());
}

TEST(MultiSourceTest, ColumnsMatchSingleSource) {
  CsrMatrix q = graph::ColumnNormalizedTransition(RandomGraph(60, 300, 5));
  CoSimRankOptions options;
  options.iterations = 12;
  std::vector<Index> queries = {3, 17, 42};
  auto block = MultiSource(q, queries, options);
  ASSERT_TRUE(block.ok());
  for (std::size_t j = 0; j < queries.size(); ++j) {
    auto column = SingleSource(q, queries[j], options);
    ASSERT_TRUE(column.ok());
    for (Index i = 0; i < 60; ++i) {
      EXPECT_NEAR((*block)(i, static_cast<Index>(j)),
                  (*column)[static_cast<std::size_t>(i)], 1e-12);
    }
  }
}

TEST(MultiSourceTest, EmptyQuerySetRejected) {
  CsrMatrix q = Figure1Transition();
  CoSimRankOptions options;
  EXPECT_TRUE(MultiSource(q, {}, options).status().IsInvalidArgument());
}

TEST(SinglePairTest, MatchesSingleSourceEntry) {
  CsrMatrix q = Figure1Transition();
  CoSimRankOptions options;
  options.iterations = 25;
  for (Index a = 0; a < 6; ++a) {
    auto column = SingleSource(q, a, options);
    ASSERT_TRUE(column.ok());
    for (Index b = 0; b < 6; ++b) {
      auto pair = SinglePairCoSimRank(q, b, a, options);
      ASSERT_TRUE(pair.ok());
      EXPECT_NEAR(*pair, (*column)[static_cast<std::size_t>(b)], 1e-10);
    }
  }
}

TEST(SinglePairTest, Symmetric) {
  CsrMatrix q = graph::ColumnNormalizedTransition(RandomGraph(40, 200, 9));
  CoSimRankOptions options;
  options.iterations = 15;
  auto ab = SinglePairCoSimRank(q, 5, 11, options);
  auto ba = SinglePairCoSimRank(q, 11, 5, options);
  ASSERT_TRUE(ab.ok() && ba.ok());
  EXPECT_NEAR(*ab, *ba, 1e-12);
}

TEST(AllPairsTest, AgreesWithPerQueryScheme) {
  CsrMatrix q = graph::ColumnNormalizedTransition(RandomGraph(30, 120, 13));
  CoSimRankOptions options;
  options.iterations = 10;
  auto s = AllPairsCoSimRank(q, options);
  ASSERT_TRUE(s.ok());
  std::vector<Index> all(30);
  for (Index i = 0; i < 30; ++i) all[static_cast<std::size_t>(i)] = i;
  auto block = MultiSource(q, all, options);
  ASSERT_TRUE(block.ok());
  EXPECT_TRUE(MatricesNear(*s, *block, 1e-10));
}

TEST(AllPairsTest, SatisfiesFixedPointEquation) {
  // S must satisfy S = c Q^T S Q + I to within the series truncation.
  CsrMatrix q = Figure1Transition();
  CoSimRankOptions options;
  options.epsilon = 1e-12;
  auto s = AllPairsCoSimRank(q, options);
  ASSERT_TRUE(s.ok());
  DenseMatrix qts = q.MultiplyTransposeDense(*s);
  DenseMatrix qtsq = q.MultiplyTransposeDense(qts.Transposed());
  linalg::ScaleInPlace(0.6, &qtsq);
  for (Index i = 0; i < 6; ++i) qtsq(i, i) += 1.0;
  EXPECT_TRUE(MatricesNear(*s, qtsq, 1e-10));
}

}  // namespace
}  // namespace csrplus::core
