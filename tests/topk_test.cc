#include "core/topk.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "test_util.h"

namespace csrplus::core {
namespace {

TEST(TopKTest, ReturnsDescendingScores) {
  std::vector<double> scores = {0.1, 0.9, 0.5, 0.7, 0.2};
  auto top = TopK(scores, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].node, 1);
  EXPECT_EQ(top[1].node, 3);
  EXPECT_EQ(top[2].node, 2);
  EXPECT_DOUBLE_EQ(top[0].score, 0.9);
}

TEST(TopKTest, KLargerThanInputReturnsAllSorted) {
  std::vector<double> scores = {0.3, 0.1, 0.2};
  auto top = TopK(scores, 10);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].node, 0);
  EXPECT_EQ(top[2].node, 1);
}

TEST(TopKTest, HostileKReturnsAllNodesWithoutReservingK) {
  // k arrives unchecked from the wire; INT32_MAX must not size the heap.
  std::vector<double> scores(100);
  for (std::size_t i = 0; i < scores.size(); ++i) {
    scores[i] = static_cast<double>((i * 37) % 100);
  }
  const auto top = TopK(scores, std::numeric_limits<int32_t>::max());
  ASSERT_EQ(top.size(), 100u);
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GT(top[i - 1].score, top[i].score);
  }
}

TEST(TopKTest, KZeroReturnsEmpty) {
  EXPECT_TRUE(TopK({1.0, 2.0}, 0).empty());
}

TEST(TopKTest, TiesBrokenByLowerNodeId) {
  std::vector<double> scores = {0.5, 0.7, 0.5, 0.5};
  auto top = TopK(scores, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].node, 1);
  EXPECT_EQ(top[1].node, 0);
  EXPECT_EQ(top[2].node, 2);
}

TEST(TopKTest, ExcludeListSkipsNodes) {
  std::vector<double> scores = {0.9, 0.8, 0.7, 0.6};
  auto top = TopK(scores, 2, /*exclude=*/{0, 2});
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].node, 1);
  EXPECT_EQ(top[1].node, 3);
}

TEST(TopKTest, NegativeScoresHandled) {
  std::vector<double> scores = {-3.0, -1.0, -2.0};
  auto top = TopK(scores, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].node, 1);
  EXPECT_EQ(top[1].node, 2);
}

TEST(TopKTest, MatchesFullSortOnLargeInput) {
  csrplus::Rng rng(99);
  std::vector<double> scores(5000);
  for (double& s : scores) s = rng.Uniform();
  auto top = TopK(scores, 25);
  std::vector<double> sorted = scores;
  std::sort(sorted.rbegin(), sorted.rend());
  ASSERT_EQ(top.size(), 25u);
  for (std::size_t i = 0; i < 25; ++i) {
    EXPECT_DOUBLE_EQ(top[i].score, sorted[i]);
  }
}

TEST(TopKOfColumnTest, SelectsColumn) {
  linalg::DenseMatrix m{{0.1, 0.9}, {0.8, 0.2}, {0.3, 0.7}};
  auto top = TopKOfColumn(m, 1, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].node, 0);
  EXPECT_EQ(top[1].node, 2);
}

TEST(TopKOfColumnTest, ExcludeAppliesToColumn) {
  linalg::DenseMatrix m{{0.9}, {0.8}, {0.7}};
  auto top = TopKOfColumn(m, 0, 2, {0});
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].node, 1);
}

}  // namespace
}  // namespace csrplus::core
