#include "eval/runner.h"

#include <gtest/gtest.h>

#include "common/memory.h"
#include "eval/metrics.h"
#include "graph/normalize.h"
#include "test_util.h"

namespace csrplus::eval {
namespace {

using csrplus::testing::RandomGraph;
using service::EngineKindName;

class RunnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = csrplus::testing::RandomGraph(80, 500, 21);
    transition_ = graph::ColumnNormalizedTransition(graph_);
    queries_ = {3, 17, 42, 77};
  }
  graph::Graph graph_;
  CsrMatrix transition_;
  std::vector<Index> queries_;
};

TEST_F(RunnerTest, MethodNamesAreStable) {
  EXPECT_EQ(EngineKindName(EngineKind::kCsrPlus), "CSR+");
  EXPECT_EQ(EngineKindName(EngineKind::kCsrNi), "CSR-NI");
  EXPECT_EQ(EngineKindName(EngineKind::kCsrIt), "CSR-IT");
  EXPECT_EQ(EngineKindName(EngineKind::kCsrRls), "CSR-RLS");
  EXPECT_EQ(EngineKindName(EngineKind::kCoSimMate), "CoSimMate");
  EXPECT_EQ(EngineKindName(EngineKind::kRpCoSim), "RP-CoSim");
  EXPECT_EQ(EngineKindName(EngineKind::kDynamic), "CSR+dyn");
}

TEST_F(RunnerTest, PaperMethodsListsTheFourRivals) {
  const auto& methods = PaperMethods();
  ASSERT_EQ(methods.size(), 4u);
  EXPECT_EQ(methods[0], EngineKind::kCsrPlus);
}

TEST_F(RunnerTest, EveryMethodProducesScores) {
  RunConfig config;
  config.ni_fidelity = baselines::NiFidelity::kMixedProduct;
  for (EngineKind method :
       {EngineKind::kCsrPlus, EngineKind::kCsrNi, EngineKind::kCsrIt,
        EngineKind::kCsrRls, EngineKind::kCoSimMate, EngineKind::kRpCoSim,
        EngineKind::kDynamic}) {
    RunOutcome outcome = RunMethod(method, transition_, queries_, config);
    ASSERT_TRUE(outcome.status.ok())
        << EngineKindName(method) << ": " << outcome.status.ToString();
    EXPECT_EQ(outcome.scores.rows(), 80) << EngineKindName(method);
    EXPECT_EQ(outcome.scores.cols(), 4) << EngineKindName(method);
    EXPECT_GE(outcome.total_seconds(), 0.0);
  }
}

TEST_F(RunnerTest, ExactMethodsProduceIdenticalScores) {
  RunConfig config;
  RunOutcome it = RunMethod(EngineKind::kCsrIt, transition_, queries_, config);
  RunOutcome rls = RunMethod(EngineKind::kCsrRls, transition_,
                             queries_, config);
  ASSERT_TRUE(it.status.ok() && rls.status.ok());
  EXPECT_LT(MaxDiff(it.scores, rls.scores), 1e-10);
}

TEST_F(RunnerTest, CsrPlusTracksExactWithinRankError) {
  RunConfig config;
  config.rank = 80;  // full rank: only the series truncation remains
  RunOutcome plus = RunMethod(EngineKind::kCsrPlus, transition_,
                              queries_, config);
  RunOutcome it = RunMethod(EngineKind::kCsrIt, transition_, queries_, config);
  ASSERT_TRUE(plus.status.ok() && it.status.ok());
  EXPECT_LT(AvgDiff(plus.scores, it.scores), 1e-3);
}

TEST_F(RunnerTest, MemoryFailureSurfacesAsResourceExhausted) {
  MemoryBudget& budget = MemoryBudget::Global();
  const int64_t old_limit = budget.limit_bytes();
  budget.SetLimit(1 << 10);
  RunConfig config;
  RunOutcome outcome = RunMethod(EngineKind::kCsrIt, transition_,
                                 queries_, config);
  budget.SetLimit(old_limit);
  ASSERT_FALSE(outcome.status.ok());
  EXPECT_TRUE(outcome.status.IsResourceExhausted());
  EXPECT_EQ(OutcomeLabel(outcome), "FAIL(mem)");
}

TEST_F(RunnerTest, OutcomeLabelForSuccess) {
  RunConfig config;
  RunOutcome outcome = RunMethod(EngineKind::kCsrPlus, transition_,
                                 queries_, config);
  EXPECT_EQ(OutcomeLabel(outcome), "OK");
}

TEST_F(RunnerTest, KeepScoresFalseDropsBlock) {
  RunConfig config;
  config.keep_scores = false;
  RunOutcome outcome = RunMethod(EngineKind::kCsrPlus, transition_,
                                 queries_, config);
  ASSERT_TRUE(outcome.status.ok());
  EXPECT_TRUE(outcome.scores.empty());
}

TEST_F(RunnerTest, CsrRlsHasNoPrecomputePhase) {
  RunConfig config;
  RunOutcome outcome = RunMethod(EngineKind::kCsrRls, transition_,
                                 queries_, config);
  ASSERT_TRUE(outcome.status.ok());
  // The RLS engine keeps no precomputed state: building it is just wrapping
  // a pointer, so the precompute phase is negligible (microseconds) and all
  // real work lands in the query phase.
  EXPECT_LT(outcome.precompute.seconds, 0.01);
  EXPECT_GT(outcome.query.seconds, 0.0);
}

}  // namespace
}  // namespace csrplus::eval
