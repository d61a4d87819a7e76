// Conformance tests for the core::QueryEngine interface: every engine (CSR+,
// the five baselines and the dynamic engine) must honour the same contract,
// because the service layer batches through it blindly.

#include "core/query_engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "core/csrplus_engine.h"
#include "graph/normalize.h"
#include "service/engine_registry.h"
#include "test_util.h"

namespace csrplus::core {
namespace {

using csrplus::testing::MatricesNear;
using csrplus::testing::RandomGraph;
using csrplus::testing::ScopedKernelIsa;
using linalg::CsrMatrix;
using linalg::DenseMatrix;
using service::EngineKind;

// Every engine must honour the contract under every kernel ISA this machine
// can run — the batching and caching layers assume bit-stable answers no
// matter which dispatch table is live.
class QueryEngineConformanceTest
    : public ::testing::TestWithParam<
          std::tuple<EngineKind, linalg::kernels::Isa>> {
 protected:
  void SetUp() override {
    const linalg::kernels::Isa isa = std::get<1>(GetParam());
    if (!linalg::kernels::IsaCompiled(isa)) {
      GTEST_SKIP() << linalg::kernels::IsaName(isa)
                   << " kernels were not compiled into this binary";
    }
    if (!linalg::kernels::IsaSupported(isa)) {
      GTEST_SKIP() << "this CPU cannot execute " << linalg::kernels::IsaName(isa)
                   << " — conformance for that ISA is unverified on this host";
    }
    isa_.emplace(isa);
    graph_ = RandomGraph(60, 360, 7);
    transition_ = graph::ColumnNormalizedTransition(graph_);
    service::EngineConfig config;
    config.ni_fidelity = baselines::NiFidelity::kMixedProduct;
    auto engine = service::BuildEngine(Kind(), transition_, config);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = std::move(*engine);
  }

  EngineKind Kind() const { return std::get<0>(GetParam()); }

  std::optional<ScopedKernelIsa> isa_;
  graph::Graph graph_;
  CsrMatrix transition_;
  std::unique_ptr<QueryEngine> engine_;
};

TEST_P(QueryEngineConformanceTest, ReportsNameAndNodeCount) {
  EXPECT_EQ(engine_->Name(), service::EngineKindName(Kind()));
  EXPECT_EQ(engine_->NumNodes(), 60);
}

TEST_P(QueryEngineConformanceTest, ColumnJDependsOnlyOnQueryJ) {
  // The batching contract: column j of a multi-source result equals the
  // single-query result for queries[j], bit for bit, regardless of what
  // other queries share the batch.
  auto wide = engine_->MultiSourceQuery({5, 23, 41});
  ASSERT_TRUE(wide.ok()) << wide.status().ToString();
  for (std::size_t j = 0; j < 3; ++j) {
    const Index q = std::vector<Index>{5, 23, 41}[j];
    auto alone = engine_->MultiSourceQuery({q});
    ASSERT_TRUE(alone.ok()) << alone.status().ToString();
    for (Index i = 0; i < engine_->NumNodes(); ++i) {
      EXPECT_EQ((*wide)(i, static_cast<Index>(j)), (*alone)(i, 0))
          << "row " << i << " query " << q;
    }
  }
}

TEST_P(QueryEngineConformanceTest, StateFingerprintIsStableAndShared) {
  // Stable across calls, and equal for a second engine built identically —
  // the property that lets a column cache survive an engine swap. Engines
  // that do not implement the hook return 0 ("never cache") both times.
  const uint64_t fp = engine_->StateFingerprint();
  EXPECT_EQ(fp, engine_->StateFingerprint());
  service::EngineConfig config;
  config.ni_fidelity = baselines::NiFidelity::kMixedProduct;
  auto twin = service::BuildEngine(Kind(), transition_, config);
  ASSERT_TRUE(twin.ok()) << twin.status().ToString();
  EXPECT_EQ((*twin)->StateFingerprint(), fp);
}

TEST_P(QueryEngineConformanceTest, RejectsBadQuerySets) {
  EXPECT_TRUE(engine_->MultiSourceQuery({}).status().IsInvalidArgument());
  EXPECT_TRUE(engine_->MultiSourceQuery({-1}).status().IsInvalidArgument());
  EXPECT_TRUE(engine_->MultiSourceQuery({60}).status().IsInvalidArgument());
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, QueryEngineConformanceTest,
    ::testing::Combine(
        ::testing::Values(EngineKind::kCsrPlus, EngineKind::kCsrNi,
                          EngineKind::kCsrIt, EngineKind::kCsrRls,
                          EngineKind::kCoSimMate, EngineKind::kRpCoSim,
                          EngineKind::kDynamic),
        ::testing::ValuesIn(csrplus::testing::AllKernelIsas())),
    [](const ::testing::TestParamInfo<
        std::tuple<EngineKind, linalg::kernels::Isa>>& info) {
      std::string name(service::EngineKindName(std::get<0>(info.param)));
      for (char& c : name) {
        if (c == '+') c = 'p';
        if (c == '-') c = '_';
      }
      name += '_';
      name += linalg::kernels::IsaName(std::get<1>(info.param));
      return name;
    });

TEST_P(QueryEngineConformanceTest, AdvertisedCostAndAccuracyAreCoherent) {
  // The serving-tier contract (docs/serving-tiers.md): cost models are
  // non-negative and monotone in the batch width, and accuracy tags pair
  // "exact" with a zero bound / "approximate" with a positive one.
  const CostModel one = engine_->EstimateCost(1);
  const CostModel four = engine_->EstimateCost(4);
  EXPECT_GE(one.batch_cost, 0.0);
  EXPECT_GE(one.per_query_cost, 0.0);
  if (one.advertised()) {
    EXPECT_GE(four.batch_cost + 4.0 * four.per_query_cost,
              one.batch_cost + one.per_query_cost);
  }
  const AccuracyTag tag = engine_->Accuracy();
  if (tag.exact()) {
    EXPECT_EQ(tag.error_bound, 0.0);
  } else {
    EXPECT_GT(tag.error_bound, 0.0);
  }
}

TEST(CostModelTest, CsrPlusAdvertisesTheoremCostAndExactAccuracy) {
  auto graph = RandomGraph(60, 360, 7);
  CsrPlusOptions options;
  options.rank = 8;
  auto engine = CsrPlusEngine::Precompute(graph, options);
  ASSERT_TRUE(engine.ok());
  // Theorem 3.5 query shape: n (r + 1) fused multiply-adds per column.
  const CostModel cost = engine->EstimateCost(3);
  EXPECT_TRUE(cost.advertised());
  EXPECT_DOUBLE_EQ(cost.per_query_cost, 60.0 * 9.0);
  EXPECT_DOUBLE_EQ(cost.batch_cost, 3.0 * 60.0 * 9.0);
  EXPECT_TRUE(engine->Accuracy().exact());
  EXPECT_EQ(engine->Accuracy().error_bound, 0.0);
}

TEST(CostModelTest, UnadvertisedDefaultIsAllZero) {
  const CostModel none;
  EXPECT_FALSE(none.advertised());
  EXPECT_EQ(none.batch_cost, 0.0);
  EXPECT_EQ(none.per_query_cost, 0.0);
}

TEST(CostModelTest, DynamicEngineDelegatesToItsInnerEngine) {
  auto graph = RandomGraph(60, 360, 7);
  auto dynamic = service::BuildEngine(EngineKind::kDynamic,
                                     graph::ColumnNormalizedTransition(graph),
                                     service::EngineConfig{});
  ASSERT_TRUE(dynamic.ok()) << dynamic.status().ToString();
  const CostModel cost = (*dynamic)->EstimateCost(2);
  EXPECT_TRUE(cost.advertised());
  EXPECT_DOUBLE_EQ(cost.batch_cost, 2.0 * cost.per_query_cost);
  EXPECT_TRUE((*dynamic)->Accuracy().exact());
}

TEST(ValidateQueriesTest, AcceptsValidSets) {
  EXPECT_TRUE(ValidateQueries({0, 5, 9}, 10).ok());
  EXPECT_TRUE(ValidateQueries({3, 3}, 10).ok());  // duplicates allowed
}

TEST(ValidateQueriesTest, RejectsEmptyAndOutOfRange) {
  EXPECT_TRUE(ValidateQueries({}, 10).IsInvalidArgument());
  EXPECT_TRUE(ValidateQueries({10}, 10).IsInvalidArgument());
  EXPECT_TRUE(ValidateQueries({-1}, 10).IsInvalidArgument());
}

TEST(ValidateQueriesTest, RejectsDuplicatesWhenAsked) {
  EXPECT_TRUE(
      ValidateQueries({3, 3}, 10, QueryDuplicates::kReject).IsInvalidArgument());
  EXPECT_TRUE(ValidateQueries({1, 2, 3}, 10, QueryDuplicates::kReject).ok());
}

TEST(CsrPlusOptionsTest, ValidateCatchesBadParameters) {
  CsrPlusOptions options;
  EXPECT_TRUE(options.Validate().ok());

  options.rank = 0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options.rank = 5;

  options.damping = 1.0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options.damping = 0.0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options.damping = 0.6;

  options.epsilon = 0.0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options.epsilon = 1e-5;

  options.num_threads = -1;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options.num_threads = 0;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(CsrPlusOptionsTest, PrecomputeRejectsInvalidOptions) {
  auto graph = csrplus::testing::Figure1Graph();
  CsrPlusOptions options;
  options.damping = 2.0;
  auto engine = CsrPlusEngine::Precompute(graph, options);
  EXPECT_TRUE(engine.status().IsInvalidArgument());
}

}  // namespace
}  // namespace csrplus::core
