// End-to-end integration: SNAP edge-list file -> graph -> CSR+ engine ->
// top-k answers, exercising IO, normalisation, SVD, the engine and top-k
// selection together the way the CLI and a downstream application would.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/cosimrank.h"
#include "core/csrplus_engine.h"
#include "core/dynamic_engine.h"
#include "eval/metrics.h"
#include "graph/io.h"
#include "graph/normalize.h"
#include "test_util.h"

namespace csrplus {
namespace {

using linalg::Index;

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("csrplus_integration_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

TEST_F(IntegrationTest, SnapFileToTopKAnswers) {
  // Write the Figure 1 graph as a SNAP file with non-contiguous ids
  // (10x the compact ids), load, index, query.
  {
    std::ofstream out(Path("wiki.txt"));
    out << "# wiki talk toy graph\n";
    for (auto [u, v] : std::vector<std::pair<int, int>>{
             {30, 0}, {0, 10}, {20, 10}, {40, 10}, {30, 20}, {0, 30},
             {40, 30}, {50, 30}, {20, 40}, {50, 40}, {30, 50}}) {
      out << u << "\t" << v << "\n";
    }
  }
  std::vector<int64_t> ids;
  auto graph = graph::LoadSnapEdgeList(Path("wiki.txt"), {}, &ids);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_nodes(), 6);
  EXPECT_EQ(graph->num_edges(), 11);

  core::CsrPlusOptions options;
  options.rank = 3;
  auto engine = core::CsrPlusEngine::Precompute(*graph, options);
  ASSERT_TRUE(engine.ok());

  // Query original id 10 (node b): the most similar node must be original
  // id 30 (node d) — the Example 3.6 outcome.
  Index b_compact = -1, d_compact = -1;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] == 10) b_compact = static_cast<Index>(i);
    if (ids[i] == 30) d_compact = static_cast<Index>(i);
  }
  ASSERT_NE(b_compact, -1);
  ASSERT_NE(d_compact, -1);
  auto top = csrplus::testing::TopKPerQuery(*engine, {b_compact}, 1);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ((*top)[0].size(), 1u);
  EXPECT_EQ((*top)[0][0].node, d_compact);
  EXPECT_NEAR((*top)[0][0].score, 0.485, 0.01);
}

TEST_F(IntegrationTest, BinaryCacheRoundTripPreservesScores) {
  graph::Graph g = csrplus::testing::RandomGraph(80, 500, 11);
  ASSERT_TRUE(graph::SaveBinary(g, Path("g.csrg")).ok());
  auto reloaded = graph::LoadBinary(Path("g.csrg"));
  ASSERT_TRUE(reloaded.ok());

  core::CsrPlusOptions options;
  options.rank = 8;
  auto engine_a = core::CsrPlusEngine::Precompute(g, options);
  auto engine_b = core::CsrPlusEngine::Precompute(*reloaded, options);
  ASSERT_TRUE(engine_a.ok() && engine_b.ok());
  auto s_a = engine_a->MultiSourceQuery({1, 2, 3});
  auto s_b = engine_b->MultiSourceQuery({1, 2, 3});
  ASSERT_TRUE(s_a.ok() && s_b.ok());
  // Identical graph bytes + seeded SVD => bit-identical scores.
  EXPECT_EQ(eval::MaxDiff(*s_a, *s_b), 0.0);
}

TEST_F(IntegrationTest, StaticAndDynamicPipelinesConverge) {
  // Build a graph, evolve a copy edge by edge through the dynamic engine,
  // and check the final answers match a static engine on the final graph
  // after the dynamic engine's forced rebuild.
  graph::Graph g = csrplus::testing::RandomGraph(50, 250, 13);
  core::DynamicOptions dynamic_options;
  dynamic_options.base.rank = 10;
  dynamic_options.max_incremental_updates = 2;  // force rebuilds
  auto dynamic = core::DynamicCsrPlusEngine::Build(g, dynamic_options);
  ASSERT_TRUE(dynamic.ok());

  std::vector<std::pair<Index, Index>> extra = {
      {1, 2}, {3, 4}, {5, 6}, {7, 8}, {9, 10}, {11, 12}};
  graph::GraphBuilder mirror(g.num_nodes());
  for (Index u = 0; u < g.num_nodes(); ++u) {
    for (int32_t v : g.OutNeighbors(u)) mirror.AddEdge(u, v);
  }
  std::vector<core::EdgeUpdate> batch;
  for (auto [u, v] : extra) {
    batch.push_back(core::EdgeUpdate::Insert(u, v));
    mirror.AddEdge(u, v);
  }
  auto receipt = dynamic->ApplyUpdates(batch);
  ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
  EXPECT_TRUE(receipt->rebuilt);  // budget of 2 forces rebuilds mid-batch
  EXPECT_GE(dynamic->rebuild_count(), 2);

  auto final_graph = mirror.Build();
  ASSERT_TRUE(final_graph.ok());
  auto fixed =
      core::CsrPlusEngine::Precompute(*final_graph, dynamic_options.base);
  ASSERT_TRUE(fixed.ok());
  auto s_dynamic = dynamic->engine().MultiSourceQuery({2, 4, 6});
  auto s_static = fixed->MultiSourceQuery({2, 4, 6});
  ASSERT_TRUE(s_dynamic.ok() && s_static.ok());
  EXPECT_LT(eval::AvgDiff(*s_dynamic, *s_static), 5e-3);
}

TEST_F(IntegrationTest, ExactAgreementAcrossWholePipeline) {
  // Full-rank CSR+ over a freshly loaded file equals the exact reference.
  {
    std::ofstream out(Path("er.txt"));
    Rng rng(17);
    for (int e = 0; e < 200; ++e) {
      out << rng.Below(40) << " " << rng.Below(40) << "\n";
    }
  }
  auto graph = graph::LoadSnapEdgeList(Path("er.txt"));
  ASSERT_TRUE(graph.ok());
  const Index n = graph->num_nodes();

  core::CsrPlusOptions options;
  options.rank = n;
  options.epsilon = 1e-10;
  auto engine = core::CsrPlusEngine::Precompute(*graph, options);
  ASSERT_TRUE(engine.ok());

  linalg::CsrMatrix transition = graph::ColumnNormalizedTransition(*graph);
  core::CoSimRankOptions exact_options;
  exact_options.epsilon = 1e-12;
  std::vector<Index> queries = {0, n / 2, n - 1};
  auto exact = core::ReferenceEngine(&transition, exact_options).MultiSourceQuery(queries);
  auto approx = engine->MultiSourceQuery(queries);
  ASSERT_TRUE(exact.ok() && approx.ok());
  EXPECT_LT(eval::MaxDiff(*approx, *exact), 1e-5);
}

}  // namespace
}  // namespace csrplus
