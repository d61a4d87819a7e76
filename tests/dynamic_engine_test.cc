#include "core/dynamic_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/cosimrank.h"
#include "eval/metrics.h"
#include "graph/normalize.h"
#include "service/engine_registry.h"
#include "test_util.h"

namespace csrplus::core {
namespace {

using csrplus::testing::Figure1Graph;
using csrplus::testing::RandomGraph;

DynamicOptions DefaultOptions(Index rank = 6) {
  DynamicOptions options;
  options.base.rank = rank;
  options.base.epsilon = 1e-8;
  options.base.svd.power_iterations = 4;
  return options;
}

// Single-update convenience over the batched mutation API.
Result<UpdateReceipt> ApplyOne(DynamicCsrPlusEngine* dynamic,
                               const EdgeUpdate& update) {
  return dynamic->ApplyUpdates({&update, 1});
}

// First `k` node pairs (u, v), u != v, with no edge u -> v in `g` — inserts
// of these are guaranteed effective.
std::vector<std::pair<Index, Index>> AbsentEdges(const graph::Graph& g,
                                                 std::size_t k) {
  std::vector<std::pair<Index, Index>> out;
  for (Index u = 0; u < g.num_nodes() && out.size() < k; ++u) {
    const auto& nbrs = g.OutNeighbors(u);
    for (Index v = 0; v < g.num_nodes() && out.size() < k; ++v) {
      if (u == v) continue;
      if (std::find(nbrs.begin(), nbrs.end(), static_cast<int32_t>(v)) ==
          nbrs.end()) {
        out.emplace_back(u, v);
      }
    }
  }
  return out;
}

// Rebuilds a Graph equal to `dynamic`'s current edge set via a reference
// builder plus the applied insertions — used to compute ground truth.
graph::Graph WithExtraEdges(const graph::Graph& base,
                            const std::vector<std::pair<Index, Index>>& extra) {
  graph::GraphBuilder builder(base.num_nodes());
  for (Index u = 0; u < base.num_nodes(); ++u) {
    for (int32_t v : base.OutNeighbors(u)) builder.AddEdge(u, v);
  }
  for (auto [u, v] : extra) builder.AddEdge(u, v);
  return std::move(*builder.Build());
}

TEST(DynamicEngineTest, BuildMatchesStaticEngine) {
  graph::Graph g = RandomGraph(40, 220, 1);
  auto dynamic = DynamicCsrPlusEngine::Build(g, DefaultOptions());
  ASSERT_TRUE(dynamic.ok()) << dynamic.status().ToString();

  CsrPlusOptions static_options = DefaultOptions().base;
  auto fixed = CsrPlusEngine::Precompute(g, static_options);
  ASSERT_TRUE(fixed.ok());

  std::vector<Index> queries = {3, 17, 39};
  auto s_dynamic = dynamic->engine().MultiSourceQuery(queries);
  auto s_static = fixed->MultiSourceQuery(queries);
  ASSERT_TRUE(s_dynamic.ok() && s_static.ok());
  // The dynamic engine sketches Q^T directly while the static one sketches
  // Q and swaps factors; the randomized projections differ, so the two
  // rank-6 subspaces — and the scores — agree only to truncation accuracy.
  EXPECT_LT(eval::AvgDiff(*s_dynamic, *s_static), 2e-3);
  EXPECT_LT(eval::MaxDiff(*s_dynamic, *s_static), 5e-2);
}

TEST(DynamicEngineTest, InsertTracksFullRecompute) {
  graph::Graph g = RandomGraph(35, 200, 2);
  auto dynamic = DynamicCsrPlusEngine::Build(g, DefaultOptions(8));
  ASSERT_TRUE(dynamic.ok());

  std::vector<std::pair<Index, Index>> inserted;
  Rng rng(99);
  for (int i = 0; i < 6; ++i) {
    const Index u = static_cast<Index>(rng.Below(35));
    Index v = static_cast<Index>(rng.Below(35));
    while (v == u) v = static_cast<Index>(rng.Below(35));
    ASSERT_TRUE(ApplyOne(&*dynamic, EdgeUpdate::Insert(u, v)).ok());
    inserted.emplace_back(u, v);
  }

  // Ground truth: static engine on the updated graph.
  graph::Graph updated = WithExtraEdges(g, inserted);
  auto fixed = CsrPlusEngine::Precompute(updated, DefaultOptions(8).base);
  ASSERT_TRUE(fixed.ok());

  std::vector<Index> queries = {5, 20};
  auto s_dynamic = dynamic->engine().MultiSourceQuery(queries);
  auto s_static = fixed->MultiSourceQuery(queries);
  ASSERT_TRUE(s_dynamic.ok() && s_static.ok());
  // Incremental factors track the true subspace approximately; scores agree
  // to a few decimal places on this small graph.
  EXPECT_LT(eval::AvgDiff(*s_dynamic, *s_static), 5e-3);
}

TEST(DynamicEngineTest, InsertAgainstExactCoSimRank) {
  // With near-full rank, the dynamically-maintained scores stay close to the
  // exact CoSimRank of the evolved graph.
  graph::Graph g = RandomGraph(25, 120, 3);
  auto dynamic = DynamicCsrPlusEngine::Build(g, DefaultOptions(24));
  ASSERT_TRUE(dynamic.ok());

  std::vector<std::pair<Index, Index>> inserted = {{0, 9}, {10, 3}, {17, 22}};
  std::vector<EdgeUpdate> batch;
  for (auto [u, v] : inserted) batch.push_back(EdgeUpdate::Insert(u, v));
  auto receipt = dynamic->ApplyUpdates(batch);
  ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
  EXPECT_EQ(receipt->effective_count, 3);
  graph::Graph updated = WithExtraEdges(g, inserted);
  CsrMatrix transition = graph::ColumnNormalizedTransition(updated);
  CoSimRankOptions exact_options;
  exact_options.epsilon = 1e-10;
  std::vector<Index> queries = {9, 3};
  auto exact = ReferenceEngine(&transition, exact_options).MultiSourceQuery(queries);
  ASSERT_TRUE(exact.ok());
  auto got = dynamic->engine().MultiSourceQuery(queries);
  ASSERT_TRUE(got.ok());
  EXPECT_LT(eval::AvgDiff(*got, *exact), 5e-3);
}

TEST(DynamicEngineTest, DuplicateInsertIsNoOp) {
  graph::Graph g = Figure1Graph();
  auto dynamic = DynamicCsrPlusEngine::Build(g, DefaultOptions(3));
  ASSERT_TRUE(dynamic.ok());
  const int64_t edges = dynamic->num_edges();
  const uint64_t fp = dynamic->StateFingerprint();
  auto receipt =
      ApplyOne(&*dynamic, EdgeUpdate::Insert(0, 1));  // a -> b already exists
  ASSERT_TRUE(receipt.ok());
  EXPECT_EQ(receipt->effective_count, 0);
  EXPECT_TRUE(receipt->touched_support.empty());
  EXPECT_EQ(receipt->fingerprint, fp);
  EXPECT_EQ(dynamic->num_edges(), edges);
  EXPECT_EQ(dynamic->updates_since_rebuild(), 0);
}

TEST(DynamicEngineTest, DeleteOfAbsentEdgeIsNoOp) {
  graph::Graph g = Figure1Graph();
  auto dynamic = DynamicCsrPlusEngine::Build(g, DefaultOptions(3));
  ASSERT_TRUE(dynamic.ok());
  const int64_t edges = dynamic->num_edges();
  const auto [u, v] = AbsentEdges(g, 1).at(0);
  auto receipt = ApplyOne(&*dynamic, EdgeUpdate::Delete(u, v));
  ASSERT_TRUE(receipt.ok());
  EXPECT_EQ(receipt->effective_count, 0);
  EXPECT_EQ(dynamic->num_edges(), edges);
}

TEST(DynamicEngineTest, InsertThenDeleteRestoresAnswers) {
  // An insert followed by its delete returns to the original edge set; the
  // incrementally-maintained scores must track a recompute of that set.
  graph::Graph g = RandomGraph(30, 160, 11);
  auto dynamic = DynamicCsrPlusEngine::Build(g, DefaultOptions(8));
  ASSERT_TRUE(dynamic.ok());

  const auto [u, v] = AbsentEdges(g, 1).at(0);
  const std::vector<EdgeUpdate> batch = {EdgeUpdate::Insert(u, v),
                                         EdgeUpdate::Delete(u, v)};
  auto receipt = dynamic->ApplyUpdates(batch);
  ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
  EXPECT_EQ(receipt->effective_count, 2);
  EXPECT_EQ(dynamic->num_edges(), g.num_edges());

  auto fixed = CsrPlusEngine::Precompute(g, DefaultOptions(8).base);
  ASSERT_TRUE(fixed.ok());
  std::vector<Index> queries = {2, 17, 29};
  auto s_dynamic = dynamic->engine().MultiSourceQuery(queries);
  auto s_static = fixed->MultiSourceQuery(queries);
  ASSERT_TRUE(s_dynamic.ok() && s_static.ok());
  EXPECT_LT(eval::AvgDiff(*s_dynamic, *s_static), 5e-3);
}

TEST(DynamicEngineTest, DeleteTracksFullRecompute) {
  graph::Graph g = RandomGraph(35, 220, 21);
  auto dynamic = DynamicCsrPlusEngine::Build(g, DefaultOptions(8));
  ASSERT_TRUE(dynamic.ok());

  // Delete three existing edges and compare against a fresh engine on the
  // reduced graph.
  std::vector<std::pair<Index, Index>> removed;
  std::vector<EdgeUpdate> batch;
  for (Index u = 0; u < g.num_nodes() && removed.size() < 3; ++u) {
    if (g.OutNeighbors(u).empty()) continue;
    const Index v = static_cast<Index>(g.OutNeighbors(u)[0]);
    removed.emplace_back(u, v);
    batch.push_back(EdgeUpdate::Delete(u, v));
  }
  ASSERT_EQ(removed.size(), 3u);
  auto receipt = dynamic->ApplyUpdates(batch);
  ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
  EXPECT_EQ(receipt->effective_count, 3);
  EXPECT_EQ(dynamic->num_edges(), g.num_edges() - 3);

  graph::GraphBuilder builder(g.num_nodes());
  for (Index u = 0; u < g.num_nodes(); ++u) {
    for (int32_t v : g.OutNeighbors(u)) {
      const auto edge = std::make_pair(u, static_cast<Index>(v));
      if (std::find(removed.begin(), removed.end(), edge) == removed.end()) {
        builder.AddEdge(u, v);
      }
    }
  }
  auto reduced = builder.Build();
  ASSERT_TRUE(reduced.ok());
  auto fixed = CsrPlusEngine::Precompute(*reduced, DefaultOptions(8).base);
  ASSERT_TRUE(fixed.ok());

  std::vector<Index> queries = {1, 12, 30};
  auto s_dynamic = dynamic->engine().MultiSourceQuery(queries);
  auto s_static = fixed->MultiSourceQuery(queries);
  ASSERT_TRUE(s_dynamic.ok() && s_static.ok());
  EXPECT_LT(eval::AvgDiff(*s_dynamic, *s_static), 5e-3);
}

TEST(DynamicEngineTest, FingerprintStableUntilRebuild) {
  graph::Graph g = RandomGraph(30, 150, 31);
  DynamicOptions options = DefaultOptions(6);
  options.max_incremental_updates = 100;       // never rebuild incrementally
  options.rebuild_touched_fraction = 1.0;      // nor by touched fraction
  auto dynamic = DynamicCsrPlusEngine::Build(g, options);
  ASSERT_TRUE(dynamic.ok());
  const uint64_t fp = dynamic->StateFingerprint();
  const auto edges = AbsentEdges(g, 2);

  auto first =
      ApplyOne(&*dynamic, EdgeUpdate::Insert(edges[0].first, edges[0].second));
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->rebuilt);
  // Incremental batches keep the fingerprint: untouched columns stay
  // bitwise identical, so cached entries under this fingerprint remain
  // valid — eviction is driven by touched_support instead.
  EXPECT_EQ(first->fingerprint, fp);
  EXPECT_FALSE(first->touched_support.empty());

  // Touched support accumulates monotonically across batches.
  auto second =
      ApplyOne(&*dynamic, EdgeUpdate::Insert(edges[1].first, edges[1].second));
  ASSERT_TRUE(second.ok());
  EXPECT_GE(second->touched_support.size(), first->touched_support.size());
}

TEST(DynamicEngineTest, RebuildRotatesFingerprint) {
  graph::Graph g = RandomGraph(30, 150, 37);
  DynamicOptions options = DefaultOptions(6);
  options.max_incremental_updates = 1;
  auto dynamic = DynamicCsrPlusEngine::Build(g, options);
  ASSERT_TRUE(dynamic.ok());
  const uint64_t fp = dynamic->StateFingerprint();
  const auto edges = AbsentEdges(g, 2);

  // Two effective inserts: the second trips the budget and rebuilds.
  const std::vector<EdgeUpdate> batch = {
      EdgeUpdate::Insert(edges[0].first, edges[0].second),
      EdgeUpdate::Insert(edges[1].first, edges[1].second)};
  auto receipt = dynamic->ApplyUpdates(batch);
  ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
  EXPECT_TRUE(receipt->rebuilt);
  EXPECT_NE(receipt->fingerprint, fp);
  EXPECT_EQ(receipt->fingerprint, dynamic->StateFingerprint());
}

TEST(DynamicEngineTest, TouchedFractionTriggerWaitsForHalfBudget) {
  // Dense random graph: one update's reachability closure covers well over
  // 75% of the nodes, so an ungated touched-fraction trigger would rebuild
  // on every single batch. The trigger must wait until half of
  // max_incremental_updates is absorbed, then fire.
  graph::Graph g = RandomGraph(30, 150, 11);
  DynamicOptions options = DefaultOptions(6);
  options.max_incremental_updates = 8;  // fraction trigger armed at 4
  auto dynamic = DynamicCsrPlusEngine::Build(g, options);
  ASSERT_TRUE(dynamic.ok());

  const auto edges = AbsentEdges(g, 6);
  ASSERT_GE(edges.size(), 6u);
  int rebuilds_before_half = 0;
  bool fraction_fired = false;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    auto receipt =
        ApplyOne(&*dynamic, EdgeUpdate::Insert(edges[i].first, edges[i].second));
    ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
    ASSERT_EQ(receipt->effective_count, 1);
    if (i < 3) {
      rebuilds_before_half += receipt->rebuilt ? 1 : 0;
    } else if (receipt->rebuilt) {
      fraction_fired = true;
      EXPECT_TRUE(receipt->touched_support.empty());
      break;
    }
  }
  EXPECT_EQ(rebuilds_before_half, 0)
      << "fraction trigger fired before half the incremental budget";
  EXPECT_TRUE(fraction_fired)
      << "fraction trigger never fired on a near-fully-touched graph";
}

TEST(DynamicEngineTest, RebuildTriggersAfterBudget) {
  graph::Graph g = RandomGraph(30, 150, 5);
  DynamicOptions options = DefaultOptions(6);
  options.max_incremental_updates = 3;
  auto dynamic = DynamicCsrPlusEngine::Build(g, options);
  ASSERT_TRUE(dynamic.ok());
  EXPECT_EQ(dynamic->rebuild_count(), 1);

  Rng rng(7);
  int inserted = 0;
  while (inserted < 5) {
    const Index u = static_cast<Index>(rng.Below(30));
    Index v = static_cast<Index>(rng.Below(30));
    if (v == u) continue;
    auto receipt = ApplyOne(&*dynamic, EdgeUpdate::Insert(u, v));
    ASSERT_TRUE(receipt.ok());
    inserted += static_cast<int>(receipt->effective_count);
  }
  // The 4th insertion beyond budget forces a fresh SVD.
  EXPECT_GE(dynamic->rebuild_count(), 2);
  EXPECT_LE(dynamic->updates_since_rebuild(), 3);
}

TEST(DynamicEngineTest, UpdatingACloneLeavesTheOriginalBitIdentical) {
  // The serving layer publishes mutations by cloning the live engine and
  // updating the clone; the clone shares the original's factor bytes, so
  // any in-place write to them would change answers readers still see.
  graph::Graph g = RandomGraph(30, 150, 43);
  DynamicOptions options = DefaultOptions(6);
  options.max_incremental_updates = 2;   // the third insert rebuilds
  options.rebuild_touched_fraction = 1.0;
  auto original = DynamicCsrPlusEngine::Build(g, options);
  ASSERT_TRUE(original.ok());
  std::vector<Index> all(static_cast<std::size_t>(g.num_nodes()));
  std::iota(all.begin(), all.end(), Index{0});
  auto before = original->MultiSourceQuery(all);
  ASSERT_TRUE(before.ok());
  const uint64_t fp = original->StateFingerprint();
  const DenseMatrix live_u = original->engine().u().ToMatrix();
  const DenseMatrix live_z = original->engine().z().ToMatrix();

  DynamicCsrPlusEngine clone = *original;
  const auto edges = AbsentEdges(g, 3);
  ASSERT_EQ(edges.size(), 3u);
  // Two incremental batches (Brand updates), then one that rebuilds.
  for (const auto& [u, v] : edges) {
    ASSERT_TRUE(ApplyOne(&clone, EdgeUpdate::Insert(u, v)).ok());
    auto clone_answers = clone.MultiSourceQuery(all);
    ASSERT_TRUE(clone_answers.ok());
    EXPECT_FALSE(*clone_answers == *before) << "the clone never changed";

    auto after = original->MultiSourceQuery(all);
    ASSERT_TRUE(after.ok());
    EXPECT_TRUE(*after == *before);
    EXPECT_EQ(original->StateFingerprint(), fp);
    EXPECT_TRUE(original->engine().u() == DenseMatrixView(live_u));
    EXPECT_TRUE(original->engine().z() == DenseMatrixView(live_z));
    EXPECT_EQ(original->touched_count(), 0);
  }
  EXPECT_EQ(clone.rebuild_count(), original->rebuild_count() + 1);
}

TEST(DynamicEngineTest, EveryBuildPathRejectsBadRebuildTriggers) {
  const graph::Graph g = Figure1Graph();
  const CsrMatrix q = graph::ColumnNormalizedTransition(g);
  DynamicOptions no_budget = DefaultOptions(3);
  no_budget.max_incremental_updates = 0;
  DynamicOptions bad_fraction = DefaultOptions(3);
  bad_fraction.rebuild_touched_fraction = 1.5;
  for (const auto& [options, field] :
       {std::pair{no_budget, "max_incremental_updates"},
        std::pair{bad_fraction, "rebuild_touched_fraction"}}) {
    const Status from_graph = DynamicCsrPlusEngine::Build(g, options).status();
    const Status from_transition =
        DynamicCsrPlusEngine::BuildFromTransition(q, options).status();
    for (const Status& status : {from_graph, from_transition}) {
      EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
      EXPECT_NE(status.ToString().find(field), std::string::npos)
          << status.ToString();
    }
  }
  // The registry's kDynamic path exposes the update budget (the touched
  // fraction keeps its default there).
  service::EngineConfig config;
  config.rank = 3;
  config.max_incremental_updates = 0;
  const Status registry =
      service::BuildEngine(service::EngineKind::kDynamic, q, config).status();
  EXPECT_TRUE(registry.IsInvalidArgument()) << registry.ToString();
  EXPECT_NE(registry.ToString().find("max_incremental_updates"),
            std::string::npos)
      << registry.ToString();
  config.max_incremental_updates = 1;
  EXPECT_TRUE(
      service::BuildEngine(service::EngineKind::kDynamic, q, config).ok());
}

TEST(DynamicEngineTest, RejectsBadEdges) {
  auto dynamic = DynamicCsrPlusEngine::Build(Figure1Graph(), DefaultOptions(3));
  ASSERT_TRUE(dynamic.ok());
  EXPECT_TRUE(
      ApplyOne(&*dynamic, EdgeUpdate::Insert(-1, 2)).status().IsInvalidArgument());
  EXPECT_TRUE(
      ApplyOne(&*dynamic, EdgeUpdate::Insert(0, 6)).status().IsInvalidArgument());
  EXPECT_TRUE(
      ApplyOne(&*dynamic, EdgeUpdate::Insert(2, 2)).status().IsInvalidArgument());
  EXPECT_TRUE(
      ApplyOne(&*dynamic, EdgeUpdate::Delete(6, 0)).status().IsInvalidArgument());
}

TEST(DynamicEngineTest, BadBatchLeavesEngineUntouched) {
  // Validation is batch-wide and up-front: a bad update anywhere rejects
  // the whole batch without applying the valid prefix.
  auto dynamic = DynamicCsrPlusEngine::Build(Figure1Graph(), DefaultOptions(3));
  ASSERT_TRUE(dynamic.ok());
  const int64_t edges = dynamic->num_edges();
  const std::vector<EdgeUpdate> batch = {EdgeUpdate::Insert(0, 3),
                                         EdgeUpdate::Insert(0, 6)};
  EXPECT_TRUE(dynamic->ApplyUpdates(batch).status().IsInvalidArgument());
  EXPECT_EQ(dynamic->num_edges(), edges);
  EXPECT_EQ(dynamic->updates_since_rebuild(), 0);
}

TEST(DynamicEngineTest, FirstInEdgeForIsolatedNode) {
  // Node with in-degree 0 gains its first in-neighbour: column goes from
  // zero to e_u — the delta path with old_d == 0.
  graph::GraphBuilder builder(5);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(2, 0);
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  auto dynamic = DynamicCsrPlusEngine::Build(*g, DefaultOptions(3));
  ASSERT_TRUE(dynamic.ok());
  // Node 4 had no in-edges.
  ASSERT_TRUE(ApplyOne(&*dynamic, EdgeUpdate::Insert(0, 4)).ok());
  EXPECT_EQ(dynamic->num_edges(), 4);
  auto scores = csrplus::testing::QueryColumn(dynamic->engine(), 4);
  ASSERT_TRUE(scores.ok());
  EXPECT_GE((*scores)[4], 1.0 - 1e-6);
}

TEST(DynamicEngineTest, DeleteLastInEdgeZeroesColumn) {
  // The mirror of FirstInEdgeForIsolatedNode: removing a node's only
  // in-edge drives its transition column back to all-zero (the nbrs.empty()
  // delete path), so its walk dies after step 0.
  graph::GraphBuilder builder(5);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(2, 0);
  builder.AddEdge(0, 4);
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  auto dynamic = DynamicCsrPlusEngine::Build(*g, DefaultOptions(3));
  ASSERT_TRUE(dynamic.ok());
  auto receipt = ApplyOne(&*dynamic, EdgeUpdate::Delete(0, 4));
  ASSERT_TRUE(receipt.ok());
  EXPECT_EQ(receipt->effective_count, 1);
  EXPECT_EQ(dynamic->num_edges(), 3);
  auto scores = csrplus::testing::QueryColumn(dynamic->engine(), 4);
  ASSERT_TRUE(scores.ok());
  // Only the k = 0 term survives: s(4, 4) = 1, s(4, x) = 0 elsewhere.
  EXPECT_NEAR((*scores)[4], 1.0, 1e-6);
  EXPECT_NEAR((*scores)[0], 0.0, 1e-6);
}

}  // namespace
}  // namespace csrplus::core
