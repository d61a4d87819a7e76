// Tests for service::EngineRegistry and service::BuildEngine: tenant
// lifecycle (add/duplicate/unknown), request routing incl. the default
// tenant, the live-mutation path (clone -> ApplyUpdates -> PublishEngine)
// with its typed failures, per-tenant budget isolation, equivalence of
// every construction surface (eval runner, AddTenant, AddTenantWithEngine)
// with direct BuildEngine calls, and an in-process mutate-while-serve hammer
// (the CI TSan job runs this file).

#include "service/engine_registry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/csrplus_engine.h"
#include "core/dynamic_engine.h"
#include "eval/runner.h"
#include "graph/normalize.h"
#include "test_util.h"

namespace csrplus::service {
namespace {

using csrplus::testing::RandomGraph;
using linalg::CsrMatrix;
using linalg::Index;

CsrMatrix MakeTransition(Index nodes, int64_t edges, uint64_t seed) {
  return graph::ColumnNormalizedTransition(RandomGraph(nodes, edges, seed));
}

TEST(EngineRegistryTest, AddFindAndRouteTenants) {
  EngineRegistry registry;
  EXPECT_EQ(registry.default_tenant(), "");
  EXPECT_EQ(registry.Route(""), nullptr);  // no tenants yet

  TenantOptions options;
  ASSERT_TRUE(registry.AddTenant("alpha", MakeTransition(30, 150, 1), options)
                  .ok());
  ASSERT_TRUE(registry.AddTenant("beta", MakeTransition(40, 200, 2), options)
                  .ok());

  EXPECT_EQ(registry.default_tenant(), "alpha");
  EXPECT_EQ(registry.TenantNames(), (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_NE(registry.Find("alpha"), nullptr);
  EXPECT_NE(registry.Find("beta"), nullptr);
  EXPECT_NE(registry.Find("alpha"), registry.Find("beta"));
  EXPECT_EQ(registry.Find("ghost"), nullptr);

  // Routing: named, default (empty id), unknown.
  EXPECT_EQ(registry.Route("beta"), registry.Find("beta"));
  EXPECT_EQ(registry.Route(""), registry.Find("alpha"));
  EXPECT_EQ(registry.Route("ghost"), nullptr);

  // The tenants serve their own graphs (different node counts).
  EXPECT_EQ(registry.TenantEngine("alpha")->NumNodes(), 30);
  EXPECT_EQ(registry.TenantEngine("beta")->NumNodes(), 40);
  EXPECT_EQ(registry.TenantEngine("ghost"), nullptr);
}

TEST(EngineRegistryTest, RejectsDuplicateAndEmptyNames) {
  EngineRegistry registry;
  TenantOptions options;
  ASSERT_TRUE(
      registry.AddTenant("alpha", MakeTransition(20, 80, 3), options).ok());
  Status duplicate =
      registry.AddTenant("alpha", MakeTransition(20, 80, 4), options);
  EXPECT_TRUE(duplicate.IsInvalidArgument()) << duplicate.ToString();
  Status unnamed = registry.AddTenant("", MakeTransition(20, 80, 5), options);
  EXPECT_TRUE(unnamed.IsInvalidArgument()) << unnamed.ToString();
  // The failed adds left the registry untouched.
  EXPECT_EQ(registry.TenantNames(), std::vector<std::string>{"alpha"});
}

TEST(EngineRegistryTest, ServesQueriesPerTenant) {
  EngineRegistry registry;
  TenantOptions options;
  options.cache_capacity_bytes = 1 << 20;
  CsrMatrix transition = MakeTransition(30, 150, 7);
  // Keep a copy to build the reference engine: the registry owns its own.
  ASSERT_TRUE(registry.AddTenant("alpha", CsrMatrix(transition), options).ok());

  EngineConfig config;  // defaults — what AddTenant built internally
  auto reference = BuildEngine(EngineKind::kCsrPlus, transition, config);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  QueryRequest request;
  request.queries = {3, 17};
  auto response = registry.Find("alpha")->Query(std::move(request));
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  auto direct = (*reference)->MultiSourceQuery({3, 17});
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(response.scores == *direct)
      << "registry-served scores are not bit-identical to a direct engine";
}

TEST(EngineRegistryTest, ApplyUpdatesTypedFailures) {
  EngineRegistry registry;
  TenantOptions options;  // default kind: kCsrPlus (not mutable)
  ASSERT_TRUE(
      registry.AddTenant("static", MakeTransition(20, 80, 9), options).ok());

  const core::EdgeUpdate update = core::EdgeUpdate::Insert(0, 1);
  auto unknown = registry.ApplyUpdates("ghost", {&update, 1});
  ASSERT_FALSE(unknown.ok());
  EXPECT_TRUE(unknown.status().IsNotFound()) << unknown.status().ToString();

  auto immutable = registry.ApplyUpdates("static", {&update, 1});
  ASSERT_FALSE(immutable.ok());
  EXPECT_TRUE(immutable.status().IsFailedPrecondition())
      << immutable.status().ToString();
}

TEST(EngineRegistryTest, ApplyUpdatesPublishesNewGeneration) {
  EngineRegistry registry;
  TenantOptions options;
  options.kind = EngineKind::kDynamic;
  options.config.rank = 6;
  options.cache_capacity_bytes = 1 << 20;
  ASSERT_TRUE(
      registry.AddTenant("live", MakeTransition(30, 150, 13), options).ok());
  QueryService* service = registry.Find("live");
  ASSERT_NE(service, nullptr);

  const auto before = registry.TenantEngine("live");
  QueryRequest warm;
  warm.queries = {2, 5};
  ASSERT_TRUE(service->Query(std::move(warm)).status.ok());

  // Find an absent edge so the batch is effective.
  auto dynamic_before =
      std::dynamic_pointer_cast<const core::DynamicCsrPlusEngine>(before);
  ASSERT_NE(dynamic_before, nullptr);
  const int64_t edges_before = dynamic_before->num_edges();
  Rng rng(131);
  for (;;) {
    const Index u = static_cast<Index>(rng.Below(30));
    const Index v = static_cast<Index>(rng.Below(30));
    if (u == v) continue;
    const core::EdgeUpdate update = core::EdgeUpdate::Insert(u, v);
    auto probe = registry.ApplyUpdates("live", {&update, 1});
    ASSERT_TRUE(probe.ok()) << probe.status().ToString();
    if (probe->effective_count == 1) break;
  }

  // The served snapshot was republished: new pointer, one more edge.
  const auto after = registry.TenantEngine("live");
  EXPECT_NE(after.get(), before.get());
  auto dynamic_after =
      std::dynamic_pointer_cast<const core::DynamicCsrPlusEngine>(after);
  ASSERT_NE(dynamic_after, nullptr);
  EXPECT_EQ(dynamic_after->num_edges(), edges_before + 1);
  // The pre-publish snapshot is untouched (RCU: old readers stay valid).
  EXPECT_EQ(dynamic_before->num_edges(), edges_before);

  // Post-publish serving matches the new generation bit for bit.
  QueryRequest request;
  request.queries = {2, 5};
  auto response = service->Query(std::move(request));
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  auto direct = after->MultiSourceQuery({2, 5});
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(response.scores == *direct);
}

TEST(EngineRegistryTest, PerTenantBudgetIsolation) {
  // One tenant with a deliberately tiny admission budget, one without: the
  // starved tenant rejects with kResourceExhausted while the other keeps
  // serving — a burst cannot cross the tenant boundary.
  EngineRegistry registry;
  TenantOptions starved;
  starved.service.max_outstanding_bytes = 1;  // < any response block
  ASSERT_TRUE(
      registry.AddTenant("starved", MakeTransition(30, 150, 17), starved).ok());
  TenantOptions roomy;
  ASSERT_TRUE(
      registry.AddTenant("roomy", MakeTransition(30, 150, 18), roomy).ok());

  QueryRequest request;
  request.queries = {1, 2};
  auto rejected = registry.Find("starved")->Query(std::move(request));
  EXPECT_TRUE(rejected.status.IsResourceExhausted())
      << rejected.status.ToString();

  QueryRequest fine;
  fine.queries = {1, 2};
  auto served = registry.Find("roomy")->Query(std::move(fine));
  EXPECT_TRUE(served.status.ok()) << served.status.ToString();
}

TEST(EngineRegistryTest, EveryKindBuildsTheSameEngineOnEverySurface) {
  // BuildEngine is the one method-dispatch constructor: for every kind, the
  // eval runner and a registry tenant answer bit-identically to a direct
  // BuildEngine call, and the engine reports the kind's display name.
  const CsrMatrix transition = MakeTransition(25, 120, 21);
  const std::vector<Index> queries = {4, 11};
  for (const EngineKind kind :
       {EngineKind::kCsrPlus, EngineKind::kCsrNi, EngineKind::kCsrIt,
        EngineKind::kCsrRls, EngineKind::kCoSimMate, EngineKind::kRpCoSim,
        EngineKind::kDynamic}) {
    SCOPED_TRACE(EngineKindName(kind));
    const EngineConfig config;  // the defaults eval::RunConfig{} also has
    auto built = BuildEngine(kind, transition, config);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    EXPECT_EQ((*built)->Name(), EngineKindName(kind));
    auto direct = (*built)->MultiSourceQuery(queries);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();

    const eval::RunOutcome outcome =
        eval::RunMethod(kind, transition, queries, eval::RunConfig{});
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    EXPECT_TRUE(outcome.scores == *direct) << "eval runner diverges";

    EngineRegistry registry;
    TenantOptions options;
    options.kind = kind;
    options.config = config;
    ASSERT_TRUE(registry.AddTenant("t", CsrMatrix(transition), options).ok());
    auto served = registry.TenantEngine("t")->MultiSourceQuery(queries);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_TRUE(*served == *direct) << "registry tenant diverges";
  }
}

TEST(EngineRegistryTest, PrebuiltEngineTenantServesLikeABuiltOne) {
  // AddTenantWithEngine (the artifact warm-start path) shares AddTenant's
  // tail: a pre-built CsrPlusEngine answers bit-identically to an AddTenant
  // tenant on the same graph, gets its own cache slice, and is reachable by
  // name and — when added first — as the default route.
  const CsrMatrix transition = MakeTransition(30, 150, 37);
  EngineConfig config;
  core::CsrPlusOptions csr_options;
  csr_options.rank = config.rank;
  csr_options.damping = config.damping;
  csr_options.epsilon = config.epsilon;
  auto prebuilt =
      core::CsrPlusEngine::PrecomputeFromTransition(transition, csr_options);
  ASSERT_TRUE(prebuilt.ok()) << prebuilt.status().ToString();

  EngineRegistry registry;
  TenantOptions options;
  options.config = config;
  options.cache_capacity_bytes = 1 << 20;
  ASSERT_TRUE(registry
                  .AddTenantWithEngine(
                      "warm",
                      std::make_shared<const core::CsrPlusEngine>(
                          std::move(*prebuilt)),
                      options)
                  .ok());
  ASSERT_TRUE(registry.AddTenant("cold", CsrMatrix(transition), options).ok());

  EXPECT_EQ(registry.default_tenant(), "warm");
  EXPECT_EQ(registry.Route(""), registry.Find("warm"));
  EXPECT_EQ(registry.Route("warm"), registry.Find("warm"));
  ASSERT_NE(registry.TenantCache("warm"), nullptr);
  EXPECT_NE(registry.TenantCache("warm"), registry.TenantCache("cold"));

  const auto query = [&](const std::string& graph_id) {
    QueryRequest request;
    request.queries = {2, 9, 21};
    return registry.Route(graph_id)->Query(std::move(request));
  };
  const QueryResponse warm = query("");
  const QueryResponse cold = query("cold");
  ASSERT_TRUE(warm.status.ok()) << warm.status.ToString();
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  EXPECT_TRUE(warm.scores == cold.scores)
      << "pre-built tenant diverges from the AddTenant tenant";

  // Each tenant caches in its own slice: repeating the query hits the warm
  // slice and leaves the cold slice's hit count at zero.
  EXPECT_GT(registry.TenantCache("warm")->Stats().inserts, 0);
  const QueryResponse again = query("warm");
  ASSERT_TRUE(again.status.ok());
  EXPECT_TRUE(again.scores == warm.scores);
  EXPECT_GT(registry.TenantCache("warm")->Stats().hits, 0);
  EXPECT_EQ(registry.TenantCache("cold")->Stats().hits, 0);

  // A non-dynamic pre-built tenant is not mutable.
  const core::EdgeUpdate update = core::EdgeUpdate::Insert(0, 1);
  EXPECT_TRUE(registry.ApplyUpdates("warm", {&update, 1})
                  .status()
                  .IsFailedPrecondition());
}

TEST(EngineRegistryTest, MutateWhileServeHammer) {
  // In-process mutate-while-serve: writer threads stream mixed batches into
  // two dynamic tenants through the registry while reader threads query
  // both services. TSan (CI) verifies the RCU publication; here we assert
  // liveness and that every response is well-formed.
  static constexpr Index kNodes = 40;  // static: ASSERT_EQ odr-uses it in lambdas
  EngineRegistry registry;
  TenantOptions options;
  options.kind = EngineKind::kDynamic;
  options.config.rank = 6;
  options.config.max_incremental_updates = 8;
  options.cache_capacity_bytes = 1 << 20;
  ASSERT_TRUE(
      registry.AddTenant("a", MakeTransition(kNodes, 220, 23), options).ok());
  ASSERT_TRUE(
      registry.AddTenant("b", MakeTransition(kNodes, 180, 29), options).ok());

  std::atomic<int> served{0};
  const auto writer = [&registry](const std::string& tenant, uint64_t seed) {
    Rng rng(seed);
    for (int batch = 0; batch < 25; ++batch) {
      std::vector<core::EdgeUpdate> updates;
      while (updates.size() < 3) {
        const Index u = static_cast<Index>(rng.Below(kNodes));
        const Index v = static_cast<Index>(rng.Below(kNodes));
        if (u == v) continue;
        updates.push_back(updates.size() % 2 == 0
                              ? core::EdgeUpdate::Insert(u, v)
                              : core::EdgeUpdate::Delete(u, v));
      }
      auto receipt = registry.ApplyUpdates(tenant, updates);
      ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
    }
  };
  const auto reader = [&registry, &served](const std::string& tenant,
                                           uint64_t seed) {
    Rng rng(seed);
    for (int i = 0; i < 40; ++i) {
      const Index a = static_cast<Index>(rng.Below(kNodes));
      const Index b = static_cast<Index>((a + 1 + rng.Below(kNodes - 1)) %
                                         kNodes);
      QueryRequest request;
      request.queries = {a, b};
      auto response = registry.Route(tenant)->Query(std::move(request));
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      ASSERT_EQ(response.scores.rows(), kNodes);
      ASSERT_EQ(response.scores.cols(), 2);
      ++served;
    }
  };

  std::vector<std::thread> threads;
  threads.emplace_back(writer, "a", uint64_t{0x5EED1});
  threads.emplace_back(writer, "b", uint64_t{0x5EED2});
  threads.emplace_back(reader, "a", uint64_t{0x5EED3});
  threads.emplace_back(reader, "b", uint64_t{0x5EED4});
  threads.emplace_back(reader, "", uint64_t{0x5EED5});  // default tenant
  for (auto& t : threads) t.join();
  EXPECT_EQ(served.load(), 3 * 40);
  registry.Shutdown();
}

}  // namespace
}  // namespace csrplus::service
