// Named multi-graph engine registry — one process, many served graphs.
//
// This is the one engine factory and the one serving surface:
//
//   * BuildEngine(kind, transition, config) — the single method-dispatch
//     constructor. The eval runner, the CLI and AddTenant all build their
//     engines through it.
//   * EngineRegistry — named tenants, each owning its transition matrix,
//     engine lineage, optional column cache and QueryService. The socket
//     front end routes wire-protocol `graph_id` to a tenant's service
//     (server.h). `csrplus serve` always serves through a registry: a
//     positional <graph> is the one-tenant spec `default=<graph>`, and
//     `--graphs=a=...,b=...` adds one tenant per name. Cold tenants come
//     from AddTenant; artifact warm starts hand a loaded engine to
//     AddTenantWithEngine. Both share one tail (cache slice, service,
//     metrics).
//
// Isolation: every tenant gets its own cache capacity slice and its own
// ServiceOptions::max_outstanding_bytes admission cap, so one tenant's
// burst degrades only that tenant (enforced by engine_registry_test).
//
// Mutation: ApplyUpdates(name, updates) is the live-update entry point for
// tenants serving a DynamicCsrPlusEngine. It clones the tenant's current
// generation, applies the batch to the clone off the serving path, and
// publishes the new generation through QueryService::PublishEngine —
// queries never block, and the UpdateReceipt drives delta-aware cache
// eviction (docs/mutations.md). Per-tenant writers are serialised
// internally.
//
// Observability: per-tenant csrplus.tenant.<graph>.* metrics (requests,
// update_batches, updates, rebuilds, touched_columns) — dynamic names, one
// set per tenant, documented as the <graph> template in
// docs/observability.md.

#ifndef CSRPLUS_SERVICE_ENGINE_REGISTRY_H_
#define CSRPLUS_SERVICE_ENGINE_REGISTRY_H_

#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/ni_sim.h"
#include "cache/column_cache.h"
#include "core/dynamic_engine.h"
#include "core/query_engine.h"
#include "linalg/sparse_matrix.h"
#include "service/query_service.h"

namespace csrplus::service {

using linalg::CsrMatrix;

/// The engine families one registry (or the eval runner) can construct.
/// The first four are the paper's (Figures 2–9); the next two are Table 1
/// rows implemented as extensions, and kDynamic is the evolving-graph CSR+
/// engine (it answers exactly like kCsrPlus until edges change). The
/// numeric order is not a contract.
enum class EngineKind {
  kCsrPlus,    // this paper
  kCsrNi,      // Li et al. low-rank tensor-product method
  kCsrIt,      // Rothe & Schütze iterative (all-pairs dense)
  kCsrRls,     // Kusumoto-style per-query scheme
  kCoSimMate,  // repeated squaring in n-space
  kRpCoSim,    // Gaussian random projections
  kDynamic,    // CSR+ with incremental SVD maintenance (mutable tenants)
};

/// Shared construction parameters (defaults = the paper's §4.1 settings).
/// The superset of every kind's knobs; kinds ignore what they don't use.
struct EngineConfig {
  linalg::Index rank = 5;  ///< r; also the iteration count for IT/RLS.
  double damping = 0.6;    ///< c.
  double epsilon = 1e-5;   ///< CSR+ accuracy target.
  baselines::NiFidelity ni_fidelity = baselines::NiFidelity::kFaithful;
  linalg::Index rp_samples = 200;  ///< RP-CoSim sketch width.
  /// CSR+ serving tier (baselines ignore it).
  core::Precision precision = core::Precision::kF64;
  /// kDynamic only: effective updates absorbed before a full SVD rebuild.
  int max_incremental_updates = 64;
};

/// Short display name ("CSR+", "CSR-NI", ...); equals the built engine's
/// QueryEngine::Name() at the f64 tier.
std::string_view EngineKindName(EngineKind kind);

/// Builds a query engine of `kind` over `transition` — the one
/// method-dispatch constructor behind the eval runner, the CLI and the
/// registry. CSR+/NI/IT/CoSimMate/dynamic do all their precomputation
/// here; RLS and RP-CoSim keep no state. `transition` must outlive the
/// returned engine (RLS and RP-CoSim hold a pointer rather than a copy).
Result<std::unique_ptr<core::QueryEngine>> BuildEngine(
    EngineKind kind, const CsrMatrix& transition, const EngineConfig& config);

/// Per-tenant knobs for EngineRegistry::AddTenant.
struct TenantOptions {
  EngineKind kind = EngineKind::kCsrPlus;
  EngineConfig config;
  /// Serving knobs for the tenant's QueryService. The `cache` pointer is
  /// overwritten with the tenant's own cache (below); set
  /// `max_outstanding_bytes` for per-tenant admission isolation.
  ServiceOptions service;
  /// The tenant's column-cache capacity slice. 0 = no cache.
  int64_t cache_capacity_bytes = 0;
};

/// Named engines + services, one per served graph. Thread-safe; tenants are
/// typically added at startup and then only routed/mutated.
class EngineRegistry {
 public:
  // Out of line: the tenant map's members need the full Tenant type.
  EngineRegistry();
  ~EngineRegistry();

  EngineRegistry(const EngineRegistry&) = delete;
  EngineRegistry& operator=(const EngineRegistry&) = delete;

  /// Creates a tenant named `name` serving `transition` (the registry takes
  /// ownership — baseline engines reference it in place). The first tenant
  /// added becomes the default route. Fails on duplicate or empty names.
  Status AddTenant(const std::string& name, CsrMatrix transition,
                   const TenantOptions& options);

  /// Creates a tenant around an engine built elsewhere (artifact warm
  /// starts, custom stacks). `options.kind` and `options.config` are
  /// ignored; the tenant serves, routes and (for a DynamicCsrPlusEngine)
  /// mutates like any other.
  Status AddTenantWithEngine(const std::string& name,
                             std::shared_ptr<const core::QueryEngine> engine,
                             const TenantOptions& options);

  /// The tenant's service, or null when the name is unknown. Does not count
  /// toward per-tenant request metrics (introspection surface).
  QueryService* Find(const std::string& name) const;

  /// Request routing: empty `graph_id` resolves to the default tenant, a
  /// known name to its tenant (bumping csrplus.tenant.<name>.requests),
  /// unknown names to null (the caller maps that to NotFound on the wire).
  QueryService* Route(const std::string& graph_id);

  /// The tenant's cache slice (null when the tenant has none / is unknown).
  cache::ColumnCache* TenantCache(const std::string& name) const;

  /// The tenant's current engine snapshot (null when unknown). RLS and
  /// RP-CoSim snapshots read the tenant's transition matrix in place, so
  /// they are usable only while the registry lives.
  std::shared_ptr<const core::QueryEngine> TenantEngine(
      const std::string& name) const;

  /// Applies a mutation batch to a dynamic tenant: clones the current
  /// engine generation, applies `updates` off the serving path, publishes
  /// the result (PublishEngine handles the RCU grace period and the
  /// receipt-driven cache eviction) and records per-tenant metrics.
  /// kFailedPrecondition for non-dynamic tenants, kNotFound for unknown
  /// names. Writers to the same tenant are serialised; queries never block.
  Result<core::UpdateReceipt> ApplyUpdates(
      const std::string& name, std::span<const core::EdgeUpdate> updates);

  /// Name of the default (first-added) tenant; empty when none.
  std::string default_tenant() const;

  /// All tenant names in insertion order.
  std::vector<std::string> TenantNames() const;

  /// Shuts down every tenant's service (idempotent; implied by destructor).
  void Shutdown();

 private:
  struct Tenant;

  /// The shared tail of AddTenant and AddTenantWithEngine: cache slice,
  /// service and metric handles, then registration. `transition` may be
  /// null (the engine owns or does not need its matrix).
  Status AddBuiltTenant(const std::string& name,
                        std::unique_ptr<CsrMatrix> transition,
                        std::shared_ptr<const core::QueryEngine> engine,
                        const TenantOptions& options);
  Tenant* FindTenant(const std::string& name) const;

  mutable std::mutex mu_;  // guards tenants_ / order_; not per-tenant state
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;
  std::vector<std::string> order_;  // insertion order; front = default
};

}  // namespace csrplus::service

#endif  // CSRPLUS_SERVICE_ENGINE_REGISTRY_H_
