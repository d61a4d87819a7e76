#include "service/engine_registry.h"

#include <utility>

#include "baselines/cosimmate.h"
#include "baselines/iterative_allpairs.h"
#include "baselines/rls.h"
#include "baselines/rp_cosim.h"
#include "common/check.h"
#include "core/csrplus_engine.h"
#include "obs/stats.h"

namespace csrplus::service {
namespace {

using EnginePtr = std::unique_ptr<core::QueryEngine>;

// Moves a by-value engine into the type-erased pointer the factory hands
// out (same idiom as the eval runner used before it forwarded here).
template <typename Engine>
Result<EnginePtr> Erase(Result<Engine> engine) {
  if (!engine.ok()) return engine.status();
  return EnginePtr(std::make_unique<Engine>(std::move(*engine)));
}

// The tenant's csrplus.tenant.<name>.<metric> counter. Under
// CSRPLUS_OBS_DISABLED the stats registry must stay empty, so every handle
// is one unregistered sink instead.
obs::Counter* TenantCounter(const std::string& name, const char* metric,
                            const char* unit, const char* help) {
#if defined(CSRPLUS_OBS_DISABLED)
  static obs::Counter sink;
  return &sink;
#else
  return obs::StatsRegistry::Global().FindOrCreateCounter(
      "csrplus.tenant." + name + "." + metric, unit, help);
#endif
}

}  // namespace

std::string_view EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kCsrPlus:
      return "CSR+";
    case EngineKind::kCsrNi:
      return "CSR-NI";
    case EngineKind::kCsrIt:
      return "CSR-IT";
    case EngineKind::kCsrRls:
      return "CSR-RLS";
    case EngineKind::kCoSimMate:
      return "CoSimMate";
    case EngineKind::kRpCoSim:
      return "RP-CoSim";
    case EngineKind::kDynamic:
      return "CSR+dyn";
  }
  return "?";
}

Result<EnginePtr> BuildEngine(EngineKind kind, const CsrMatrix& transition,
                              const EngineConfig& config) {
  switch (kind) {
    case EngineKind::kCsrPlus: {
      core::CsrPlusOptions options;
      options.rank = config.rank;
      options.damping = config.damping;
      options.epsilon = config.epsilon;
      options.precision = config.precision;
      return Erase(
          core::CsrPlusEngine::PrecomputeFromTransition(transition, options));
    }
    case EngineKind::kCsrNi: {
      baselines::NiSimOptions options;
      options.rank = config.rank;
      options.damping = config.damping;
      options.fidelity = config.ni_fidelity;
      return Erase(baselines::NiSimEngine::Precompute(transition, options));
    }
    case EngineKind::kCsrIt: {
      baselines::IterativeOptions options;
      options.damping = config.damping;
      options.iterations = static_cast<int>(config.rank);  // §4.1: k = r
      return Erase(
          baselines::IterativeAllPairsEngine::Precompute(transition, options));
    }
    case EngineKind::kCsrRls: {
      baselines::RlsOptions options;
      options.damping = config.damping;
      options.iterations = static_cast<int>(config.rank);  // §4.1: k = r
      return EnginePtr(
          std::make_unique<baselines::RlsEngine>(&transition, options));
    }
    case EngineKind::kCoSimMate: {
      baselines::CoSimMateOptions options;
      options.damping = config.damping;
      // 2^steps series terms >= the rank-matched iteration count.
      int steps = 1;
      while ((1 << steps) < config.rank) ++steps;
      options.squaring_steps = steps;
      return Erase(baselines::CoSimMateEngine::Precompute(transition, options));
    }
    case EngineKind::kRpCoSim: {
      baselines::RpCoSimOptions options;
      options.damping = config.damping;
      options.iterations = static_cast<int>(config.rank);
      options.num_samples = config.rp_samples;
      return EnginePtr(
          std::make_unique<baselines::RpCosimEngine>(&transition, options));
    }
    case EngineKind::kDynamic: {
      core::DynamicOptions options;
      options.base.rank = config.rank;
      options.base.damping = config.damping;
      options.base.epsilon = config.epsilon;
      options.max_incremental_updates = config.max_incremental_updates;
      return Erase(
          core::DynamicCsrPlusEngine::BuildFromTransition(transition, options));
    }
  }
  return Status::Internal("unknown engine kind");
}

// One served graph: its storage, engine lineage, cache slice, service and
// metric handles. The registry map owns it; the address is stable.
struct EngineRegistry::Tenant {
  /// Owned backing store for engines that reference the transition in place
  /// (RLS, RP-CoSim); unique_ptr keeps the address stable across map ops.
  /// Null for AddTenantWithEngine tenants.
  std::unique_ptr<CsrMatrix> transition;
  /// Head of the mutable lineage when the tenant serves a
  /// DynamicCsrPlusEngine (null otherwise); ApplyUpdates clones it, mutates
  /// the clone and swaps this pointer.
  std::shared_ptr<const core::DynamicCsrPlusEngine> dynamic;
  std::unique_ptr<cache::ColumnCache> cache;
  std::unique_ptr<QueryService> service;
  /// Serialises ApplyUpdates per tenant (clone -> mutate -> publish must
  /// not interleave between two writers).
  std::mutex write_mu;
  // Per-tenant metric handles (csrplus.tenant.<name>.*), resolved once.
  obs::Counter* requests = nullptr;
  obs::Counter* update_batches = nullptr;
  obs::Counter* updates = nullptr;
  obs::Counter* rebuilds = nullptr;
  obs::Counter* touched_columns = nullptr;
};

EngineRegistry::EngineRegistry() = default;

EngineRegistry::~EngineRegistry() { Shutdown(); }

void EngineRegistry::Shutdown() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [name, tenant] : tenants_) {
    if (tenant->service != nullptr) tenant->service->Shutdown();
  }
}

Status EngineRegistry::AddTenant(const std::string& name, CsrMatrix transition,
                                 const TenantOptions& options) {
  auto owned = std::make_unique<CsrMatrix>(std::move(transition));
  auto built = BuildEngine(options.kind, *owned, options.config);
  if (!built.ok()) return built.status();
  return AddBuiltTenant(name, std::move(owned),
                        std::shared_ptr<const core::QueryEngine>(
                            std::move(*built)),
                        options);
}

Status EngineRegistry::AddTenantWithEngine(
    const std::string& name, std::shared_ptr<const core::QueryEngine> engine,
    const TenantOptions& options) {
  if (engine == nullptr) {
    return Status::InvalidArgument("tenant engine must not be null");
  }
  return AddBuiltTenant(name, nullptr, std::move(engine), options);
}

Status EngineRegistry::AddBuiltTenant(
    const std::string& name, std::unique_ptr<CsrMatrix> transition,
    std::shared_ptr<const core::QueryEngine> engine,
    const TenantOptions& options) {
  auto tenant = std::make_unique<Tenant>();
  tenant->transition = std::move(transition);
  // Keep the typed handle of a dynamic engine: ApplyUpdates clones and
  // republishes it.
  tenant->dynamic =
      std::dynamic_pointer_cast<const core::DynamicCsrPlusEngine>(engine);
  if (options.cache_capacity_bytes > 0) {
    cache::ColumnCacheOptions cache_options;
    cache_options.capacity_bytes = options.cache_capacity_bytes;
    tenant->cache = std::make_unique<cache::ColumnCache>(cache_options);
  }
  ServiceOptions service_options = options.service;
  service_options.cache = tenant->cache.get();
  tenant->service =
      std::make_unique<QueryService>(std::move(engine), service_options);

  std::lock_guard<std::mutex> lk(mu_);
  if (name.empty()) {
    return Status::InvalidArgument("tenant name must not be empty");
  }
  if (tenants_.count(name) != 0) {
    return Status::InvalidArgument("tenant '" + name +
                                   "' is already registered");
  }
  tenant->requests = TenantCounter(name, "requests", "requests",
                                   "requests routed to this tenant's service");
  tenant->update_batches =
      TenantCounter(name, "update_batches", "batches",
                    "ApplyUpdates batches published for this tenant");
  tenant->updates =
      TenantCounter(name, "updates", "updates",
                    "effective edge updates absorbed by this tenant");
  tenant->rebuilds =
      TenantCounter(name, "rebuilds", "rebuilds",
                    "update batches that triggered a full SVD rebuild");
  tenant->touched_columns = TenantCounter(
      name, "touched_columns", "columns",
      "columns reported touched by this tenant's update receipts");
  tenants_.emplace(name, std::move(tenant));
  order_.push_back(name);
  return Status::OK();
}

EngineRegistry::Tenant* EngineRegistry::FindTenant(
    const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : it->second.get();
}

QueryService* EngineRegistry::Find(const std::string& name) const {
  Tenant* tenant = FindTenant(name);
  return tenant == nullptr ? nullptr : tenant->service.get();
}

QueryService* EngineRegistry::Route(const std::string& graph_id) {
  std::string resolved = graph_id;
  if (resolved.empty()) {
    std::lock_guard<std::mutex> lk(mu_);
    if (order_.empty()) return nullptr;
    resolved = order_.front();
  }
  Tenant* tenant = FindTenant(resolved);
  if (tenant == nullptr) return nullptr;
  tenant->requests->Add(1);
  return tenant->service.get();
}

cache::ColumnCache* EngineRegistry::TenantCache(const std::string& name) const {
  Tenant* tenant = FindTenant(name);
  return tenant == nullptr ? nullptr : tenant->cache.get();
}

std::shared_ptr<const core::QueryEngine> EngineRegistry::TenantEngine(
    const std::string& name) const {
  Tenant* tenant = FindTenant(name);
  return tenant == nullptr || tenant->service == nullptr
             ? nullptr
             : tenant->service->engine_snapshot();
}

Result<core::UpdateReceipt> EngineRegistry::ApplyUpdates(
    const std::string& name, std::span<const core::EdgeUpdate> updates) {
  Tenant* tenant = FindTenant(name);
  if (tenant == nullptr) {
    return Status::NotFound("unknown tenant '" + name + "'");
  }
  if (tenant->dynamic == nullptr) {
    return Status::FailedPrecondition(
        "tenant '" + name + "' does not serve a dynamic engine");
  }
  std::lock_guard<std::mutex> lk(tenant->write_mu);
  // Next generation off the serving path: clone the lineage head, mutate
  // the clone. In-flight queries keep reading the published snapshot.
  auto next =
      std::make_shared<core::DynamicCsrPlusEngine>(*tenant->dynamic);
  auto receipt = next->ApplyUpdates(updates);
  if (!receipt.ok()) return receipt.status();
  // Publish swaps the snapshot, waits out the RCU grace period, and evicts
  // either the touched columns (stable fingerprint) or the whole stale
  // generation (rebuild rotated it).
  CSR_RETURN_IF_ERROR(
      tenant->service->PublishEngine(next, receipt->touched_support));
  tenant->dynamic = std::move(next);
  tenant->update_batches->Add(1);
  tenant->updates->Add(static_cast<uint64_t>(receipt->effective_count));
  if (receipt->rebuilt) tenant->rebuilds->Add(1);
  tenant->touched_columns->Add(
      static_cast<uint64_t>(receipt->touched_support.size()));
  return receipt;
}

std::string EngineRegistry::default_tenant() const {
  std::lock_guard<std::mutex> lk(mu_);
  return order_.empty() ? std::string() : order_.front();
}

std::vector<std::string> EngineRegistry::TenantNames() const {
  std::lock_guard<std::mutex> lk(mu_);
  return order_;
}

}  // namespace csrplus::service
