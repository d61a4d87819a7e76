// Dynamic CSR+ — multi-source CoSimRank on evolving graphs.
//
// The paper's related work highlights evolving networks (Yu & Fan, WWW
// 2018) as the setting where one-shot precomputation breaks down. This
// extension keeps the CSR+ state fresh under batched edge insertions AND
// deletions without re-running the truncated SVD from scratch per change:
//
//   * Updating edge u -> v changes exactly one column of the transition
//     matrix Q (column v renormalises between 1/d and 1/d', gaining or
//     losing entry u), i.e. Q' = Q + delta e_v^T — a rank-1 modification.
//   * The factors (maintained for Q^T, the paper's convention) absorb the
//     rank-1 change via Brand's update (svd/update.h) in O(nr + r^3).
//   * The r x r subspace state (H, P, Z) is then rebuilt from the factors —
//     Algorithm 1 lines 3-6, also O(nr^2) — far below the O(r(m + nr))
//     cost of a full precompute.
//
// Delta-aware serving. A Brand update perturbs every factor entry, so a
// naive incremental engine changes every answer bitwise on every update and
// a fingerprint-keyed column cache would have to drop its whole generation
// each time. This engine instead serves from two states:
//
//   * a frozen *base* engine — the CSR+ precompute from the last full SVD
//     rebuild. Columns the updates provably cannot have changed (see below)
//     are answered here, bit-identically across updates.
//   * the *live* Brand-updated factors — columns an update may have changed
//     are answered from the freshest state.
//
// The linearized view of SimRank-family scores (Maehara et al.; Oseledets &
// Ovchinnikov's low-rank factor form) localises an edge update's effect:
// perturbing edge u -> v changes walk distributions only for sources that
// reach v's in-neighbourhood, and score column q = [S]_{*,q} can change
// only when the forward reachability sets Desc(q) and Desc(v) intersect
// (the walks must meet for any inner product to move). ApplyUpdates
// computes the sound overapproximation
//
//   touched = ReverseReach( ForwardReach({v : updated}) )
//
// over the union of the pre- and post-batch edge sets, in O(n + m) per
// batch. Untouched columns are exactly invariant in exact arithmetic, so
// serving them from the frozen base factors is as accurate as before the
// update — and bitwise stable, which is what makes StateFingerprint()
// stable across incremental updates and lets a column cache keep its
// generation and evict only UpdateReceipt::touched_support.
//
// Incremental updates hold the subspace at rank r, so error accumulates as
// the true spectrum drifts; after `max_incremental_updates` effective
// updates — or when the touched set covers most of the graph — the engine
// transparently recomputes the SVD from scratch, which rotates the
// fingerprint (the cache's whole-generation eviction path).

#ifndef CSRPLUS_CORE_DYNAMIC_ENGINE_H_
#define CSRPLUS_CORE_DYNAMIC_ENGINE_H_

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/csrplus_engine.h"
#include "graph/graph.h"

namespace csrplus::core {

/// One edge mutation. The batched mutation surface
/// (DynamicCsrPlusEngine::ApplyUpdates) consumes spans of these; kInsert of
/// an existing edge and kDelete of a missing edge are no-ops (they do not
/// count toward UpdateReceipt::effective_count).
struct EdgeUpdate {
  enum class Op : uint8_t {
    kInsert = 0,
    kDelete = 1,
  };

  Op op = Op::kInsert;
  Index u = 0;  ///< source endpoint (u -> v)
  Index v = 0;  ///< target endpoint

  static EdgeUpdate Insert(Index u, Index v) {
    return EdgeUpdate{Op::kInsert, u, v};
  }
  static EdgeUpdate Delete(Index u, Index v) {
    return EdgeUpdate{Op::kDelete, u, v};
  }
};

/// Outcome of one ApplyUpdates batch — the contract a serving layer needs
/// to keep a fingerprint-keyed column cache sound (docs/mutations.md).
struct UpdateReceipt {
  /// Updates that actually changed the edge set (no-ops excluded).
  int effective_count = 0;
  /// Every column id whose answer may differ from the last full rebuild —
  /// cumulative across batches, sorted ascending. A cache holding columns
  /// under this engine's (stable) fingerprint must evict exactly these
  /// (ColumnCache::EvictColumns); all other columns are bitwise unchanged.
  /// Empty when `rebuilt` is true: the fingerprint rotated instead.
  std::vector<Index> touched_support;
  /// True when the batch triggered a from-scratch SVD rebuild. The
  /// fingerprint rotated, so whole-generation eviction applies and
  /// touched_support is empty.
  bool rebuilt = false;
  /// StateFingerprint() after the batch.
  uint64_t fingerprint = 0;
};

/// Options for the dynamic engine.
struct DynamicOptions {
  /// Base CSR+ parameters (rank, damping, epsilon, SVD engine).
  CsrPlusOptions base;
  /// Effective updates absorbed incrementally before a from-scratch SVD
  /// rebuild.
  int max_incremental_updates = 64;
  /// Touched-fraction rebuild trigger: when more than this fraction of all
  /// columns is in the touched set, incremental maintenance stops paying
  /// for itself (the cache would be nearly empty anyway) and the engine
  /// rebuilds from scratch. Fires only after at least half of
  /// max_incremental_updates has been absorbed since the last rebuild, so
  /// strongly-connected graphs (where one update touches nearly everything)
  /// still amortise incremental maintenance instead of rebuilding per
  /// batch. Must be in (0, 1].
  double rebuild_touched_fraction = 0.75;
};

/// CSR+ engine that stays queryable across edge insertions and deletions.
///
/// Implements core::QueryEngine, so it slots behind the service layer, the
/// eval runner and the CLI like any static engine. Queries between mutations
/// are safe from any thread; ApplyUpdates mutates the state and must be
/// externally serialised against in-flight queries. The serving layer does
/// this without blocking readers by cloning (the engine is copyable),
/// mutating the clone and atomically publishing it — the RCU snapshot
/// scheme in service::QueryService::PublishEngine.
///
/// StateFingerprint() is *stable* across incremental ApplyUpdates batches
/// and rotates only on a full SVD rebuild: untouched columns are bitwise
/// invariant (served from the frozen base factors), so cached columns stay
/// valid and only UpdateReceipt::touched_support must be evicted.
class DynamicCsrPlusEngine : public QueryEngine {
 public:
  /// Builds the initial state from a graph snapshot.
  static Result<DynamicCsrPlusEngine> Build(const graph::Graph& g,
                                            const DynamicOptions& options);

  /// Builds the initial state from an already column-normalised transition
  /// matrix (the engine-registry surface). The in-neighbour lists are
  /// recovered from the sparsity structure of Q; values are renormalised.
  static Result<DynamicCsrPlusEngine> BuildFromTransition(
      const CsrMatrix& transition, const DynamicOptions& options);

  /// Applies a batch of edge updates in order and refreshes the queryable
  /// state once at the end. Validation (endpoint range, self-loops) runs
  /// for the whole batch before anything mutates, so a bad batch leaves the
  /// engine untouched. Inserting an existing edge / deleting a missing edge
  /// are silent no-ops. Returns the receipt the serving layer feeds into
  /// delta-aware cache eviction.
  Result<UpdateReceipt> ApplyUpdates(std::span<const EdgeUpdate> updates);

  // QueryEngine: clean columns answer from the frozen base engine, touched
  // columns from the live Brand-updated factors (see the header comment).
  Result<DenseMatrix> MultiSourceQuery(
      const std::vector<Index>& queries) const override;
  Index NumNodes() const override { return num_nodes(); }
  std::string_view Name() const override { return "CSR+dyn"; }

  /// Non-zero hash of (initial graph identity, parameters, rebuild count):
  /// stable across incremental ApplyUpdates batches (untouched columns are
  /// bitwise invariant, so the cache generation survives), rotated by every
  /// from-scratch rebuild (all columns change, whole-generation eviction).
  uint64_t StateFingerprint() const override;

  /// Cost and accuracy delegate to the inner CSR+ engine: mutation changes
  /// the factors, never the per-query work or the exactness class.
  CostModel EstimateCost(Index batch_queries) const override {
    return engine_->EstimateCost(batch_queries);
  }
  AccuracyTag Accuracy() const override { return engine_->Accuracy(); }

  /// The live engine over the freshest factors (valid until the next
  /// ApplyUpdates). Touched columns are served from it.
  const CsrPlusEngine& engine() const { return *engine_; }

  /// Number of nodes.
  Index num_nodes() const {
    return static_cast<Index>(in_neighbors_.size());
  }

  /// Number of directed edges currently in the graph.
  int64_t num_edges() const { return num_edges_; }

  /// Effective updates absorbed since the last from-scratch rebuild.
  int updates_since_rebuild() const { return updates_since_rebuild_; }

  /// Total from-scratch rebuilds performed (including the initial build).
  int rebuild_count() const { return rebuild_count_; }

  /// Columns currently in the touched set (cumulative since last rebuild).
  Index touched_count() const { return touched_count_; }

  /// True when `node`'s answer column may differ from the last rebuild.
  bool IsTouched(Index node) const {
    return touched_[static_cast<std::size_t>(node)] != 0;
  }

 private:
  DynamicCsrPlusEngine() = default;

  /// Recomputes the truncated SVD of Q^T from the neighbour lists, freezes
  /// the result as the new base engine and clears the touched set.
  Status RebuildFromScratch();

  /// Re-runs Algorithm 1 lines 3-6 from `factors` (of Q^T, the paper's
  /// convention) and makes the result the live engine.
  Status RefreshSubspace(svd::TruncatedSvd factors);

  /// Marks touched = ReverseReach(ForwardReach(seeds)) over the current
  /// adjacency plus `ghost_edges` (edges deleted during the batch, still
  /// part of the pre/post union graph).
  void MarkTouched(const std::vector<Index>& seeds,
                   const std::vector<std::pair<Index, Index>>& ghost_edges);

  /// Shared tail of Build/BuildFromTransition once in_neighbors_ is filled.
  static Result<DynamicCsrPlusEngine> FinishBuild(DynamicCsrPlusEngine dynamic);

  DynamicOptions options_;
  std::vector<std::vector<int32_t>> in_neighbors_;   // sorted per node
  std::vector<std::vector<int32_t>> out_neighbors_;  // sorted per node
  int64_t num_edges_ = 0;
  /// Live engine over the Brand-updated factors (freshest answers; serves
  /// touched columns). It owns the only copy of those factors, and engine
  /// clones share its bytes.
  std::optional<CsrPlusEngine> engine_;
  /// Frozen engine from the last full rebuild (serves untouched columns
  /// bit-identically across updates). Shared so engine clones are cheap.
  std::shared_ptr<const CsrPlusEngine> base_engine_;
  /// touched_[q] != 0 <=> column q may differ from base_engine_'s answer.
  std::vector<uint8_t> touched_;
  Index touched_count_ = 0;
  int updates_since_rebuild_ = 0;
  int rebuild_count_ = 0;
  uint64_t base_fingerprint_ = 0;  // initial graph + parameter identity
};

}  // namespace csrplus::core

#endif  // CSRPLUS_CORE_DYNAMIC_ENGINE_H_
