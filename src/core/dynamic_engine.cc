#include "core/dynamic_engine.h"

#include <algorithm>
#include <deque>
#include <utility>

#include "core/precompute_io.h"
#include "svd/update.h"

namespace csrplus::core {
namespace {

// Builds Q^T as CSR directly from in-neighbour lists: row v of Q^T holds
// 1/indeg(v) at each in-neighbour of v.
CsrMatrix BuildTransitionTranspose(
    const std::vector<std::vector<int32_t>>& in_neighbors) {
  const Index n = static_cast<Index>(in_neighbors.size());
  std::vector<int64_t> row_ptr(static_cast<std::size_t>(n) + 1, 0);
  int64_t nnz = 0;
  for (Index v = 0; v < n; ++v) {
    nnz += static_cast<int64_t>(in_neighbors[static_cast<std::size_t>(v)].size());
    row_ptr[static_cast<std::size_t>(v) + 1] = nnz;
  }
  std::vector<int32_t> cols(static_cast<std::size_t>(nnz));
  std::vector<double> values(static_cast<std::size_t>(nnz));
  int64_t pos = 0;
  for (Index v = 0; v < n; ++v) {
    const auto& nbrs = in_neighbors[static_cast<std::size_t>(v)];
    const double w = nbrs.empty() ? 0.0 : 1.0 / static_cast<double>(nbrs.size());
    for (int32_t u : nbrs) {
      cols[static_cast<std::size_t>(pos)] = u;
      values[static_cast<std::size_t>(pos)] = w;
      ++pos;
    }
  }
  return CsrMatrix::FromParts(n, n, std::move(row_ptr), std::move(cols),
                              std::move(values));
}

// Removes `value` from a sorted vector; returns false if absent.
bool SortedErase(std::vector<int32_t>* list, int32_t value) {
  const auto it = std::lower_bound(list->begin(), list->end(), value);
  if (it == list->end() || *it != value) return false;
  list->erase(it);
  return true;
}

// Inserts `value` into a sorted vector; returns false if already present.
bool SortedInsert(std::vector<int32_t>* list, int32_t value) {
  const auto it = std::lower_bound(list->begin(), list->end(), value);
  if (it != list->end() && *it == value) return false;
  list->insert(it, value);
  return true;
}

// The one DynamicOptions check, run by both build entry points before any
// work: the rebuild triggers plus the base CSR+ options against n.
Status ValidateDynamicOptions(const DynamicOptions& options, Index num_nodes) {
  if (options.max_incremental_updates < 1) {
    return Status::InvalidArgument("max_incremental_updates must be >= 1");
  }
  if (!(options.rebuild_touched_fraction > 0.0) ||
      options.rebuild_touched_fraction > 1.0) {
    return Status::InvalidArgument(
        "rebuild_touched_fraction must be in (0, 1]");
  }
  return ValidateCsrPlusOptions(options.base, num_nodes);
}

}  // namespace

Result<DynamicCsrPlusEngine> DynamicCsrPlusEngine::Build(
    const graph::Graph& g, const DynamicOptions& options) {
  CSR_RETURN_IF_ERROR(ValidateDynamicOptions(options, g.num_nodes()));

  DynamicCsrPlusEngine dynamic;
  dynamic.options_ = options;
  dynamic.in_neighbors_.resize(static_cast<std::size_t>(g.num_nodes()));
  dynamic.out_neighbors_.resize(static_cast<std::size_t>(g.num_nodes()));
  for (Index u = 0; u < g.num_nodes(); ++u) {
    for (int32_t v : g.OutNeighbors(u)) {
      dynamic.in_neighbors_[static_cast<std::size_t>(v)].push_back(
          static_cast<int32_t>(u));
      dynamic.out_neighbors_[static_cast<std::size_t>(u)].push_back(v);
    }
  }
  dynamic.num_edges_ = g.num_edges();
  return FinishBuild(std::move(dynamic));
}

Result<DynamicCsrPlusEngine> DynamicCsrPlusEngine::BuildFromTransition(
    const CsrMatrix& transition, const DynamicOptions& options) {
  if (transition.rows() != transition.cols()) {
    return Status::InvalidArgument("transition matrix must be square");
  }
  CSR_RETURN_IF_ERROR(ValidateDynamicOptions(options, transition.rows()));

  // Q[u][v] != 0 means u -> v is an edge (column v is 1/indeg(v) over the
  // in-neighbours of v); only the structure is needed — weights are
  // renormalised from the recovered lists.
  DynamicCsrPlusEngine dynamic;
  dynamic.options_ = options;
  const Index n = transition.rows();
  dynamic.in_neighbors_.resize(static_cast<std::size_t>(n));
  dynamic.out_neighbors_.resize(static_cast<std::size_t>(n));
  const auto& row_ptr = transition.row_ptr();
  const auto& col_index = transition.col_index();
  const auto& values = transition.values();
  for (Index u = 0; u < n; ++u) {
    for (int64_t k = row_ptr[static_cast<std::size_t>(u)];
         k < row_ptr[static_cast<std::size_t>(u) + 1]; ++k) {
      if (values[static_cast<std::size_t>(k)] == 0.0) continue;
      const int32_t v = col_index[static_cast<std::size_t>(k)];
      dynamic.in_neighbors_[static_cast<std::size_t>(v)].push_back(
          static_cast<int32_t>(u));
      dynamic.out_neighbors_[static_cast<std::size_t>(u)].push_back(v);
      ++dynamic.num_edges_;
    }
  }
  return FinishBuild(std::move(dynamic));
}

Result<DynamicCsrPlusEngine> DynamicCsrPlusEngine::FinishBuild(
    DynamicCsrPlusEngine dynamic) {
  for (auto& nbrs : dynamic.in_neighbors_) {
    std::sort(nbrs.begin(), nbrs.end());
  }
  for (auto& nbrs : dynamic.out_neighbors_) {
    std::sort(nbrs.begin(), nbrs.end());
  }
  dynamic.touched_.assign(dynamic.in_neighbors_.size(), 0);
  // The cacheable-state identity of the *initial* graph + parameters:
  // fingerprint the canonical Q^T (the same matrix the SVD consumes) and
  // mix in the answer-relevant options, matching CsrPlusEngine's scheme.
  const CsrPlusOptions& base = dynamic.options_.base;
  dynamic.base_fingerprint_ = AnswerStateHash(
      FingerprintTransition(BuildTransitionTranspose(dynamic.in_neighbors_)),
      base.rank, base.damping, base.epsilon);
  CSR_RETURN_IF_ERROR(dynamic.RebuildFromScratch());
  return dynamic;
}

uint64_t DynamicCsrPlusEngine::StateFingerprint() const {
  // Stable across incremental updates (the touched-set machinery keeps
  // untouched columns bitwise invariant), rotated by every full rebuild.
  const int64_t generation = rebuild_count_;
  uint64_t hash = precompute_io::FnvHash(base_fingerprint_, &generation,
                                         sizeof(generation));
  return hash == 0 ? 1 : hash;  // 0 is reserved for "uncacheable"
}

Status DynamicCsrPlusEngine::RebuildFromScratch() {
  const CsrMatrix qt = BuildTransitionTranspose(in_neighbors_);
  svd::SvdOptions svd_options = options_.base.svd;
  svd_options.rank = options_.base.rank;
  // SVD(Q^T) yields the paper-convention factors directly (the left factor
  // of Q^T is the query factor; see csrplus_engine.cc).
  CSR_ASSIGN_OR_RETURN(svd::TruncatedSvd factors,
                       svd::ComputeTruncatedSvd(qt, svd_options));
  updates_since_rebuild_ = 0;
  ++rebuild_count_;
  CSR_RETURN_IF_ERROR(RefreshSubspace(std::move(factors)));
  // Freeze the rebuilt state: every column is fresh again, so the base
  // engine answers everything until the next effective update.
  base_engine_ = std::make_shared<const CsrPlusEngine>(*engine_);
  std::fill(touched_.begin(), touched_.end(), 0);
  touched_count_ = 0;
  return Status::OK();
}

Status DynamicCsrPlusEngine::RefreshSubspace(svd::TruncatedSvd factors) {
  CSR_ASSIGN_OR_RETURN(CsrPlusEngine engine,
                       CsrPlusEngine::PrecomputeFromPaperFactors(
                           std::move(factors), options_.base));
  engine_.emplace(std::move(engine));
  return Status::OK();
}

void DynamicCsrPlusEngine::MarkTouched(
    const std::vector<Index>& seeds,
    const std::vector<std::pair<Index, Index>>& ghost_edges) {
  const std::size_t n = in_neighbors_.size();
  // Deleted edges are still part of the pre/post union graph for this
  // batch: walks that existed before the deletion determine which columns
  // moved. Keep them as per-node overlays for both traversal directions.
  std::vector<std::vector<int32_t>> ghost_out;
  std::vector<std::vector<int32_t>> ghost_in;
  if (!ghost_edges.empty()) {
    ghost_out.resize(n);
    ghost_in.resize(n);
    for (const auto& [u, v] : ghost_edges) {
      ghost_out[static_cast<std::size_t>(u)].push_back(
          static_cast<int32_t>(v));
      ghost_in[static_cast<std::size_t>(v)].push_back(static_cast<int32_t>(u));
    }
  }

  // Forward reach D of the update targets over out-edges: every node whose
  // walk distribution p^k gained or lost mass.
  std::vector<uint8_t> forward(n, 0);
  std::deque<Index> frontier;
  for (Index seed : seeds) {
    if (forward[static_cast<std::size_t>(seed)]) continue;
    forward[static_cast<std::size_t>(seed)] = 1;
    frontier.push_back(seed);
  }
  while (!frontier.empty()) {
    const Index x = frontier.front();
    frontier.pop_front();
    const auto visit = [&](int32_t y) {
      if (!forward[static_cast<std::size_t>(y)]) {
        forward[static_cast<std::size_t>(y)] = 1;
        frontier.push_back(static_cast<Index>(y));
      }
    };
    for (int32_t y : out_neighbors_[static_cast<std::size_t>(x)]) visit(y);
    if (!ghost_out.empty()) {
      for (int32_t y : ghost_out[static_cast<std::size_t>(x)]) visit(y);
    }
  }

  // Reverse reach of D over in-edges: column q can change only if some
  // forward walk from q meets the perturbed region, i.e. q reaches D.
  std::vector<uint8_t> reached(n, 0);
  for (std::size_t x = 0; x < n; ++x) {
    if (forward[x] && !reached[x]) {
      reached[x] = 1;
      frontier.push_back(static_cast<Index>(x));
    }
  }
  while (!frontier.empty()) {
    const Index x = frontier.front();
    frontier.pop_front();
    const auto visit = [&](int32_t y) {
      if (!reached[static_cast<std::size_t>(y)]) {
        reached[static_cast<std::size_t>(y)] = 1;
        frontier.push_back(static_cast<Index>(y));
      }
    };
    for (int32_t y : in_neighbors_[static_cast<std::size_t>(x)]) visit(y);
    if (!ghost_in.empty()) {
      for (int32_t y : ghost_in[static_cast<std::size_t>(x)]) visit(y);
    }
  }

  for (std::size_t q = 0; q < n; ++q) {
    if (reached[q] && !touched_[q]) {
      touched_[q] = 1;
      ++touched_count_;
    }
  }
}

Result<UpdateReceipt> DynamicCsrPlusEngine::ApplyUpdates(
    std::span<const EdgeUpdate> updates) {
  const Index n = num_nodes();
  // Validate the whole batch up front so a bad update leaves the engine
  // untouched (no partial application).
  for (const EdgeUpdate& up : updates) {
    if (up.u < 0 || up.u >= n || up.v < 0 || up.v >= n) {
      return Status::InvalidArgument("edge endpoint out of range");
    }
    if (up.u == up.v) {
      return Status::InvalidArgument("self-loops are not supported");
    }
  }

  UpdateReceipt receipt;
  std::vector<Index> seeds;                        // targets of effective updates
  std::vector<std::pair<Index, Index>> ghosts;     // edges deleted this batch
  // Brand-updated factors pending a subspace refresh. Copied from the live
  // engine at the first effective update: its bytes are shared with the
  // snapshot this engine was cloned from, so they are never updated in
  // place.
  std::optional<svd::TruncatedSvd> factors;

  std::vector<double> delta(static_cast<std::size_t>(n), 0.0);
  std::vector<double> e_v(static_cast<std::size_t>(n), 0.0);
  for (const EdgeUpdate& up : updates) {
    auto& nbrs = in_neighbors_[static_cast<std::size_t>(up.v)];
    const auto u32 = static_cast<int32_t>(up.u);
    const double old_d = static_cast<double>(nbrs.size());
    std::fill(delta.begin(), delta.end(), 0.0);

    if (up.op == EdgeUpdate::Op::kInsert) {
      // Column v of Q changes from (1/d) 1_{old} to (1/(d+1)) 1_{old + u}.
      const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), u32);
      if (it != nbrs.end() && *it == u32) continue;  // already present
      const double new_w = 1.0 / (old_d + 1.0);
      if (old_d > 0.0) {
        const double shift = new_w - 1.0 / old_d;
        for (int32_t w : nbrs) delta[static_cast<std::size_t>(w)] = shift;
      }
      delta[static_cast<std::size_t>(up.u)] = new_w;
      nbrs.insert(it, u32);
      SortedInsert(&out_neighbors_[static_cast<std::size_t>(up.u)],
                   static_cast<int32_t>(up.v));
      ++num_edges_;
    } else {
      // Column v of Q changes from (1/d) 1_{old} to (1/(d-1)) 1_{old - u}
      // (all-zero when u was the last in-neighbour).
      if (!SortedErase(&nbrs, u32)) continue;  // edge absent
      if (!nbrs.empty()) {
        const double shift =
            1.0 / static_cast<double>(nbrs.size()) - 1.0 / old_d;
        for (int32_t w : nbrs) delta[static_cast<std::size_t>(w)] = shift;
      }
      delta[static_cast<std::size_t>(up.u)] = -1.0 / old_d;
      SortedErase(&out_neighbors_[static_cast<std::size_t>(up.u)],
                  static_cast<int32_t>(up.v));
      --num_edges_;
      ghosts.emplace_back(up.u, up.v);
    }

    ++receipt.effective_count;
    seeds.push_back(up.v);

    if (updates_since_rebuild_ >= options_.max_incremental_updates) {
      // The rebuild absorbs the structural change just applied; earlier
      // perturbations (and their seeds/ghosts) are baked into the new base.
      CSR_RETURN_IF_ERROR(RebuildFromScratch());
      receipt.rebuilt = true;
      seeds.clear();
      ghosts.clear();
      factors.reset();  // later updates start from the rebuilt factors
      continue;
    }

    // Q'^T = Q^T + e_v delta^T: rank-1 update in the factors' orientation.
    std::fill(e_v.begin(), e_v.end(), 0.0);
    e_v[static_cast<std::size_t>(up.v)] = 1.0;
    if (!factors.has_value()) {
      // The live engine holds U, Sigma and V bit for bit as its subspace
      // state was built from them.
      factors.emplace();
      factors->u = engine_->u().ToMatrix();
      factors->sigma = engine_->sigma();
      factors->v = engine_->v().ToMatrix();
    }
    CSR_RETURN_IF_ERROR(svd::ApplyRank1Update(e_v, delta, &*factors));
    ++updates_since_rebuild_;
  }

  if (!seeds.empty()) {
    MarkTouched(seeds, ghosts);
    // Once most columns are touched the cache is nearly empty anyway and
    // incremental error keeps accumulating — cut over to a fresh SVD. Only
    // after at least half the drift budget is spent, though: on a
    // strongly-connected graph a single update touches nearly every column,
    // and an ungated trigger would degenerate into a rebuild per batch.
    if (2 * updates_since_rebuild_ >= options_.max_incremental_updates &&
        static_cast<double>(touched_count_) >
            options_.rebuild_touched_fraction * static_cast<double>(n)) {
      CSR_RETURN_IF_ERROR(RebuildFromScratch());
      receipt.rebuilt = true;
      factors.reset();
    }
  }
  if (factors.has_value()) {
    // One subspace refresh per batch, not per update.
    CSR_RETURN_IF_ERROR(RefreshSubspace(std::move(*factors)));
  }

  receipt.touched_support.reserve(static_cast<std::size_t>(touched_count_));
  for (Index q = 0; q < n; ++q) {
    if (touched_[static_cast<std::size_t>(q)]) {
      receipt.touched_support.push_back(q);
    }
  }
  receipt.fingerprint = StateFingerprint();
  return receipt;
}

Result<DenseMatrix> DynamicCsrPlusEngine::MultiSourceQuery(
    const std::vector<Index>& queries) const {
  CSR_RETURN_IF_ERROR(ValidateQueries(queries, num_nodes()));
  if (touched_count_ == 0) {
    return base_engine_->MultiSourceQuery(queries);
  }

  std::vector<Index> clean, dirty;
  for (Index q : queries) {
    (IsTouched(q) ? dirty : clean).push_back(q);
  }
  if (clean.empty()) return engine_->MultiSourceQuery(queries);
  if (dirty.empty()) return base_engine_->MultiSourceQuery(queries);

  // Column j of a multi-source block depends only on queries[j] (the
  // QueryEngine contract), so the two partial blocks stitch exactly.
  CSR_ASSIGN_OR_RETURN(const DenseMatrix clean_block,
                       base_engine_->MultiSourceQuery(clean));
  CSR_ASSIGN_OR_RETURN(const DenseMatrix dirty_block,
                       engine_->MultiSourceQuery(dirty));

  const Index n = num_nodes();
  const Index cols = static_cast<Index>(queries.size());
  DenseMatrix block(n, cols);
  Index clean_pos = 0;
  Index dirty_pos = 0;
  for (Index j = 0; j < cols; ++j) {
    const bool from_dirty = IsTouched(queries[static_cast<std::size_t>(j)]);
    const DenseMatrix& src = from_dirty ? dirty_block : clean_block;
    const Index src_j = from_dirty ? dirty_pos++ : clean_pos++;
    for (Index i = 0; i < n; ++i) {
      block(i, j) = src(i, src_j);
    }
  }
  return block;
}

}  // namespace csrplus::core
