// Column-level result cache for CoSimRank query serving.
//
// The QueryEngine contract guarantees that column j of a multi-source block
// depends only on queries[j] — so a single-source answer column is a pure
// function of (engine state, node id) and can be memoised across requests,
// engines and even engine restarts (a warm start from the same artifact
// yields the same StateFingerprint). Under the skewed traffic the service
// layer targets, the same hot sources are queried over and over; serving a
// cached n-vector costs one O(n) copy instead of the O(nr) GEMM column.
//
// Shape:
//   * One lock: a single mutex guards one LRU list, one key index and one
//     set of counters. Each cache serves one QueryService, whose lone
//     dispatcher thread does every Lookup/Insert; the only other caller is
//     PublishEngine's eviction on the writer thread, so there is no reader
//     traffic to spread over shards.
//   * Bounded: one global LRU over capacity_bytes; inserting past it evicts
//     least-recently-used columns first, so a cache sized for k columns
//     keeps any k columns.
//   * Budget-charged: every insert first asks the global MemoryBudget
//     whether the cache's total resident bytes plus the incoming column
//     still fit; over budget the insert is rejected (never evicts on the
//     budget's behalf — the budget is advisory and process-wide).
//   * Invalidatable, at two granularities. EvictEngine(fp) drops a whole
//     generation (an engine rebuilt from scratch rotates its fingerprint,
//     so its old columns just stop hitting and are reclaimed eagerly).
//     EvictColumns(fp, nodes) drops exactly the named columns — the
//     delta-aware path: DynamicCsrPlusEngine::ApplyUpdates keeps its
//     fingerprint stable and reports the touched columns in its
//     UpdateReceipt, so everything else keeps hitting (docs/mutations.md).
//
// Fingerprint 0 is reserved as "engine cannot vouch for its state": it is
// never inserted, so a fingerprint-0 lookup counts as a miss and a
// fingerprint-0 insert as a rejection.
//
// Instrumented with csrplus.cache.* metrics and cache_lookup/cache_insert
// spans (reference: docs/observability.md).

#ifndef CSRPLUS_CACHE_COLUMN_CACHE_H_
#define CSRPLUS_CACHE_COLUMN_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "linalg/dense_matrix.h"

namespace csrplus::cache {

using linalg::Index;

/// Tuning knobs for ColumnCache.
struct ColumnCacheOptions {
  /// Resident-byte capacity (columns only; per-entry bookkeeping overhead
  /// is not charged).
  int64_t capacity_bytes = 256ll << 20;
};

/// Point-in-time view of the cache counters.
struct ColumnCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t inserts = 0;
  int64_t evictions = 0;       ///< capacity (LRU) evictions
  int64_t invalidations = 0;   ///< entries dropped by Evict*/Clear
  int64_t rejections = 0;      ///< inserts refused (budget / capacity / fp 0)
  int64_t resident_bytes = 0;
  int64_t resident_columns = 0;

  double hit_rate() const {
    const int64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// Thread-safe LRU cache of single-source answer columns.
class ColumnCache {
 public:
  explicit ColumnCache(const ColumnCacheOptions& options = {});

  ColumnCache(const ColumnCache&) = delete;
  ColumnCache& operator=(const ColumnCache&) = delete;

  /// Looks up (fingerprint, node). On a hit, writes the n cached values to
  /// dst[0], dst[stride], ..., dst[(n-1)*stride] — stride 1 fills a plain
  /// vector, stride = row-width scatters straight into a row-major matrix
  /// column — promotes the entry to most-recently-used, and returns true.
  /// `n` must match the cached column length (CHECK on mismatch: a same-
  /// fingerprint engine always has the same node count).
  bool Lookup(uint64_t fingerprint, Index node, double* dst, int64_t stride,
              Index n);

  /// The same lookup at stride 1 into *out, resized to the column length
  /// (cleared on a miss).
  bool Lookup(uint64_t fingerprint, Index node, std::vector<double>* out);

  /// Inserts a copy of column[0..n) under (fingerprint, node), evicting
  /// least-recently-used entries if needed for capacity. Returns false —
  /// and caches nothing — when the fingerprint is 0, the column alone
  /// exceeds the capacity, or the global MemoryBudget
  /// refuses the cache's grown footprint. Re-inserting an existing key
  /// refreshes recency but keeps the original bytes (same-fingerprint
  /// answers are bit-identical by contract, so there is nothing to update).
  bool Insert(uint64_t fingerprint, Index node, const double* column, Index n);

  /// Drops every entry belonging to `fingerprint` (stale-engine reclaim).
  /// Fingerprint 0 is a no-op. Returns the number of entries dropped.
  int64_t EvictEngine(uint64_t fingerprint);

  /// Drops exactly the entries (fingerprint, node) for the given nodes —
  /// the delta-aware invalidation driven by UpdateReceipt::touched_support.
  /// Absent keys and fingerprint 0 are no-ops. Returns the number of
  /// entries dropped (counted as invalidations, like EvictEngine). Takes
  /// the lock once per node, so a large touched set from the writer thread
  /// never holds off the dispatcher's lookups for the whole loop.
  int64_t EvictColumns(uint64_t fingerprint, const std::vector<Index>& nodes);

  /// Drops everything.
  void Clear();

  /// A consistent snapshot of the counters.
  ColumnCacheStats Stats() const;

 private:
  struct Key {
    uint64_t fingerprint;
    Index node;
    bool operator==(const Key& other) const {
      return fingerprint == other.fingerprint && node == other.node;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };
  struct Entry {
    Key key;
    std::vector<double> column;
  };
  using LruList = std::list<Entry>;

  /// Finds (fingerprint, node) under the lock; on a hit calls
  /// copy(column) while the entry is pinned and promotes it to MRU.
  template <typename CopyFn>
  bool Probe(uint64_t fingerprint, Index node, const CopyFn& copy);
  /// Unlinks `it` from the list and the index and releases its bytes.
  /// Caller holds mutex_. Returns the next list position.
  LruList::iterator EraseLocked(LruList::iterator it);
  /// Counts `dropped` erased entries as invalidations and publishes the
  /// resident gauges. Caller holds mutex_.
  void AccountInvalidationsLocked(int64_t dropped);
  /// Publishes the resident-bytes/columns gauges. Caller holds mutex_.
  void PublishResidentLocked() const;

  const int64_t capacity_bytes_;
  mutable std::mutex mutex_;  // guards every member below
  LruList lru_;  // front = most recently used
  std::unordered_map<Key, LruList::iterator, KeyHash> index_;
  int64_t resident_bytes_ = 0;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t inserts_ = 0;
  int64_t evictions_ = 0;
  int64_t invalidations_ = 0;
  int64_t rejections_ = 0;
};

}  // namespace csrplus::cache

#endif  // CSRPLUS_CACHE_COLUMN_CACHE_H_
