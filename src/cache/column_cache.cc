#include "cache/column_cache.h"

#include <algorithm>
#include <iterator>

#include "common/check.h"
#include "common/memory.h"
#include "linalg/kernels/kernels.h"
#include "obs/stats.h"
#include "obs/trace.h"

namespace csrplus::cache {

// Splitmix64 finalizer over the mixed key — cheap, and spreads consecutive
// node ids of one engine across buckets.
std::size_t ColumnCache::KeyHash::operator()(const Key& k) const {
  uint64_t x =
      k.fingerprint ^ (static_cast<uint64_t>(k.node) * 0x9E3779B97F4A7C15ULL);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return static_cast<std::size_t>(x);
}

ColumnCache::ColumnCache(const ColumnCacheOptions& options)
    : capacity_bytes_(std::max<int64_t>(0, options.capacity_bytes)) {}

template <typename CopyFn>
bool ColumnCache::Probe(uint64_t fingerprint, Index node, const CopyFn& copy) {
  CSRPLUS_TRACE_SPAN_ARG(span, obs::spans::kCacheLookup, "node",
                         static_cast<int64_t>(node));
  bool hit = false;
  {
    // One critical section: find and copy while the entry is pinned by the
    // lock, so a concurrent eviction can never tear the copy.
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(Key{fingerprint, node});
    if (it != index_.end()) {
      copy(it->second->column);
      lru_.splice(lru_.begin(), lru_, it->second);  // -> MRU
      ++hits_;
      hit = true;
    } else {
      ++misses_;
    }
  }
  if (hit) {
    CSRPLUS_OBS_COUNTER_ADD("csrplus.cache.hits", "lookups",
                            "column-cache lookups served from cache", 1);
  } else {
    CSRPLUS_OBS_COUNTER_ADD("csrplus.cache.misses", "lookups",
                            "column-cache lookups that fell through to the "
                            "engine",
                            1);
  }
  return hit;
}

bool ColumnCache::Lookup(uint64_t fingerprint, Index node, double* dst,
                         int64_t stride, Index n) {
  return Probe(fingerprint, node, [&](const std::vector<double>& column) {
    CSR_CHECK_EQ(static_cast<Index>(column.size()), n);
    // Strided copy into the caller's result block via the dispatched
    // scatter kernel (vectorized on AVX-512).
    linalg::kernels::F64().scatter(dst, stride, column.data(), n);
  });
}

bool ColumnCache::Lookup(uint64_t fingerprint, Index node,
                         std::vector<double>* out) {
  out->clear();
  return Probe(fingerprint, node,
               [out](const std::vector<double>& column) { *out = column; });
}

bool ColumnCache::Insert(uint64_t fingerprint, Index node,
                         const double* column, Index n) {
  CSRPLUS_TRACE_SPAN_ARG(span, obs::spans::kCacheInsert, "node",
                         static_cast<int64_t>(node));
  const int64_t bytes =
      static_cast<int64_t>(n) * static_cast<int64_t>(sizeof(double));
  bool rejected = false;
  bool inserted = false;
  int64_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (fingerprint == 0 || n <= 0 || bytes > capacity_bytes_) {
      ++rejections_;
      rejected = true;
    } else if (const auto it = index_.find(Key{fingerprint, node});
               it != index_.end()) {
      // Bit-identical by contract — just refresh recency.
      lru_.splice(lru_.begin(), lru_, it->second);
    } else if (!MemoryBudget::Global()
                    .TryReserve(resident_bytes_ + bytes, "column cache insert")
                    .ok()) {
      // The process-wide budget says the cache's grown footprint no longer
      // fits. Reject rather than evict: the budget is advisory and global,
      // so shrinking the cache would not make the reservation meaningful.
      ++rejections_;
      rejected = true;
    } else {
      while (resident_bytes_ + bytes > capacity_bytes_ && !lru_.empty()) {
        EraseLocked(std::prev(lru_.end()));
        ++evicted;
      }
      lru_.push_front(Entry{Key{fingerprint, node},
                            std::vector<double>(column, column + n)});
      index_.emplace(Key{fingerprint, node}, lru_.begin());
      resident_bytes_ += bytes;
      evictions_ += evicted;
      ++inserts_;
      inserted = true;
      PublishResidentLocked();
    }
  }
  if (inserted) {
    CSRPLUS_OBS_COUNTER_ADD("csrplus.cache.inserts", "columns",
                            "fresh answer columns inserted into the cache", 1);
  }
  if (evicted > 0) {
    CSRPLUS_OBS_COUNTER_ADD("csrplus.cache.evictions", "columns",
                            "columns evicted LRU-first to stay in capacity",
                            evicted);
  }
  if (rejected) {
    CSRPLUS_OBS_COUNTER_ADD(
        "csrplus.cache.rejections", "inserts",
        "inserts refused (memory budget, oversize column or fingerprint 0)",
        1);
  }
  return inserted;
}

int64_t ColumnCache::EvictEngine(uint64_t fingerprint) {
  if (fingerprint == 0) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  int64_t dropped = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->key.fingerprint == fingerprint) {
      it = EraseLocked(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  AccountInvalidationsLocked(dropped);
  return dropped;
}

int64_t ColumnCache::EvictColumns(uint64_t fingerprint,
                                  const std::vector<Index>& nodes) {
  if (fingerprint == 0) return 0;
  int64_t dropped = 0;
  // Point lookups, not a scan: the touched set is usually a small fraction
  // of the resident columns (the whole point of delta-aware invalidation).
  for (Index node : nodes) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(Key{fingerprint, node});
    if (it == index_.end()) continue;
    EraseLocked(it->second);
    AccountInvalidationsLocked(1);
    ++dropped;
  }
  return dropped;
}

void ColumnCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  const int64_t dropped = static_cast<int64_t>(lru_.size());
  for (auto it = lru_.begin(); it != lru_.end();) it = EraseLocked(it);
  AccountInvalidationsLocked(dropped);
}

ColumnCache::LruList::iterator ColumnCache::EraseLocked(
    LruList::iterator it) {
  resident_bytes_ -= static_cast<int64_t>(it->column.size() * sizeof(double));
  index_.erase(it->key);
  return lru_.erase(it);
}

void ColumnCache::AccountInvalidationsLocked(int64_t dropped) {
  if (dropped == 0) return;
  invalidations_ += dropped;
  CSRPLUS_OBS_COUNTER_ADD("csrplus.cache.invalidations", "columns",
                          "stale-fingerprint columns dropped eagerly",
                          dropped);
  PublishResidentLocked();
}

void ColumnCache::PublishResidentLocked() const {
  CSRPLUS_OBS_GAUGE_SET("csrplus.cache.resident_bytes", "bytes",
                        "bytes of answer columns resident in the cache",
                        resident_bytes_);
  CSRPLUS_OBS_GAUGE_SET("csrplus.cache.resident_columns", "columns",
                        "answer columns resident in the cache",
                        static_cast<int64_t>(lru_.size()));
}

ColumnCacheStats ColumnCache::Stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ColumnCacheStats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.inserts = inserts_;
  stats.evictions = evictions_;
  stats.invalidations = invalidations_;
  stats.rejections = rejections_;
  stats.resident_bytes = resident_bytes_;
  stats.resident_columns = static_cast<int64_t>(lru_.size());
  return stats;
}

}  // namespace csrplus::cache
