// Shared fixed-size thread pool and data-parallel loop helpers.
//
// Every hot kernel in the library (dense GEMM, sparse SpMV/SpMM, the SVD
// sketch loops, the CSR+ query phase) is expressed as a loop over disjoint
// index ranges and parallelised through this module. Design points:
//
//  * Fixed-size pool, lazily started: no thread is spawned until the first
//    parallel region actually runs with more than one shard.
//  * Width comes from `CSRPLUS_NUM_THREADS` (or hardware concurrency when
//    unset) and can be overridden at runtime with SetNumThreads() /
//    CsrPlusOptions::num_threads.
//  * `num_threads == 1` bypasses the pool entirely — the loop body runs
//    inline on the caller, so serial behaviour is bit-identical to a build
//    without this module.
//  * Static contiguous partitioning, no work stealing: shard s of S covers
//    [n*s/S, n*(s+1)/S). Kernels that write disjoint output ranges are
//    therefore bit-deterministic for *any* thread count; kernels that reduce
//    per-shard partials are deterministic for a fixed thread count.
//  * Nested parallel regions (a ParallelFor issued from inside a pool
//    worker) run inline serially, so callers may freely compose parallel
//    kernels without deadlock or oversubscription.
//
// Exceptions thrown by a shard are captured and rethrown on the calling
// thread after the region completes (first one wins).

#ifndef CSRPLUS_COMMON_PARALLEL_H_
#define CSRPLUS_COMMON_PARALLEL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace csrplus {

/// Loop body over one shard: fn(shard, begin, end) with begin/end an index
/// sub-range of [0, n). Shard ids are dense in [0, shards).
using ShardFn = std::function<void(int, int64_t, int64_t)>;

/// Process-wide fixed-size pool. Use the free functions below instead of
/// talking to the pool directly unless you need explicit shard control.
class ThreadPool {
 public:
  /// The lazily-constructed process-wide instance.
  static ThreadPool& Global();

  /// Currently configured width (>= 1).
  int num_threads() const { return num_threads_.load(std::memory_order_relaxed); }

  /// Sets the pool width (clamped to [1, 256]). Existing workers are kept;
  /// missing ones are spawned lazily by the next parallel region. Not
  /// thread-safe against concurrent parallel regions.
  void SetNumThreads(int n);

  /// Runs fn over [0, n) split into `shards` contiguous ranges, blocking
  /// until every shard finished. Runs inline (in shard order) when shards
  /// <= 1, the pool width is 1, or the caller is itself a pool worker.
  void Run(int64_t n, int shards, const ShardFn& fn);

  /// True when called from inside a pool worker thread.
  static bool InWorker();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

 private:
  ThreadPool();
  ~ThreadPool();

  void EnsureWorkers(int count);
  void WorkerLoop();
  /// Claims and executes shards of the job tagged `generation`; returns as
  /// soon as the current job is a different generation (a worker that woke
  /// late must not touch a successor job's state — its captured ShardFn
  /// pointer would dangle).
  void WorkShards(uint64_t generation);

  std::atomic<int> num_threads_;
  std::mutex run_mutex_;  // serialises concurrent Run() callers

  std::mutex mu_;  // guards the job slot below and both cvs
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  uint64_t job_generation_ = 0;
  uint64_t job_post_us_ = 0;  // obs timestamp of the current job's post
  const ShardFn* job_fn_ = nullptr;
  int64_t job_n_ = 0;
  int job_shards_ = 0;
  int next_shard_ = 0;    // guarded by mu_
  int shards_done_ = 0;   // guarded by mu_
  std::exception_ptr job_exception_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Ambient pool width (CSRPLUS_NUM_THREADS / hardware default / last
/// SetNumThreads call).
int GetNumThreads();

/// Overrides the ambient pool width for the whole process.
void SetNumThreads(int n);

/// Number of shards a parallel loop over [0, n) with an estimated total cost
/// of `work` (arbitrary units, roughly flops) would use: 1 when the region
/// is too small to amortise dispatch, otherwise min(threads, n, work-based
/// cap). Call this before ParallelForShards to size per-shard scratch.
int ParallelShardCount(int64_t n, int64_t work);

/// Runs fn(begin, end) over a partition of [0, n); serial (one inline call
/// fn(0, n)) when ParallelShardCount(n, work) == 1.
void ParallelFor(int64_t n, int64_t work,
                 const std::function<void(int64_t, int64_t)>& fn);

/// As ParallelFor but the body also receives its shard id, for kernels that
/// accumulate into per-shard scratch. `shards` must come from
/// ParallelShardCount (or be 1).
void ParallelForShards(int64_t n, int shards, const ShardFn& fn);

}  // namespace csrplus

#endif  // CSRPLUS_COMMON_PARALLEL_H_
