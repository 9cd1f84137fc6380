// Performance counters shared by all index structures.
//
// Every cost the paper reports -- the number of distance computations
// ("compdists"), the number of page accesses ("PA"), and CPU time -- is
// accounted through this module so that all indexes are measured on an
// equal footing (Section 6.1 of the paper).

#ifndef PMI_CORE_COUNTERS_H_
#define PMI_CORE_COUNTERS_H_

#include <chrono>
#include <cstdint>
#include <vector>

namespace pmi {

/// Monotonic counters attributed to one index instance.
///
/// Page reads and writes are counted by the storage layer (a buffer-pool
/// hit costs nothing); distance computations are counted by
/// DistanceComputer.  Snapshots of this struct bracket a build, query, or
/// update to produce the per-operation costs reported by the benchmarks.
///
/// Two page-access levels are kept side by side.  `page_reads` /
/// `page_writes` are LOGICAL accesses: what the paper's fixed-size LRU
/// simulation (Section 6.1) would issue, independent of any real cache
/// sitting underneath -- this is the comparable "PA" quantity every
/// conformance test pins.  `pool_hits` / `physical_reads` /
/// `physical_writes` are PHYSICAL accesses through the shared BufferPool
/// (src/storage/buffer_pool.h): what actually crossed the backing-store
/// seam after the pool absorbed repeats.  A warm pool drives
/// pa_physical() toward zero while pa() is unchanged.
struct PerfCounters {
  uint64_t dist_computations = 0;
  uint64_t page_reads = 0;
  uint64_t page_writes = 0;
  uint64_t pool_hits = 0;
  uint64_t physical_reads = 0;
  uint64_t physical_writes = 0;

  void Reset() { *this = PerfCounters{}; }

  /// Total logical page accesses, the paper's "PA" metric.
  uint64_t page_accesses() const { return page_reads + page_writes; }

  /// Accesses that reached the backing store through the buffer pool.
  uint64_t pa_physical() const { return physical_reads + physical_writes; }

  PerfCounters operator-(const PerfCounters& rhs) const {
    PerfCounters d;
    d.dist_computations = dist_computations - rhs.dist_computations;
    d.page_reads = page_reads - rhs.page_reads;
    d.page_writes = page_writes - rhs.page_writes;
    d.pool_hits = pool_hits - rhs.pool_hits;
    d.physical_reads = physical_reads - rhs.physical_reads;
    d.physical_writes = physical_writes - rhs.physical_writes;
    return d;
  }

  PerfCounters& operator+=(const PerfCounters& rhs) {
    dist_computations += rhs.dist_computations;
    page_reads += rhs.page_reads;
    page_writes += rhs.page_writes;
    pool_hits += rhs.pool_hits;
    physical_reads += rhs.physical_reads;
    physical_writes += rhs.physical_writes;
    return *this;
  }
};

/// RAII redirection of this thread's counter sink, the heart of the
/// thread-safe cost accounting (see README "Execution model").
///
/// Counting must stay a plain non-atomic increment on the hot path, yet
/// many threads query one index at once.  Every query opens a
/// CounterScope over its own PerfCounters; MetricIndex::dist() and the
/// storage layer consult Active(), so every charge made inside the query
/// lands in its counter, which the entry point returns as the query's
/// cost -- the index itself is never written.  uint64 addition is exact
/// and order-free, so batch totals are identical at any thread count.
class CounterScope {
 public:
  explicit CounterScope(PerfCounters* shard) : prev_(current_) {
    current_ = shard;
  }
  ~CounterScope() { current_ = prev_; }

  CounterScope(const CounterScope&) = delete;
  CounterScope& operator=(const CounterScope&) = delete;

  /// The shard of the innermost open scope on this thread, or `fallback`
  /// when none is open (the serial path).
  static PerfCounters* Active(PerfCounters* fallback) {
    return current_ != nullptr ? current_ : fallback;
  }

 private:
  PerfCounters* prev_;
  static inline thread_local PerfCounters* current_ = nullptr;
};

/// Cache-line-isolated per-slot counter shard for parallel regions.
/// Adjacent PerfCounters in a plain vector would share 64-byte lines,
/// and the hot-path increment (one read-modify-write per distance
/// computation) would ping-pong those lines between cores -- the
/// alignment keeps each slot's counting genuinely private.
struct alignas(64) CounterShard {
  PerfCounters counters;
};

/// Folds per-slot counter shards into `total` -- the task-boundary
/// aggregation of the parallel execution engine.
inline void FoldCounters(const std::vector<CounterShard>& shards,
                         PerfCounters* total) {
  for (const CounterShard& s : shards) *total += s.counters;
}

/// Wall-clock stopwatch used for the CPU-time measurements.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Seconds elapsed since construction or the last Restart().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  void Restart() { start_ = Clock::now(); }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace pmi

#endif  // PMI_CORE_COUNTERS_H_
