// The common interface of all pivot-based metric indexes.
//
// Every index in the survey implements MetricIndex: build over a dataset +
// metric + shared pivot set, answer metric range queries (Definition 1)
// and metric k-nearest-neighbor queries (Definition 2), support the
// update operation of Section 6.3 (delete an object, insert it back), and
// report storage split into main-memory (I) and disk (D) bytes (Table 4).
//
// Cost accounting follows the template-method pattern: the public
// non-virtual entry points wrap each *Impl call in a stopwatch and a
// counter sink, so all indexes report compdists / PA / CPU time
// identically.  Queries count into a PerfCounters local to the call (a
// CounterScope) and return it, so they never write the index and any
// number of threads may query one instance at once.  Build, LoadState,
// Insert and Remove mutate the index and are exclusive: no other
// operation may run on the instance meanwhile.

#ifndef PMI_CORE_INDEX_H_
#define PMI_CORE_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/counters.h"
#include "src/core/dataset.h"
#include "src/core/knn_heap.h"
#include "src/core/metric.h"
#include "src/core/object.h"
#include "src/core/pivots.h"
#include "src/core/serialize.h"
#include "src/core/status.h"
#include "src/storage/buffer_pool.h"

namespace pmi {

/// Tuning knobs.  Defaults reproduce the paper's setup (Section 6.1).
struct IndexOptions {
  /// Disk page size.  4 KB default; the paper uses 40 KB for CPT and the
  /// PM-tree on high-dimensional datasets (Color, Synthetic) because those
  /// two store objects inside tree nodes.
  uint32_t page_size = 4096;

  /// LRU buffer-pool capacity (bytes); 128 KB per the paper.  Sizes the
  /// logical PA simulation of every PagedFile the index creates, and the
  /// private physical pool when `buffer_pool` is not set.
  uint32_t cache_bytes = 128 * 1024;

  /// Shared physical page cache.  When set, every PagedFile of the index
  /// serves its page bytes through this pool (one cache budget across
  /// indexes and shards); when null, each PagedFile creates a private
  /// pool of `cache_bytes`.  Physical pool size never changes logical PA
  /// -- the paper-conformance quantity -- only pa_physical().  Held as a
  /// shared_ptr because read snapshots can outlive the facade that
  /// configured them.
  std::shared_ptr<BufferPool> buffer_pool;

  /// Seed for any internal randomized decision (BKT pivots, M-tree split
  /// sampling, ...).
  uint64_t seed = 42;

  // -- pivot-based trees ----------------------------------------------------
  /// MVPT arity m; the paper sets m = 5 (Section 4.3).
  uint32_t mvpt_arity = 5;
  /// Max objects in a tree leaf before splitting (BKT/FQT/MVPT).
  uint32_t tree_leaf_capacity = 16;
  /// BKT/FQT: number of equal-width distance buckets per node, used when
  /// the discrete distance domain is large (Section 4.1 discussion).
  uint32_t tree_fanout = 16;

  // -- EPT / EPT* -----------------------------------------------------------
  /// EPT group size m (pivots per random group).  0 = estimate via the
  /// cost model of Equation (1).
  uint32_t ept_group_size = 0;
  /// Candidate outlier count for PSA ("cp_scale is set to 40").
  uint32_t ept_cp_scale = 40;
  /// Sample size |S| used by PSA and by EPT's mu estimation.
  uint32_t ept_sample_size = 64;

  // -- M-index --------------------------------------------------------------
  /// Cluster split threshold ("maxnum, set to 1,600 in this paper").
  uint32_t mindex_maxnum = 1600;

  // -- SPB-tree -------------------------------------------------------------
  /// Bits per pivot dimension for the SFC grid. 0 = auto (<= 63 total).
  uint32_t spb_bits_per_dim = 0;
};

/// The single validation point for IndexOptions: every facade entry point
/// (and TryMakeIndex) routes options through here so bad knobs surface as
/// kInvalidArgument instead of undefined behavior deep in the storage
/// layer.  The harness constructors stay unchecked by design -- experiment
/// code uses the defaults.
Status ValidateOptions(const IndexOptions& options);

/// Costs of one build / query / update operation.  page_reads/page_writes
/// are the paper's logical PA; pool_hits/physical_reads/physical_writes
/// are what actually crossed the buffer-pool seam (see counters.h).
struct OpStats {
  uint64_t dist_computations = 0;
  uint64_t page_reads = 0;
  uint64_t page_writes = 0;
  uint64_t pool_hits = 0;
  uint64_t physical_reads = 0;
  uint64_t physical_writes = 0;
  double seconds = 0;

  uint64_t page_accesses() const { return page_reads + page_writes; }
  uint64_t pa_physical() const { return physical_reads + physical_writes; }

  /// The costs counted in `c`, over `seconds` of wall clock.
  static OpStats From(const PerfCounters& c, double seconds = 0) {
    OpStats s;
    s.dist_computations = c.dist_computations;
    s.page_reads = c.page_reads;
    s.page_writes = c.page_writes;
    s.pool_hits = c.pool_hits;
    s.physical_reads = c.physical_reads;
    s.physical_writes = c.physical_writes;
    s.seconds = seconds;
    return s;
  }

  OpStats& operator+=(const OpStats& o) {
    dist_computations += o.dist_computations;
    page_reads += o.page_reads;
    page_writes += o.page_writes;
    pool_hits += o.pool_hits;
    physical_reads += o.physical_reads;
    physical_writes += o.physical_writes;
    seconds += o.seconds;
    return *this;
  }
};

/// Abstract pivot-based metric index.
class MetricIndex {
 public:
  explicit MetricIndex(IndexOptions options = {}) : options_(options) {}
  virtual ~MetricIndex() = default;

  MetricIndex(const MetricIndex&) = delete;
  MetricIndex& operator=(const MetricIndex&) = delete;

  /// Short display name, e.g. "LAESA" or "M-index*".
  virtual std::string name() const = 0;

  /// True for the pivot-based external indexes (category 3).
  virtual bool disk_based() const = 0;

  /// Builds the index over every object of `data`.  The dataset, metric,
  /// and pivots must outlive the index.  Returns the construction cost.
  OpStats Build(const Dataset& data, const Metric& metric,
                const PivotSet& pivots) {
    data_ = &data;
    metric_ = &metric;
    pivots_ = pivots;
    return Measure([&] { BuildImpl(); });
  }

  /// MRQ(q, r): all ids o with d(q,o) <= r, in `out` (unordered).  A
  /// single query is a batch of one: it runs through RangeQueryBatch,
  /// so one engine answers both forms.
  OpStats RangeQuery(const ObjectView& q, double r,
                     std::vector<ObjectId>* out) const;

  /// MkNNQ(q, k): the k nearest objects, ascending by distance.  A batch
  /// of one, like RangeQuery.
  OpStats KnnQuery(const ObjectView& q, size_t k,
                   std::vector<Neighbor>* out) const;

  /// Deep-copies this index into an independent instance bound to the
  /// same (data, metric, pivots).  The clone answers queries identically
  /// and its mutations never affect the source -- bulk state held in a
  /// PivotTable is shared copy-on-write at 256-row block granularity, so
  /// cloning is O(blocks) pointer copies and a single-row update touches
  /// one block.  This is the shadow-copy primitive of the concurrency
  /// layer (the writer clones, applies, publishes).  Fail-safe default:
  /// nullptr, meaning the index does not support shadow-copy updates and
  /// the facade keeps it on the serialized legacy path.
  virtual std::unique_ptr<MetricIndex> Clone() const { return nullptr; }

  /// Batch MRQ descriptor form: answers MRQ(queries[i], radii[i]) into
  /// (*out)[i] for every i -- per-query thresholds, so callers can mix
  /// selectivities in one batch.  The table indexes (LAESA, EPT/EPT*,
  /// CPT's MRQ) answer the whole batch in one block-major pass over
  /// their pivot table; every other index runs its per-query hooks over
  /// query chunks on the global ThreadPool (inline when another region
  /// holds the pool; see ParallelQueryChunks).  Per-query result buffers
  /// are element-private and every distance computation is counted into
  /// a per-query shard, so results, total compdists, and the optional
  /// `per_query` stats are identical across batch splits (a batch of N
  /// equals N batches of one), thread counts, and SIMD dispatch levels.
  /// Per-query stats carry compdists; `seconds` is meaningful only on
  /// the batch total (wall clock of the whole batch, the QPS
  /// denominator).  Page accesses are attributed per query through the
  /// same CounterScope routing as compdists (the disk indexes charge
  /// both levels via CounterScope::Active), so batch totals equal the
  /// serial sums.  The *order* in which concurrent queries touch a disk
  /// index's logical LRU simulation depends on the thread schedule, so
  /// logical PA totals are pinned only for serial execution; results
  /// never depend on it.
  OpStats RangeQueryBatch(const std::vector<ObjectView>& queries,
                          const std::vector<double>& radii,
                          std::vector<std::vector<ObjectId>>* out,
                          std::vector<OpStats>* per_query = nullptr) const;

  /// Former name of RangeQueryBatch, kept for existing callers.
  OpStats RangeQueryBatchShared(
      const std::vector<ObjectView>& queries, const std::vector<double>& radii,
      std::vector<std::vector<ObjectId>>* out) const {
    return RangeQueryBatch(queries, radii, out);
  }

  /// Uniform-radius convenience form of the batch MRQ descriptor.
  OpStats RangeQueryBatch(const std::vector<ObjectView>& queries, double r,
                          std::vector<std::vector<ObjectId>>* out) const {
    return RangeQueryBatch(queries, std::vector<double>(queries.size(), r),
                           out);
  }

  /// Batch MkNNQ descriptor form; same contract as RangeQueryBatch, with
  /// per-query neighbor counts.  The block-major scans re-enter each
  /// block with every query's current (shrinking) heap radius.
  OpStats KnnQueryBatch(const std::vector<ObjectView>& queries,
                        const std::vector<size_t>& ks,
                        std::vector<std::vector<Neighbor>>* out,
                        std::vector<OpStats>* per_query = nullptr) const;

  /// Former name of KnnQueryBatch, kept for existing callers.
  OpStats KnnQueryBatchShared(const std::vector<ObjectView>& queries,
                              const std::vector<size_t>& ks,
                              std::vector<std::vector<Neighbor>>* out) const {
    return KnnQueryBatch(queries, ks, out);
  }

  /// Uniform-k convenience form of the batch MkNNQ descriptor.
  OpStats KnnQueryBatch(const std::vector<ObjectView>& queries, size_t k,
                        std::vector<std::vector<Neighbor>>* out) const {
    return KnnQueryBatch(queries, std::vector<size_t>(queries.size(), k),
                         out);
  }

  /// Serializes the post-build state of this index into `out` so a later
  /// LoadState can restore it without recomputing any distances.  Indexes
  /// that have not implemented persistence return kUnimplemented (the
  /// facade then marks the snapshot "rebuild on open").  The dataset,
  /// metric, and shared pivots are NOT part of this payload -- the caller
  /// persists those once at the database level.
  Status SaveState(ByteSink* out) const { return SaveImpl(out); }

  /// Counterpart of Build for a persisted snapshot: binds the index to
  /// (data, metric, pivots) -- which must outlive it, exactly as with
  /// Build -- and restores the state written by SaveState.  On success
  /// the index answers queries identically to the instance that was
  /// saved; table indexes restore with zero distance computations (the
  /// optional `stats` out-param measures the restore like Build measures
  /// construction, so callers can verify that).  On failure the index is
  /// left unbuilt and must not be queried.
  Status LoadState(const Dataset& data, const Metric& metric,
                   const PivotSet& pivots, ByteSource* in,
                   OpStats* stats = nullptr) {
    data_ = &data;
    metric_ = &metric;
    pivots_ = pivots;
    Status status;
    OpStats op = Measure([&] { status = LoadImpl(in); });
    if (stats != nullptr) *stats = op;
    return status;
  }

  /// Re-inserts dataset object `id` (previously removed).
  OpStats Insert(ObjectId id) {
    return Measure([&] { InsertImpl(id); });
  }

  /// Removes dataset object `id` from the index.
  OpStats Remove(ObjectId id) {
    return Measure([&] { RemoveImpl(id); });
  }

  /// Main-memory footprint in bytes (the paper's "I" storage).
  virtual size_t memory_bytes() const = 0;

  /// Disk footprint in bytes (the paper's "D" storage); 0 for categories
  /// 1-2 except CPT.
  virtual size_t disk_bytes() const { return 0; }

  const IndexOptions& options() const { return options_; }
  const PivotSet& pivots() const { return pivots_; }

 protected:
  /// Copies the base-class binding and bookkeeping from `o` into this
  /// fresh instance -- the first step of every Clone() implementation.
  /// The clone starts from the source's cumulative counters so build
  /// cost attribution survives the shadow-copy chain.
  void CopyBaseFrom(const MetricIndex& o) {
    data_ = o.data_;
    metric_ = o.metric_;
    pivots_ = o.pivots_;
    options_ = o.options_;
    counters_ = o.counters_;
  }

  virtual void BuildImpl() = 0;

  /// Query hooks.  An index answers either one query at a time
  /// (RangeImpl/KnnImpl; the default batch hooks below loop them over
  /// the batch) or a whole batch at once (RangeBatchImpl/KnnBatchImpl;
  /// the table indexes' block-major scans), and overrides one hook of
  /// each pair.  Calling a per-query hook that is not overridden aborts.
  virtual void RangeImpl(const ObjectView& q, double r,
                         std::vector<ObjectId>* out) const;
  virtual void KnnImpl(const ObjectView& q, size_t k,
                       std::vector<Neighbor>* out) const;

  /// Batch hooks.  `out` holds one empty buffer per query; `per_query`
  /// points at one PerfCounters shard per query, and every distance
  /// computation (and page access) must be counted into its query's
  /// shard -- the entry point sums them into the batch total and derives
  /// the per-query stats.  Query i's results (contents and order) and
  /// shard must not depend on the rest of the batch.  The defaults run
  /// RangeImpl/KnnImpl over query chunks on the global pool.
  virtual void RangeBatchImpl(const std::vector<ObjectView>& queries,
                              const double* radii,
                              std::vector<std::vector<ObjectId>>* out,
                              PerfCounters* per_query) const;
  virtual void KnnBatchImpl(const std::vector<ObjectView>& queries,
                            const size_t* ks,
                            std::vector<std::vector<Neighbor>>* out,
                            PerfCounters* per_query) const;

  virtual void InsertImpl(ObjectId id) = 0;
  virtual void RemoveImpl(ObjectId id) = 0;

  /// Snapshot hooks (see SaveState/LoadState).  Implemented by LAESA,
  /// EPT/EPT*, CPT, VPT/MVPT, and LinearScan; the default keeps every
  /// other index snapshot-free without touching it.
  virtual Status SaveImpl(ByteSink* out) const {
    (void)out;
    return UnimplementedError(name() + " does not implement snapshots");
  }
  virtual Status LoadImpl(ByteSource* in) {
    (void)in;
    return UnimplementedError(name() + " does not implement snapshots");
  }

  /// Counting distance computer bound to the innermost CounterScope on
  /// this thread -- the calling query's own counters inside a query --
  /// or, outside any scope (Build/Insert/Remove), this index's counters.
  DistanceComputer dist() const {
    return DistanceComputer(metric_, CounterScope::Active(&counters_));
  }

  const Dataset& data() const { return *data_; }
  const Metric& metric() const { return *metric_; }

  const Dataset* data_ = nullptr;
  const Metric* metric_ = nullptr;
  PivotSet pivots_;
  IndexOptions options_;
  /// Cumulative cost of the exclusive operations (Build, LoadState,
  /// Insert, Remove).  Queries never write it: they count into their own
  /// CounterScope, which is what makes them safe to run concurrently.
  /// Mutable only because the const dist() hands out its address as the
  /// sink for charges made outside any scope.
  mutable PerfCounters counters_;

 private:
  /// Measures an exclusive operation by its delta on counters_.
  template <typename Fn>
  OpStats Measure(Fn&& fn) {
    PerfCounters before = counters_;
    Stopwatch watch;
    fn();
    return OpStats::From(counters_ - before, watch.Seconds());
  }
};

}  // namespace pmi

#endif  // PMI_CORE_INDEX_H_
