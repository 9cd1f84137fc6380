#include "src/core/index.h"

#include <cstdio>
#include <cstdlib>

#include "src/core/thread_pool.h"

namespace pmi {

namespace {
// Every paged structure (B+-tree, R-tree, M-tree) uses an 8-byte node
// header; a page must additionally fit at least one entry, and the
// smallest fixed-size entries are tens of bytes.  64 is the smallest
// page size at which every storage structure can make progress.
constexpr uint32_t kMinPageSize = 64;
}  // namespace

namespace {

// Batch descriptors are parallel vectors; a length mismatch is a
// programmer error at the harness layer (the facade validates its
// requests before reaching here), but letting it through would read
// past the threshold vector in release builds -- abort with a message
// instead, matching MakeIndex's contract for unrecoverable misuse.
void CheckBatchSizes(size_t queries, size_t thresholds, const char* what) {
  if (queries != thresholds) {
    std::fprintf(stderr,
                 "MetricIndex batch: %zu queries but %zu %s -- the batch "
                 "descriptor vectors must be parallel\n",
                 queries, thresholds, what);
    std::abort();
  }
}

// One empty result buffer per query; buffers the caller passes in keep
// their capacity.
template <typename T>
void ClearOutputs(size_t count, std::vector<std::vector<T>>* out) {
  out->resize(count);
  for (std::vector<T>& v : *out) v.clear();
}

// The batch entry point of both query kinds: runs batch(shards) with
// one PerfCounters shard per query and returns the shards' sum plus
// anything charged on the calling thread outside them; the index itself
// is never written.  Per-query `seconds` stay 0: per-query wall time is
// not well defined once queries interleave block by block.
template <typename Batch>
PerfCounters RunBatch(size_t count, std::vector<OpStats>* per_query,
                      Batch&& batch) {
  std::vector<PerfCounters> shards(count);
  PerfCounters total;
  if (count > 0) {
    CounterScope scope(&total);
    batch(shards.data());
  }
  if (per_query != nullptr) per_query->resize(count);
  for (size_t i = 0; i < count; ++i) {
    total += shards[i];
    if (per_query != nullptr) (*per_query)[i] = OpStats::From(shards[i]);
  }
  return total;
}

// The default batch hooks: query(i) for every i over query chunks on the
// global pool, each query under a CounterScope over a stack-local
// counter stored into shards[i] once (adjacent elements share cache
// lines across chunk boundaries, and a per-distance increment there
// would ping-pong the line between workers).  Attribution is per query,
// hence exact at any thread count.
template <typename Query>
void QueryMajor(size_t count, PerfCounters* shards, Query&& query) {
  ParallelQueryChunks(count, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      PerfCounters local;
      {
        CounterScope query_scope(&local);
        query(i);
      }
      shards[i] += local;
    }
  });
}

[[noreturn]] void MissingQueryHook(const MetricIndex& index,
                                   const char* hook) {
  std::fprintf(stderr,
               "MetricIndex %s overrides neither %s nor its batch hook\n",
               index.name().c_str(), hook);
  std::abort();
}

}  // namespace

// A single query is a batch of one.  The caller's buffer is swapped in
// and back out, so its capacity carries over between calls.
OpStats MetricIndex::RangeQuery(const ObjectView& q, double r,
                                std::vector<ObjectId>* out) const {
  std::vector<std::vector<ObjectId>> outs(1);
  outs[0].swap(*out);
  const OpStats stats = RangeQueryBatch({q}, {r}, &outs);
  out->swap(outs[0]);
  return stats;
}

OpStats MetricIndex::KnnQuery(const ObjectView& q, size_t k,
                              std::vector<Neighbor>* out) const {
  std::vector<std::vector<Neighbor>> outs(1);
  outs[0].swap(*out);
  const OpStats stats = KnnQueryBatch({q}, {k}, &outs);
  out->swap(outs[0]);
  return stats;
}

OpStats MetricIndex::RangeQueryBatch(const std::vector<ObjectView>& queries,
                                     const std::vector<double>& radii,
                                     std::vector<std::vector<ObjectId>>* out,
                                     std::vector<OpStats>* per_query) const {
  CheckBatchSizes(queries.size(), radii.size(), "radii");
  ClearOutputs(queries.size(), out);
  Stopwatch watch;
  const PerfCounters total =
      RunBatch(queries.size(), per_query, [&](PerfCounters* shards) {
        RangeBatchImpl(queries, radii.data(), out, shards);
      });
  return OpStats::From(total, watch.Seconds());
}

OpStats MetricIndex::KnnQueryBatch(const std::vector<ObjectView>& queries,
                                   const std::vector<size_t>& ks,
                                   std::vector<std::vector<Neighbor>>* out,
                                   std::vector<OpStats>* per_query) const {
  CheckBatchSizes(queries.size(), ks.size(), "neighbor counts");
  ClearOutputs(queries.size(), out);
  Stopwatch watch;
  const PerfCounters total =
      RunBatch(queries.size(), per_query, [&](PerfCounters* shards) {
        KnnBatchImpl(queries, ks.data(), out, shards);
      });
  return OpStats::From(total, watch.Seconds());
}

void MetricIndex::RangeImpl(const ObjectView&, double,
                            std::vector<ObjectId>*) const {
  MissingQueryHook(*this, "RangeImpl");
}

void MetricIndex::KnnImpl(const ObjectView&, size_t,
                          std::vector<Neighbor>*) const {
  MissingQueryHook(*this, "KnnImpl");
}

void MetricIndex::RangeBatchImpl(const std::vector<ObjectView>& queries,
                                 const double* radii,
                                 std::vector<std::vector<ObjectId>>* out,
                                 PerfCounters* per_query) const {
  QueryMajor(queries.size(), per_query,
             [&](size_t i) { RangeImpl(queries[i], radii[i], &(*out)[i]); });
}

void MetricIndex::KnnBatchImpl(const std::vector<ObjectView>& queries,
                               const size_t* ks,
                               std::vector<std::vector<Neighbor>>* out,
                               PerfCounters* per_query) const {
  QueryMajor(queries.size(), per_query,
             [&](size_t i) { KnnImpl(queries[i], ks[i], &(*out)[i]); });
}

Status ValidateOptions(const IndexOptions& options) {
  if (options.page_size == 0) {
    return InvalidArgumentError("page_size must be nonzero");
  }
  if (options.page_size < kMinPageSize) {
    return InvalidArgumentError(
        "page_size " + std::to_string(options.page_size) +
        " is smaller than a page header plus one entry (min " +
        std::to_string(kMinPageSize) + ")");
  }
  if (options.cache_bytes < options.page_size) {
    return InvalidArgumentError(
        "cache_bytes " + std::to_string(options.cache_bytes) +
        " cannot hold a single page of page_size " +
        std::to_string(options.page_size));
  }
  if (options.mvpt_arity < 2) {
    return InvalidArgumentError("mvpt_arity must be >= 2, got " +
                                std::to_string(options.mvpt_arity));
  }
  if (options.tree_leaf_capacity == 0) {
    return InvalidArgumentError("tree_leaf_capacity must be nonzero");
  }
  if (options.tree_fanout == 0) {
    // BKT/FQT size their distance buckets as max_distance / tree_fanout
    // and clamp bucket picks to tree_fanout - 1: zero underflows both.
    return InvalidArgumentError("tree_fanout must be nonzero");
  }
  return OkStatus();
}

}  // namespace pmi
