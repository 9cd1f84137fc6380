// The benchmark's workloads and the runner that drives one of them
// through the public caller path: the retry client (QueryWithRetry /
// ApplyWithRetry) on a ShardedService, every answer checked against a
// LinearScan oracle.  See README.md for what each workload is for and
// what each metric means.

#ifndef PERFBENCH_SRC_WORKLOAD_H_
#define PERFBENCH_SRC_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/stats.h"
#include "src/core/status.h"
#include "src/data/generators.h"

namespace perfbench {

/// The timed phase runs in this many rounds.  End-to-end rates and
/// memory are the median over rounds.
inline constexpr uint32_t kRounds = 20;

/// One closed-loop workload.  Request counts scale with the run length:
/// a run of S seconds gives each reader ceil(S * reader_cycles_per_s /
/// kRounds) request cycles per round and the writer ceil(S *
/// commits_per_s / kRounds) commits per round, so two runs with the same
/// seed and length issue exactly the same requests.
struct WorkloadSpec {
  std::string name;
  pmi::BenchDatasetId dataset = pmi::BenchDatasetId::kSynthetic;
  uint32_t n = 0;
  std::string metric;  ///< metric name as MetricDBConfig knows it
  std::string index;   ///< index name as the registry knows it
  uint32_t shards = 1;
  uint32_t workers = 1;  ///< admission worker threads
  uint32_t readers = 1;  ///< reader client threads
  bool durable = false;  ///< CreateDurable, kNever sync, self_heal on
  /// Mixed workloads: a second writer client contends with the readers
  /// and takes the checkpoints.  Every workload also runs a write probe:
  /// the writer alone after each round's reads, which gives the apply
  /// metrics.
  bool contending_writer = false;
  /// Read mix: each reader cycle issues this many requests of each class
  /// in a seeded order.
  uint32_t mrq_per_cycle = 0;
  uint32_t knn_per_cycle = 0;
  uint32_t batch_per_cycle = 0;
  double reader_cycles_per_s = 0;
  double commits_per_s = 0;
  /// Durable workloads: checkpoints the writer takes per run (spread
  /// evenly over the rounds and, within a round, over its commits).
  uint32_t checkpoints = 0;
};

inline constexpr uint32_t kBatchQueries = 64;  ///< queries per batch request
inline constexpr uint32_t kOpsPerCommit = 16;  ///< ops per ApplyWithRetry
inline constexpr size_t kKnnK = 10;
inline constexpr double kSelectivity = 0.001;  ///< MRQ radius selectivity

/// The benchmark's workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& Workloads();
/// nullptr when `name` names no workload.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Run settings.  Zero-valued overrides derive from the spec.
struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Existing directory for durable service homes (removed by the run).
  std::string work_dir;
  /// Traced runs write their spans here as JSON lines; empty = not kept.
  std::string trace_path;

  uint32_t n = 0;
  uint32_t queries = 0;  ///< held-out query objects (default 2048)
  uint32_t readers = 0;
  uint32_t cycles_per_reader = 0;  ///< per round
  uint32_t commits = 0;            ///< per round
  uint32_t setup_repeats = 0;  ///< service builds timed for setup_s (5)
  /// Traced phase size: traced single (MRQ/kNN) requests and traced
  /// commits.  Large enough for a supported p99.
  uint32_t traced_singles = 0;
  uint32_t traced_commits = 0;
  /// Runs the contending writer after the readers instead of alongside,
  /// so a 1-client run is fully deterministic (the self-test uses it).
  bool serial_writer = false;
  bool verbose = true;  ///< progress lines on stderr
};

struct MetricValue {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunReport {
  /// False when any answer or final-state check disagreed with the
  /// oracle, or any request failed.
  bool correct = true;
  OutcomeCounts outcomes;
  std::vector<MetricValue> end_to_end;
  std::vector<MetricValue> per_layer;
  std::vector<std::string> notes;  ///< human-readable detail lines

  // Run facts the determinism self-test pins.
  uint64_t input_digest = 0;  ///< hash of the generated data and queries
  uint32_t clients = 0;       ///< client threads that ran concurrently
  uint64_t read_requests = 0;
  uint64_t queries_answered = 0;
  uint64_t commits = 0;
  double compdists_per_query = 0;
  double pa_per_query = 0;
  double wal_bytes_per_op = 0;
};

/// Runs `spec` once.  Errors are set-up failures (the service could not
/// be built or reopened); request failures and oracle mismatches are
/// reported in the RunReport instead.
pmi::StatusOr<RunReport> RunWorkload(const WorkloadSpec& spec,
                                     const RunOptions& opts);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOAD_H_
