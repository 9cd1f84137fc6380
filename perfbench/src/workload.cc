#include "perfbench/src/workload.h"

#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/src/counting_env.h"
#include "src/api/metric_db.h"
#include "src/core/knn_heap.h"
#include "src/core/rng.h"
#include "src/data/distribution.h"
#include "src/harness/workload.h"
#include "src/service/result_merger.h"
#include "src/service/retry.h"
#include "src/service/sharded_service.h"
#include "src/storage/buffer_pool.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using pmi::Dataset;
using pmi::MetricDB;
using pmi::MetricDBConfig;
using pmi::Neighbor;
using pmi::ObjectId;
using pmi::ObjectView;
using pmi::QueryRequest;
using pmi::QueryResult;
using pmi::ShardedService;
using pmi::Status;
using pmi::StatusOr;
using pmi::UpdateOp;

constexpr uint32_t kDefaultQueries = 2048;
/// Held-out queries the final-state checks ask.
constexpr uint32_t kFinalCheckQueries = 512;
constexpr uint32_t kDefaultSetupRepeats = 5;
constexpr uint32_t kDefaultTracedSingles = 1200;
constexpr uint32_t kDefaultTracedCommits = 1200;
/// In the traced phase each reader traces one request in this many and
/// sends the rest untraced, so the boundary replays load the machine
/// about as much as one extra client.
constexpr uint32_t kTraceEvery = 4;
/// Batch requests per reader in the traced phase (one in kTraceEvery
/// traced); the schedule drops the rest, which would take most of the
/// phase on disk_pool.
constexpr uint32_t kTracedBatches = 32;
/// Timed passes per traced request (after one warm-up pass).
constexpr uint32_t kTimedPasses = 2;
/// Extra oracle neighbors beyond k, so kNN answers stay checkable while
/// some objects are removed (at most 2 * kOpsPerCommit ids are dead in
/// any version a reader can see).
constexpr size_t kKnnSlack = 32;
/// Ids the writer cycles through (remove, later re-insert).
constexpr uint32_t kChurnPool = 4096;
constexpr uint32_t kChurnStep = kOpsPerCommit / 2;
constexpr uint32_t kRadiusPairs = 200000;
constexpr uint64_t kDataSeed = 20170901;
/// Held-out query candidates generated after the dataset's objects.
constexpr uint32_t kQueryCandidates = 16384;

/// End-to-end tail percentiles.  On a shared VM, the single queries'
/// percentiles beyond p95 and the commits' beyond p90 follow the host's
/// vCPU steal from run to run, not the system (README "Tails").  A run
/// has a few hundred batches: p90 is the most they support.
constexpr double kReadTail = 95;
constexpr double kApplyTail = 90;
constexpr double kBatchTail = 90;

enum Cls : uint8_t { kMrq = 0, kKnn = 1, kBatch = 2 };

// Span names, one per public boundary.
constexpr const char* kRetryCall = "retry.call";
constexpr const char* kServiceQuery = "service.query";
constexpr const char* kViewQuery = "service.view_query";
constexpr const char* kDbQuery = "shard.db_query";
constexpr const char* kMerge = "merge";
constexpr const char* kIndexQuery = "shard.index_query";
constexpr const char* kDistance = "metric.distance";
constexpr const char* kDbApply = "metric_db.apply";

double Us(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// VmRSS after returning free heap pages to the kernel: the memory the
/// process holds, not what the allocator's arenas happen to cache.
double RssMb() {
  malloc_trim(0);
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// (steal, total) CPU ticks over all CPUs since boot, from /proc/stat.
std::pair<double, double> CpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  in >> cpu;
  for (double& x : v) in >> x;
  double total = 0;
  for (double x : v) total += x;
  return {v[7], total};
}

/// Flushes the file system holding `dir`, so a phase does not pay for
/// write-back of files an earlier phase (or run) wrote or deleted.
void SyncFileSystem(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

// -- inputs -------------------------------------------------------------------

struct Inputs {
  Dataset data = Dataset::Vectors(0);
  Dataset queries = Dataset::Vectors(0);  // held out: never in `data`
  double radius = 0;
  uint64_t digest = 0;
};

Inputs MakeInputs(const WorkloadSpec& spec, uint32_t n, uint32_t nq,
                  uint64_t seed) {
  // One fixed dataset per workload, as the paper's real datasets are
  // fixed; the seed draws the held-out queries from candidates of the
  // same distribution that the dataset never contains.
  Dataset all = spec.dataset == pmi::BenchDatasetId::kLa
                    ? pmi::MakeLaLike(n + kQueryCandidates, kDataSeed)
                    : pmi::MakeSyntheticPaper(n + kQueryCandidates, kDataSeed);
  Inputs in;
  in.data = Dataset::Vectors(all.dim());
  in.queries = Dataset::Vectors(all.dim());
  for (uint32_t i = 0; i < n; ++i) in.data.Add(all.view(i));
  pmi::Rng rng(Mix(seed, 1));
  for (uint32_t c : pmi::SampleDistinct(kQueryCandidates, nq, rng)) {
    in.queries.Add(all.view(n + c));
  }
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over every coordinate
  for (const Dataset* d : {&in.data, &in.queries}) {
    for (uint32_t i = 0; i < d->size(); ++i) {
      const ObjectView v = d->view(i);
      const auto* bytes = reinterpret_cast<const unsigned char*>(v.vec);
      for (size_t b = 0; b < v.dim * sizeof(float); ++b) {
        h = (h ^ bytes[b]) * 0x100000001b3ull;
      }
    }
  }
  in.digest = h;
  std::unique_ptr<pmi::Metric> metric = pmi::MakeMetricFor(spec.dataset);
  in.radius = pmi::EstimateDistribution(in.data, *metric, kRadiusPairs,
                                        kDataSeed)
                  .RadiusForSelectivity(kSelectivity);
  return in;
}

// -- oracle -------------------------------------------------------------------

struct Oracle {
  std::vector<std::vector<ObjectId>> mrq;  // ascending ids
  std::vector<std::vector<Neighbor>> knn;  // kKnnK + kKnnSlack, ascending
};

std::vector<ObjectView> AllViews(const Dataset& d) {
  std::vector<ObjectView> v;
  v.reserve(d.size());
  for (uint32_t i = 0; i < d.size(); ++i) v.push_back(d.view(i));
  return v;
}

StatusOr<Oracle> BuildOracle(const WorkloadSpec& spec, const Inputs& in,
                             double metric_param) {
  PMI_ASSIGN_OR_RETURN(
      MetricDB db, MetricDB::Create(MetricDBConfig()
                                        .WithMetric(spec.metric, metric_param)
                                        .WithIndex("LinearScan")
                                        .WithPivotSet(pmi::PivotSet()),
                                    in.data));
  // Chunks of the query set on parallel threads: a versioned MetricDB
  // answers concurrent queries, each on its calling thread.
  const std::vector<ObjectView> views = AllViews(in.queries);
  const size_t threads = std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
  const size_t chunk = (views.size() + threads - 1) / threads;
  Oracle o;
  o.mrq.resize(views.size());
  o.knn.resize(views.size());
  std::vector<Status> status(threads);
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      const size_t begin = std::min(views.size(), t * chunk);
      const size_t end = std::min(views.size(), begin + chunk);
      if (begin == end) return;
      const std::vector<ObjectView> part(views.begin() + begin,
                                         views.begin() + end);
      StatusOr<QueryResult> m = db.Query(QueryRequest::RangeBatch(part, in.radius));
      StatusOr<QueryResult> k =
          db.Query(QueryRequest::KnnBatch(part, kKnnK + kKnnSlack));
      if (!m.ok() || !k.ok()) {
        status[t] = m.ok() ? k.status() : m.status();
        return;
      }
      for (size_t i = begin; i < end; ++i) {
        o.mrq[i] = std::move(m->ids[i - begin]);
        std::sort(o.mrq[i].begin(), o.mrq[i].end());
        o.knn[i] = std::move(k->neighbors[i - begin]);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (const Status& st : status) PMI_RETURN_IF_ERROR(st);
  return o;
}

// What a check may assume about one id in the version a reader saw.
enum IdState : uint8_t {
  kMustBePresent = 0,
  kMayBeMissing = 1,  // touched by a concurrent writer
  kMustBeMissing = 2,  // removed in the checked version
};

IdState StateOf(const std::vector<uint8_t>& state, ObjectId id) {
  return state.empty() ? kMustBePresent : static_cast<IdState>(state[id]);
}

/// `got` (ascending) must be `want` minus ids that are missing or may
/// be missing.
bool RangeMatches(const std::vector<ObjectId>& got,
                  const std::vector<ObjectId>& want,
                  const std::vector<uint8_t>& state) {
  size_t g = 0;
  for (ObjectId w : want) {
    const IdState st = StateOf(state, w);
    if (g < got.size() && got[g] == w) {
      if (st == kMustBeMissing) return false;
      ++g;
    } else if (st == kMustBePresent) {
      return false;
    }
  }
  return g == got.size();
}

/// `got` must be the first k of `want_ext` after dropping ids that are
/// missing or may be missing, (distance, id) for (distance, id).
bool KnnMatches(const std::vector<Neighbor>& got,
                const std::vector<Neighbor>& want_ext,
                const std::vector<uint8_t>& state) {
  if (got.size() != kKnnK) return false;
  size_t g = 0;
  for (const Neighbor& w : want_ext) {
    if (g == got.size()) return true;
    const IdState st = StateOf(state, w.id);
    if (got[g].id == w.id) {
      if (st == kMustBeMissing || got[g].dist != w.dist) return false;
      ++g;
    } else if (st == kMustBePresent) {
      return false;
    }
  }
  return g == got.size();
}

// -- requests -----------------------------------------------------------------

struct Request {
  uint8_t cls = kMrq;
  uint32_t q = 0;  // query index; a batch covers q, q+1, ... (mod Q)
};

std::vector<Request> MakeSchedule(const WorkloadSpec& spec, uint32_t cycles,
                                  uint32_t nq, uint64_t seed) {
  pmi::Rng rng(seed);
  std::vector<uint8_t> cycle;
  cycle.insert(cycle.end(), spec.mrq_per_cycle, kMrq);
  cycle.insert(cycle.end(), spec.knn_per_cycle, kKnn);
  cycle.insert(cycle.end(), spec.batch_per_cycle, kBatch);
  std::vector<Request> out;
  out.reserve(size_t{cycles} *
              (spec.mrq_per_cycle + spec.knn_per_cycle + spec.batch_per_cycle));
  for (uint32_t c = 0; c < cycles; ++c) {
    for (size_t i = cycle.size(); i > 1; --i) {
      std::swap(cycle[i - 1], cycle[rng() % i]);
    }
    for (uint8_t cls : cycle) {
      out.push_back({cls, static_cast<uint32_t>(rng() % nq)});
    }
  }
  return out;
}

uint32_t QueriesIn(const Request& r) { return r.cls == kBatch ? kBatchQueries : 1; }

QueryRequest BuildRequest(const Request& r, const Inputs& in) {
  const uint32_t nq = in.queries.size();
  if (r.cls == kMrq) return QueryRequest::Range(in.queries.view(r.q), in.radius);
  if (r.cls == kKnn) return QueryRequest::Knn(in.queries.view(r.q), kKnnK);
  std::vector<ObjectView> batch;
  batch.reserve(kBatchQueries);
  for (uint32_t j = 0; j < kBatchQueries; ++j) {
    batch.push_back(in.queries.view((r.q + j) % nq));
  }
  return QueryRequest::RangeBatch(std::move(batch), in.radius);
}

bool AnswerMatches(const Request& r, const QueryResult& res,
                   const Oracle& oracle, const std::vector<uint8_t>& state,
                   uint32_t nq) {
  if (r.cls == kKnn) {
    return res.neighbors.size() == 1 &&
           KnnMatches(res.neighbors[0], oracle.knn[r.q], state);
  }
  const uint32_t count = QueriesIn(r);
  if (res.ids.size() != count) return false;
  for (uint32_t j = 0; j < count; ++j) {
    if (!RangeMatches(res.ids[j], oracle.mrq[(r.q + j) % nq], state)) {
      return false;
    }
  }
  return true;
}

// -- the writer's churn -------------------------------------------------------

/// Seeded remove/re-insert stream over a fixed pool of ids.  Commit c
/// re-inserts the ids commit c-1 removed and removes the next
/// kChurnStep, so exactly kChurnStep pool ids are dead between commits.
struct Churn {
  std::vector<ObjectId> pool;
  uint64_t cycle = 0;  // commits issued so far (0 = not primed)

  std::vector<ObjectId> Slice(uint64_t c) const {
    std::vector<ObjectId> ids;
    for (uint32_t j = 0; j < kChurnStep; ++j) {
      ids.push_back(pool[(c * kChurnStep + j) % pool.size()]);
    }
    return ids;
  }
  /// The first batch: removes slice 0.
  std::vector<UpdateOp> Prime() {
    std::vector<UpdateOp> ops;
    for (ObjectId id : Slice(0)) ops.push_back(UpdateOp::Remove(id));
    cycle = 1;
    return ops;
  }
  std::vector<UpdateOp> Next() {
    std::vector<UpdateOp> ops;
    for (ObjectId id : Slice(cycle - 1)) ops.push_back(UpdateOp::Insert(id));
    for (ObjectId id : Slice(cycle)) ops.push_back(UpdateOp::Remove(id));
    ++cycle;
    return ops;
  }
};

Churn MakeChurn(uint32_t n, uint64_t seed) {
  pmi::Rng rng(seed);
  Churn c;
  for (uint32_t id : pmi::SampleDistinct(n, std::min(kChurnPool, n / 2), rng)) {
    c.pool.push_back(id);
  }
  return c;
}

// -- per-thread results -------------------------------------------------------

struct ReaderOut {
  std::vector<double> lat_us[3];
  OutcomeCounts outcomes;
  uint64_t requests = 0;
  uint64_t queries_answered = 0;
  uint64_t dist = 0;
  uint64_t pa = 0;
  uint64_t physical_reads = 0;
  uint64_t attempts = 0;
  Clock::time_point end;

  // Traced phase.
  std::vector<Span> spans;
  std::vector<double> retry_self, admission_self, scatter_self, merge_us,
      shard_max_over_mean, db_self, index_self;
  std::vector<double> batch_index_us_per_query;
  double single_root_us = 0, single_kernel_us = 0, single_residual_us = 0;
  double kernel_us = 0, kernel_dists = 0;
  double kernel_checksum = 0;  // keeps the kernel loop's work observable
  uint64_t index_dists = 0, index_results = 0, index_queries = 0;
};

struct WriterOut {
  std::vector<double> lat_us;  ///< the timed commits (the writer's share)
  OutcomeCounts outcomes;
  uint64_t ops_acked = 0;  ///< every commit's
  uint64_t attempts = 0;
  uint64_t calls = 0;      ///< every commit
  uint64_t timed_ops = 0;  ///< ops of the timed commits
  double wall_s = 0;       ///< time the timed commits took
  /// Untimed commits sent after its share while readers still ran.
  uint64_t overlap_commits = 0;
  /// Traced request ids of this writer's commits are rid_base | index.
  uint64_t rid_base = uint64_t{1} << 63;
  std::vector<double> checkpoint_ms;
  uint64_t checkpoint_bytes = 0;
  // Traced phase.
  std::vector<Span> spans;
  std::vector<double> db_apply_us;
};

// -- the run ------------------------------------------------------------------

struct BoundaryPass;

class Runner {
 public:
  Runner(const WorkloadSpec& spec, const RunOptions& opts)
      : spec_(spec), opts_(opts), env_(pmi::Env::Default()) {}

  StatusOr<RunReport> Run();

 private:
  void Log(const char* fmt, ...) const __attribute__((format(printf, 2, 3)));
  void Note(const std::string& line) { report_.notes.push_back(line); }

  Status Setup();
  /// Runs the readers over [begin, end) of their schedules (all readers
  /// start together), then `commits` commits of the write probe, alone.
  /// Mixed workloads also run `commits` commits of a contending writer,
  /// which takes the checkpoints, alongside the readers; it goes on,
  /// untimed, until every reader has sent its share, so every timed read
  /// meets it.
  void RunPhase(const std::vector<std::vector<Request>>& schedules,
                size_t begin, size_t end, uint32_t commits,
                uint32_t checkpoints, bool traced,
                std::vector<ReaderOut>* readers, WriterOut* probe,
                WriterOut* contender, double* read_wall_s);
  void ReadLoop(uint32_t reader, const std::vector<Request>& sched,
                size_t begin, size_t end, bool traced,
                const std::vector<uint8_t>& state, ReaderOut* out);
  void TraceRead(uint32_t reader, uint64_t index, const Request& r,
                 const std::vector<uint8_t>& state, ReaderOut* out);
  BoundaryPass RunBoundaries(uint32_t reader, uint64_t rid, const Request& r,
                             const QueryRequest& req,
                             const std::vector<uint8_t>& state);
  /// `commits` writer commits; a durable service also takes
  /// `checkpoints` evenly spaced checkpoints among them.  With `overlap`,
  /// untimed commits follow while any reader is still busy.
  void WriteLoop(uint32_t commits, uint32_t checkpoints, bool traced,
                 bool overlap, WriterOut* out);
  std::vector<uint8_t> ReadState(bool writer_concurrent) const;
  Status BuildShadows();
  void FinalChecks();
  void Fail(const std::string& why);

  /// One round of the timed phase: every reader's share of the round's
  /// requests and each writer's share of its commits.
  struct Round {
    std::vector<ReaderOut> readers;
    WriterOut probe;
    WriterOut contender;
    double read_wall_s = 0;
    double rss_mb = 0;  ///< at the end of the round
    double steal_pct = 0;  ///< the host's vCPU steal during the round
  };
  void EndToEnd(const std::vector<Round>& rounds);
  /// Appends <stem>_p50_ms, over every sample pooled, and the <stem>
  /// tail: the highest percentile up to `wanted` the pooled samples
  /// support, as the median over windows of each client's samples
  /// (WindowedPercentile).
  void Tails(std::vector<MetricValue>* out, const std::string& stem,
             const std::vector<std::vector<double>>& sequences_us,
             double wanted);

  const WorkloadSpec& spec_;
  const RunOptions& opts_;
  const Clock::time_point created_ = Clock::now();
  RunReport report_;

  // Sizes of this run; cycles_ and commits_ are per round.
  uint32_t n_ = 0, nq_ = 0, readers_ = 0, cycles_ = 0, commits_ = 0;
  bool concurrent_writer_ = false;
  Inputs in_;
  Oracle oracle_;
  double metric_param_ = 0;
  Churn churn_;
  std::vector<uint8_t> live_;  // the writer's liveness mirror
  bool mirror_valid_ = true;

  CountingEnv env_;
  pmi::DurabilityOptions dopts_;
  pmi::ServiceOptions sopts_;
  std::shared_ptr<pmi::BufferPool> pool_;
  std::unique_ptr<ShardedService> svc_;
  std::string dir_;
  double setup_s_ = 0;

  // Traced runs: per-shard MetricDBs built from router() and config().
  // Readers query `shadow_read_` (never updated during a phase); the
  // traced writer applies to `shadow_write_`.
  std::vector<MetricDB> shadow_read_;
  std::vector<MetricDB> shadow_write_;

  std::atomic<bool> go_{false};
  std::atomic<uint32_t> readers_busy_{0};  // readers short of their share
  Clock::time_point phase_start_;
  // The pool's traffic during the untraced phase's reads.
  pmi::BufferPoolStats read_pool_;
};

void Runner::Log(const char* fmt, ...) const {
  if (!opts_.verbose) return;
  va_list ap;
  va_start(ap, fmt);
  std::fprintf(stderr, "[%s %7.2fs] ", spec_.name.c_str(),
               Us(created_, Clock::now()) / 1e6);
  std::vfprintf(stderr, fmt, ap);
  std::fputc('\n', stderr);
  va_end(ap);
}

void Runner::Fail(const std::string& why) {
  if (report_.correct) Log("CHECK FAILED: %s", why.c_str());
  report_.correct = false;
  Note("check failed: " + why);
}

Status Runner::Setup() {
  sopts_.num_shards = spec_.shards;
  sopts_.workers = spec_.workers;
  sopts_.max_queue = std::max<uint32_t>(64, readers_ + 1);
  sopts_.self_heal = spec_.durable;
  // The WAL is appended but never fsynced: with an fsync per commit, or
  // every 32 commits, the apply metrics followed the host's fsync
  // latency, not the service (README "Flush policy").
  dopts_.sync_mode = pmi::SyncMode::kNever;
  dopts_.env = &env_;

  std::vector<double> times;
  for (uint32_t rep = 0; rep < opts_.setup_repeats; ++rep) {
    if (svc_ != nullptr) {
      PMI_RETURN_IF_ERROR(svc_->Close());
      svc_.reset();
      std::filesystem::remove_all(dir_);
    }
    SyncFileSystem(opts_.work_dir);
    dir_ = opts_.work_dir + "/svc-" + std::to_string(rep);
    pmi::IndexOptions iopts;
    iopts.page_size = pmi::PageSizeFor(spec_.index, spec_.dataset);
    pool_ = std::make_shared<pmi::BufferPool>(iopts.page_size,
                                              iopts.cache_bytes);
    iopts.buffer_pool = pool_;
    const MetricDBConfig cfg = MetricDBConfig()
                                   .WithMetric(spec_.metric)
                                   .WithIndex(spec_.index)
                                   .WithOptions(iopts);
    Dataset copy = in_.data;
    const Clock::time_point t0 = Clock::now();
    StatusOr<std::unique_ptr<ShardedService>> svc =
        spec_.durable ? ShardedService::CreateDurable(cfg, std::move(copy),
                                                      dir_, sopts_, dopts_)
                      : ShardedService::Create(cfg, std::move(copy), sopts_);
    const double s = Us(t0, Clock::now()) / 1e6;
    if (!svc.ok()) return svc.status();
    svc_ = std::move(*svc);
    times.push_back(s);
  }
  setup_s_ = Median(times);
  char line[160];
  std::snprintf(line, sizeof(line), "setup: %u builds, median %.3f s",
                opts_.setup_repeats, setup_s_);
  Note(line);
  return pmi::OkStatus();
}

std::vector<uint8_t> Runner::ReadState(bool writer_concurrent) const {
  std::vector<uint8_t> state(n_, kMustBePresent);
  if (writer_concurrent) {
    for (ObjectId id : churn_.pool) state[id] = kMayBeMissing;
  } else {
    for (uint32_t id = 0; id < n_; ++id) {
      if (live_[id] == 0) state[id] = kMustBeMissing;
    }
  }
  return state;
}

void Runner::ReadLoop(uint32_t reader, const std::vector<Request>& sched,
                      size_t begin, size_t end, bool traced,
                      const std::vector<uint8_t>& state, ReaderOut* out) {
  while (!go_.load(std::memory_order_acquire)) std::this_thread::yield();
  pmi::RetryPolicy policy;
  policy.seed = Mix(opts_.seed, 100 + reader);
  for (size_t i = begin; i < end; ++i) {
    const Request& r = sched[i];
    ++out->requests;
    if (traced && i % kTraceEvery == reader % kTraceEvery) {
      TraceRead(reader, i, r, state, out);
      continue;
    }
    const QueryRequest req = BuildRequest(r, in_);
    pmi::RetryStats rs;
    const Clock::time_point t0 = Clock::now();
    StatusOr<QueryResult> res = pmi::QueryWithRetry(*svc_, req, policy, {}, &rs);
    const Clock::time_point t1 = Clock::now();
    out->attempts += rs.attempts;
    Outcome o = ClassifyStatus(res.status());
    if (res.ok()) {
      out->lat_us[r.cls].push_back(Us(t0, t1));
      out->queries_answered += QueriesIn(r);
      out->dist += res->stats.dist_computations;
      out->pa += res->stats.page_accesses();
      out->physical_reads += res->stats.physical_reads;
      if (!AnswerMatches(r, *res, oracle_, state, nq_)) o = Outcome::kMismatch;
    }
    out->outcomes.Add(o);
  }
  out->end = Clock::now();
  readers_busy_.fetch_sub(1, std::memory_order_acq_rel);
}

/// One timed pass of a request through every public boundary.
struct BoundaryPass {
  std::vector<Span> spans;
  Outcome outcome = Outcome::kOk;
  uint32_t attempts = 0;
  bool have_view = false;
  std::vector<double> db_us;
  uint64_t index_dists = 0;
  uint64_t index_results = 0;
  double kernel_checksum = 0;
  StatusOr<QueryResult> via_retry = pmi::InternalError("not run");
};

BoundaryPass Runner::RunBoundaries(uint32_t reader, uint64_t rid,
                                   const Request& r, const QueryRequest& req,
                                   const std::vector<uint8_t>& state) {
  BoundaryPass p;
  auto span = [&](const char* name, int32_t parent, int32_t shard,
                  Clock::time_point t0, Clock::time_point t1) {
    p.spans.push_back({rid, parent, name, shard, Us(phase_start_, t0),
                       Us(phase_start_, t1)});
    return static_cast<int32_t>(p.spans.size() - 1);
  };
  auto check = [&](const StatusOr<QueryResult>& res) {
    if (p.outcome != Outcome::kOk) return;
    if (!res.ok()) {
      p.outcome = ClassifyStatus(res.status());
    } else if (!AnswerMatches(r, *res, oracle_, state, nq_)) {
      p.outcome = Outcome::kMismatch;
    }
  };

  // 1. retry client.
  pmi::RetryPolicy policy;
  policy.seed = Mix(opts_.seed, 200 + reader);
  pmi::RetryStats rs;
  Clock::time_point t0 = Clock::now();
  p.via_retry = pmi::QueryWithRetry(*svc_, req, policy, {}, &rs);
  const int32_t root = span(kRetryCall, -1, -1, t0, Clock::now());
  p.attempts = rs.attempts;
  check(p.via_retry);
  // 2. service: admission + scatter/gather.
  t0 = Clock::now();
  StatusOr<QueryResult> via_service = svc_->Query(req);
  const int32_t service = span(kServiceQuery, root, -1, t0, Clock::now());
  check(via_service);
  // 3. pinned read views, no admission; absent for indexes without
  // versioned reads.
  int32_t gather = service;
  t0 = Clock::now();
  StatusOr<ShardedService::ReadView> view = svc_->GetReadView();
  if (view.ok()) {
    StatusOr<QueryResult> via_view = view->Query(req);
    gather = span(kViewQuery, service, -1, t0, Clock::now());
    p.have_view = true;
    check(via_view);
  }
  // 4-5. per-shard MetricDBs, then the merge of their answers.
  const uint32_t shards = static_cast<uint32_t>(shadow_read_.size());
  std::vector<QueryResult> per_shard(shards);
  std::vector<int32_t> db_span(shards);
  p.db_us.resize(shards);
  for (uint32_t s = 0; s < shards; ++s) {
    t0 = Clock::now();
    StatusOr<QueryResult> part = shadow_read_[s].Query(req);
    const Clock::time_point t1 = Clock::now();
    db_span[s] = span(kDbQuery, gather, static_cast<int32_t>(s), t0, t1);
    p.db_us[s] = Us(t0, t1);
    if (part.ok()) {
      per_shard[s] = std::move(*part);
    } else {
      check(part);
    }
  }
  t0 = Clock::now();
  QueryResult merged =
      pmi::MergeShardResults(svc_->router(), req, std::move(per_shard));
  span(kMerge, gather, -1, t0, Clock::now());
  check(StatusOr<QueryResult>(std::move(merged)));
  // 6-7. per shard: the index, then as many Metric::Distance calls as it
  // counted, over the shard's own objects.
  const size_t nb = req.batch.size();
  for (uint32_t s = 0; s < shards; ++s) {
    const MetricDB& db = shadow_read_[s];
    pmi::OpStats st;
    t0 = Clock::now();
    if (r.cls == kKnn) {
      std::vector<std::vector<Neighbor>> knn;
      st = db.index().KnnQueryBatchShared(req.batch,
                                          std::vector<size_t>(nb, req.k), &knn);
      for (const auto& v : knn) p.index_results += v.size();
    } else {
      std::vector<std::vector<ObjectId>> ids;
      st = db.index().RangeQueryBatchShared(
          req.batch, std::vector<double>(nb, req.radius), &ids);
      for (const auto& v : ids) p.index_results += v.size();
    }
    const int32_t idx = span(kIndexQuery, db_span[s], static_cast<int32_t>(s),
                             t0, Clock::now());
    p.index_dists += st.dist_computations;
    const Dataset& data = db.dataset();
    double acc = 0;
    t0 = Clock::now();
    for (uint64_t j = 0; j < st.dist_computations; ++j) {
      acc += db.metric().Distance(
          req.batch[j % nb], data.view(static_cast<ObjectId>(j % data.size())));
    }
    const Clock::time_point t1 = Clock::now();
    span(kDistance, idx, static_cast<int32_t>(s), t0, t1);
    p.kernel_checksum += acc;
  }
  return p;
}

void Runner::TraceRead(uint32_t reader, uint64_t index, const Request& r,
                       const std::vector<uint8_t>& state, ReaderOut* out) {
  const uint64_t rid = (uint64_t{reader} << 40) | index;
  const QueryRequest req = BuildRequest(r, in_);
  // The first pass warms every boundary's memory for this query, so no
  // boundary is timed colder than the one below it.  Each span keeps its
  // shortest duration over the timed passes: interference from the other
  // clients only ever adds time, and would otherwise swamp the small
  // differences between adjacent boundaries.
  const BoundaryPass warm = RunBoundaries(reader, rid, r, req, state);
  BoundaryPass p = RunBoundaries(reader, rid, r, req, state);
  for (uint32_t pass = 1; pass < kTimedPasses; ++pass) {
    const BoundaryPass again = RunBoundaries(reader, rid, r, req, state);
    if (again.outcome != Outcome::kOk) p.outcome = again.outcome;
    if (again.spans.size() != p.spans.size()) continue;
    for (size_t i = 0; i < p.spans.size(); ++i) {
      p.spans[i].end_us = p.spans[i].start_us +
                          std::min(p.spans[i].dur_us(), again.spans[i].dur_us());
    }
    for (size_t s = 0; s < p.db_us.size(); ++s) {
      p.db_us[s] = std::min(p.db_us[s], again.db_us[s]);
    }
  }
  const size_t nb = req.batch.size();
  out->outcomes.Add(warm.outcome != Outcome::kOk ? warm.outcome : p.outcome);
  out->attempts += p.attempts;
  out->kernel_checksum += warm.kernel_checksum + p.kernel_checksum;
  out->index_dists += p.index_dists;
  out->index_results += p.index_results;
  out->index_queries += nb;
  for (const Span& sp : p.spans) {
    if (std::strcmp(sp.name, kDistance) == 0) out->kernel_us += sp.dur_us();
  }
  out->kernel_dists += static_cast<double>(p.index_dists);
  if (p.via_retry.ok()) {
    out->queries_answered += nb;
    out->dist += p.via_retry->stats.dist_computations;
    out->pa += p.via_retry->stats.page_accesses();
  }

  const SelfTimes st = ComputeSelfTimes(p.spans);
  double index_us = 0;
  for (const Span& s : p.spans) {
    if (std::strcmp(s.name, kIndexQuery) == 0) index_us += s.dur_us();
  }
  if (r.cls == kBatch) {
    out->batch_index_us_per_query.push_back(index_us / static_cast<double>(nb));
  } else {
    out->retry_self.push_back(SelfOf(p.spans, st, kRetryCall));
    out->admission_self.push_back(SelfOf(p.spans, st, kServiceQuery));
    if (p.have_view) out->scatter_self.push_back(SelfOf(p.spans, st, kViewQuery));
    out->merge_us.push_back(SelfOf(p.spans, st, kMerge));
    out->db_self.push_back(SelfOf(p.spans, st, kDbQuery));
    out->index_self.push_back(SelfOf(p.spans, st, kIndexQuery));
    const double db_max = *std::max_element(p.db_us.begin(), p.db_us.end());
    double db_sum = 0;
    for (double d : p.db_us) db_sum += d;
    if (db_sum > 0) {
      out->shard_max_over_mean.push_back(
          db_max / (db_sum / static_cast<double>(p.db_us.size())));
    }
    out->single_root_us += st.root_us;
    out->single_kernel_us += SelfOf(p.spans, st, kDistance);
    out->single_residual_us += st.residual_us;
  }
  out->spans.insert(out->spans.end(), p.spans.begin(), p.spans.end());
}

void Runner::WriteLoop(uint32_t commits, uint32_t checkpoints, bool traced,
                       bool overlap, WriterOut* out) {
  while (!go_.load(std::memory_order_acquire)) std::this_thread::yield();
  const Clock::time_point start = Clock::now();
  pmi::RetryPolicy policy;
  policy.seed = Mix(opts_.seed, traced ? 301 : 300);
  const uint32_t ckpt_every =
      spec_.durable && checkpoints > 0
          ? std::max<uint32_t>(1, commits / (checkpoints + 1))
          : 0;
  uint32_t ckpts_done = 0;
  auto apply = [&](const std::vector<UpdateOp>& ops, bool timed,
                   uint64_t index) {
    pmi::RetryStats rs;
    const Clock::time_point t0 = Clock::now();
    StatusOr<pmi::ApplyResult> res =
        pmi::ApplyWithRetry(*svc_, ops, policy, {}, &rs);
    const Clock::time_point t1 = Clock::now();
    ++out->calls;
    out->attempts += rs.attempts;
    Outcome o = res.ok() ? ClassifyStatus(res->Collapse())
                         : ClassifyStatus(res.status());
    out->outcomes.Add(o);
    if (o != Outcome::kOk) {
      mirror_valid_ = false;
      return;
    }
    for (const UpdateOp& op : ops) {
      live_[op.id] = op.op == pmi::WalOp::kInsert ? 1 : 0;
    }
    out->ops_acked += ops.size();
    if (timed) {
      out->lat_us.push_back(Us(t0, t1));
      out->timed_ops += ops.size();
    }
    if (!traced) return;
    // The same ops through per-shard MetricDBs: clone + publish, no WAL.
    // Untimed commits go there too, so the shadows keep the service's
    // liveness, but record no spans.
    const uint64_t rid = out->rid_base | index;
    if (timed) {
      out->spans.push_back({rid, -1, kRetryCall, -1, Us(phase_start_, t0),
                            Us(phase_start_, t1)});
    }
    const pmi::ShardRouter& router = svc_->router();
    std::vector<std::vector<UpdateOp>> routed(router.num_shards());
    for (const UpdateOp& op : ops) {
      routed[router.shard_of(op.id)].push_back({op.op, router.local_of(op.id)});
    }
    double total = 0;
    for (uint32_t s = 0; s < routed.size(); ++s) {
      if (routed[s].empty()) continue;
      const Clock::time_point a0 = Clock::now();
      Status st = shadow_write_[s].Apply(routed[s]);
      const Clock::time_point a1 = Clock::now();
      if (!st.ok()) Fail("shadow apply: " + st.ToString());
      if (timed) {
        out->spans.push_back({rid, 0, kDbApply, static_cast<int32_t>(s),
                              Us(phase_start_, a0), Us(phase_start_, a1)});
      }
      total += Us(a0, a1);
    }
    if (timed) out->db_apply_us.push_back(total);
  };

  if (churn_.cycle == 0) apply(churn_.Prime(), /*timed=*/false, 0);
  for (uint32_t i = 0; i < commits && mirror_valid_; ++i) {
    apply(churn_.Next(), /*timed=*/true, i + 1);
    if (ckpt_every != 0 && (i + 1) % ckpt_every == 0 &&
        ckpts_done < checkpoints) {
      ++ckpts_done;
      const uint64_t before = env_.counts().of(FileClass::kCheckpoint).bytes;
      const Clock::time_point t0 = Clock::now();
      Status st = svc_->Checkpoint();
      const Clock::time_point t1 = Clock::now();
      if (!st.ok()) {
        Fail("checkpoint: " + st.ToString());
        continue;
      }
      out->checkpoint_ms.push_back(Us(t0, t1) / 1e3);
      out->checkpoint_bytes +=
          env_.counts().of(FileClass::kCheckpoint).bytes - before;
    }
  }
  out->wall_s = Us(start, Clock::now()) / 1e6;
  // Until every reader has sent its share, keep committing, untimed, so
  // every timed read meets the writer whatever the relative speed of
  // writes and reads on this machine.
  for (uint64_t i = 0; overlap && mirror_valid_ &&
                       readers_busy_.load(std::memory_order_acquire) > 0;
       ++i) {
    ++out->overlap_commits;
    apply(churn_.Next(), /*timed=*/false, commits + 1 + i);
  }
}

void Runner::RunPhase(const std::vector<std::vector<Request>>& schedules,
                      size_t begin, size_t end, uint32_t commits,
                      uint32_t checkpoints, bool traced,
                      std::vector<ReaderOut>* readers, WriterOut* probe,
                      WriterOut* contender, double* read_wall_s) {
  const bool contended = spec_.contending_writer && commits > 0;
  const bool concurrent = contended && concurrent_writer_;
  const std::vector<uint8_t> state = ReadState(concurrent);
  readers->assign(readers_, ReaderOut{});
  contender->rid_base = uint64_t{3} << 62;  // apart from the probe's ids
  const pmi::BufferPoolStats pool0 = pool_->stats();
  {
    go_.store(false);
    readers_busy_.store(readers_);
    std::vector<std::thread> threads;
    threads.reserve(readers_ + 1);
    for (uint32_t c = 0; c < readers_; ++c) {
      threads.emplace_back([this, c, begin, end, traced, &schedules, &state,
                            readers] {
        ReadLoop(c, schedules[c], begin, end, traced, state, &(*readers)[c]);
      });
    }
    if (concurrent) {
      threads.emplace_back([this, commits, checkpoints, traced, contender] {
        WriteLoop(commits, checkpoints, traced, /*overlap=*/true, contender);
      });
    }
    phase_start_ = Clock::now();
    go_.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();
    Clock::time_point last = phase_start_;
    for (const ReaderOut& r : *readers) last = std::max(last, r.end);
    *read_wall_s = Us(phase_start_, last) / 1e6;
  }
  // The pool's traffic of the reads alone: the writers come after.
  if (!traced) {
    const pmi::BufferPoolStats pool1 = pool_->stats();
    read_pool_.hits += pool1.hits - pool0.hits;
    read_pool_.misses += pool1.misses - pool0.misses;
    read_pool_.evictions += pool1.evictions - pool0.evictions;
  }
  auto alone = [&](uint32_t ckpts, WriterOut* out) {
    go_.store(false);
    std::thread t([this, commits, ckpts, traced, out] {
      WriteLoop(commits, ckpts, traced, /*overlap=*/false, out);
    });
    go_.store(true, std::memory_order_release);
    t.join();
  };
  if (contended && !concurrent) alone(checkpoints, contender);
  // The probe does not pay for write-back of what the reads' phase wrote.
  if (spec_.durable) SyncFileSystem(opts_.work_dir);
  if (commits > 0) alone(contended ? 0 : checkpoints, probe);
}

Status Runner::BuildShadows() {
  const pmi::ShardRouter& router = svc_->router();
  for (std::vector<MetricDB>* set : {&shadow_read_, &shadow_write_}) {
    MetricDBConfig cfg = svc_->config();
    cfg.options.buffer_pool = std::make_shared<pmi::BufferPool>(
        cfg.options.page_size, cfg.options.cache_bytes);
    set->clear();
    for (uint32_t s = 0; s < router.num_shards(); ++s) {
      Dataset part = Dataset::Vectors(in_.data.dim());
      std::vector<UpdateOp> removes;
      for (ObjectId id : router.members(s)) {
        part.Add(in_.data.view(id));
        if (live_[id] == 0) removes.push_back(UpdateOp::Remove(router.local_of(id)));
      }
      PMI_ASSIGN_OR_RETURN(MetricDB db, MetricDB::Create(cfg, std::move(part)));
      if (!removes.empty()) PMI_RETURN_IF_ERROR(db.Apply(removes));
      set->push_back(std::move(db));
    }
  }
  return pmi::OkStatus();
}

void Runner::FinalChecks() {
  if (!mirror_valid_) {
    Fail("a writer commit failed; the liveness mirror is unknown");
    return;
  }
  const std::vector<uint8_t> state = ReadState(/*writer_concurrent=*/false);
  std::vector<ObjectView> views = AllViews(in_.queries);
  views.resize(std::min<size_t>(views.size(), kFinalCheckQueries));
  auto check_answers = [&](auto&& query, const char* what) {
    StatusOr<QueryResult> m = query(QueryRequest::RangeBatch(views, in_.radius));
    StatusOr<QueryResult> k = query(QueryRequest::KnnBatch(views, kKnnK));
    if (!m.ok() || !k.ok()) {
      Fail(std::string(what) + ": query failed");
      return;
    }
    for (uint32_t q = 0; q < views.size(); ++q) {
      if (!RangeMatches(m->ids[q], oracle_.mrq[q], state) ||
          !KnnMatches(k->neighbors[q], oracle_.knn[q], state)) {
        Fail(std::string(what) + ": answer differs from the oracle at the "
             "writer's liveness mirror");
        return;
      }
    }
  };
  auto check_alive = [&](auto&& alive, const char* what) {
    for (ObjectId id = 0; id < n_; ++id) {
      if (alive(id) != (live_[id] != 0)) {
        Fail(std::string(what) + ": alive(" + std::to_string(id) +
             ") differs from the writer's mirror");
        return;
      }
    }
  };

  check_alive([&](ObjectId id) { return svc_->alive(id); }, "service");
  StatusOr<ShardedService::ReadView> view = svc_->GetReadView();
  if (view.ok()) {
    check_alive([&](ObjectId id) { return view->alive(id); }, "read view");
    check_answers([&](const QueryRequest& q) { return view->Query(q); },
                  "pinned read view");
  } else {
    // Indexes without versioned reads: the service itself, now idle.
    check_answers([&](const QueryRequest& q) { return svc_->Query(q); },
                  "service");
  }
  if (!spec_.durable) return;
  Status closed = svc_->Close();
  svc_.reset();
  if (!closed.ok()) {
    Fail("close: " + closed.ToString());
    return;
  }
  StatusOr<std::unique_ptr<ShardedService>> reopened =
      ShardedService::OpenDurable(dir_, sopts_, dopts_);
  if (!reopened.ok()) {
    Fail("reopen: " + reopened.status().ToString());
    return;
  }
  svc_ = std::move(*reopened);
  check_alive([&](ObjectId id) { return svc_->alive(id); }, "reopened service");
  check_answers([&](const QueryRequest& q) { return svc_->Query(q); },
                "reopened service");
}

void Runner::EndToEnd(const std::vector<Round>& rounds) {
  // Latency sequences are one client's samples in the order it took
  // them: tails are medians over windows within them.  Rates and memory
  // are per round and reported as the median over rounds, so one
  // disturbed round cannot move them.
  std::vector<std::vector<double>> lat[3];
  for (std::vector<std::vector<double>>& l : lat) l.resize(readers_);
  std::vector<std::vector<double>> apply(1);
  std::vector<double> contended_apply, read_qps, apply_ops_per_s, rss;
  uint64_t answered = 0, dist = 0, pa = 0, requests = 0, commits = 0;
  uint64_t overlap_commits = 0;
  double read_wall_s = 0, write_wall_s = 0;
  for (const Round& round : rounds) {
    uint64_t round_answered = 0;
    for (uint32_t i = 0; i < round.readers.size(); ++i) {
      const ReaderOut& r = round.readers[i];
      for (int c : {kMrq, kKnn, kBatch}) {
        lat[c][i].insert(lat[c][i].end(), r.lat_us[c].begin(), r.lat_us[c].end());
      }
      round_answered += r.queries_answered;
      dist += r.dist;
      pa += r.pa;
      requests += r.requests;
    }
    apply[0].insert(apply[0].end(), round.probe.lat_us.begin(),
                    round.probe.lat_us.end());
    contended_apply.insert(contended_apply.end(),
                           round.contender.lat_us.begin(),
                           round.contender.lat_us.end());
    answered += round_answered;
    commits += round.probe.calls + round.contender.calls;
    overlap_commits += round.contender.overlap_commits;
    read_wall_s += round.read_wall_s;
    write_wall_s += round.probe.wall_s;
    read_qps.push_back(Ratio(static_cast<double>(round_answered), round.read_wall_s));
    apply_ops_per_s.push_back(Ratio(static_cast<double>(round.probe.timed_ops),
                                    round.probe.wall_s));
    rss.push_back(round.rss_mb);
  }
  std::vector<MetricValue>& e = report_.end_to_end;
  e.push_back({"setup_s", setup_s_, "s"});
  Tails(&e, "mrq", lat[kMrq], kReadTail);
  Tails(&e, "knn", lat[kKnn], kReadTail);
  Tails(&e, "batch", lat[kBatch], kBatchTail);
  Tails(&e, "apply", apply, kApplyTail);
  e.push_back({"read_qps", Median(read_qps), "1/s"});
  e.push_back({"apply_ops_per_s", Median(apply_ops_per_s), "1/s"});
  report_.compdists_per_query =
      Ratio(static_cast<double>(dist), static_cast<double>(answered));
  report_.pa_per_query = Ratio(static_cast<double>(pa), static_cast<double>(answered));
  e.push_back({"compdists_per_query", report_.compdists_per_query, "count"});
  e.push_back({"rss_mb", Median(rss), "MB"});
  std::string rss_line = "rss_mb per round:";
  std::string qps_line = "read_qps per round:";
  std::string steal_line = "cpu steal % per round:";
  for (size_t k = 0; k < rounds.size(); ++k) {
    rss_line += " " + std::to_string(rss[k]);
    qps_line += " " + std::to_string(read_qps[k]);
    steal_line += " " + std::to_string(rounds[k].steal_pct);
  }
  Note(rss_line);
  Note(qps_line);
  Note(steal_line);
  if (!contended_apply.empty()) {
    char line[200];
    std::snprintf(line, sizeof(line),
                  "contending writer's commits: %zu samples, p50=%.4f "
                  "p90=%.4f ms (the apply metrics are the probe's)",
                  contended_apply.size(), Percentile(contended_apply, 50) * 1e-3,
                  Percentile(contended_apply, 90) * 1e-3);
    Note(line);
  }
  report_.read_requests = requests;
  report_.queries_answered = answered;
  report_.commits = commits;
  char line[320];
  std::snprintf(line, sizeof(line),
                "reads: %" PRIu64 " requests, %" PRIu64 " queries in %.3f s; "
                "writers: %" PRIu64 " commits, the probe's timed ones in %.3f s; "
                "%" PRIu64 " untimed while readers ran on; %zu rounds; "
                "pa_per_query=%.4f",
                requests, answered, read_wall_s, commits, write_wall_s,
                overlap_commits, rounds.size(), report_.pa_per_query);
  Note(line);
}

void Runner::Tails(std::vector<MetricValue>* out, const std::string& stem,
                   const std::vector<std::vector<double>>& sequences_us,
                   double wanted) {
  std::vector<double> pooled;
  for (const std::vector<double>& q : sequences_us) {
    pooled.insert(pooled.end(), q.begin(), q.end());
  }
  const double p50 = Percentile(pooled, 50) * 1e-3;
  const TailChoice tail = ChooseTail(pooled, wanted);
  const double tail_ms = WindowedPercentile(sequences_us, tail.pct) * 1e-3;
  out->push_back({stem + "_p50_ms", p50, "ms"});
  out->push_back({stem + "_" + tail.label + "_ms", tail_ms, "ms"});
  char line[200];
  std::snprintf(line, sizeof(line),
                "%s: %zu samples, p50=%.4f %s=%.4f ms (windowed; pooled "
                "%.4f ms)",
                stem.c_str(), pooled.size(), p50, tail.label.c_str(), tail_ms,
                tail.value * 1e-3);
  Note(line);
}

StatusOr<RunReport> Runner::Run() {
  n_ = opts_.n != 0 ? opts_.n : spec_.n;
  nq_ = opts_.queries != 0 ? opts_.queries : kDefaultQueries;
  readers_ = opts_.readers != 0 ? opts_.readers : spec_.readers;
  cycles_ = opts_.cycles_per_reader != 0
                ? opts_.cycles_per_reader
                : static_cast<uint32_t>(std::ceil(
                      opts_.seconds * spec_.reader_cycles_per_s / kRounds));
  commits_ = opts_.commits != 0
                 ? opts_.commits
                 : static_cast<uint32_t>(std::ceil(
                       opts_.seconds * spec_.commits_per_s / kRounds));
  concurrent_writer_ = spec_.contending_writer && !opts_.serial_writer;
  report_.clients = readers_ + (concurrent_writer_ ? 1 : 0);

  Log("generating n=%u + %u held-out queries (seed %" PRIu64 ")", n_, nq_,
      opts_.seed);
  in_ = MakeInputs(spec_, n_, nq_, opts_.seed);
  report_.input_digest = in_.digest;
  PMI_ASSIGN_OR_RETURN(metric_param_,
                       pmi::ResolveMetricParam(spec_.metric, in_.data));
  Log("oracle: LinearScan over %u queries (radius %.4f)", nq_, in_.radius);
  PMI_ASSIGN_OR_RETURN(oracle_, BuildOracle(spec_, in_, metric_param_));
  // Each reader's schedule is kRounds rounds of cycles_ cycles.
  const size_t per_cycle =
      spec_.mrq_per_cycle + spec_.knn_per_cycle + spec_.batch_per_cycle;
  const size_t round_len = size_t{cycles_} * per_cycle;
  std::vector<std::vector<Request>> schedules(readers_);
  for (uint32_t c = 0; c < readers_; ++c) {
    for (uint32_t k = 0; k < kRounds; ++k) {
      const std::vector<Request> round = MakeSchedule(
          spec_, cycles_, nq_, Mix(opts_.seed, 1000 * (k + 1) + c));
      schedules[c].insert(schedules[c].end(), round.begin(), round.end());
    }
  }
  churn_ = MakeChurn(n_, Mix(opts_.seed, 3));
  live_.assign(n_, 1);

  Log("setup: %u service builds", opts_.setup_repeats);
  PMI_RETURN_IF_ERROR(Setup());

  // -- untraced phase: the end-to-end metrics --------------------------------
  // Checkpoint j of the run falls in round j * kRounds / checkpoints.
  auto round_checkpoints = [&](uint32_t k) {
    uint32_t n = 0;
    for (uint32_t j = 0; j < spec_.checkpoints; ++j) {
      n += j * kRounds / spec_.checkpoints == k ? 1 : 0;
    }
    return n;
  };
  Log("timed phase: %u rounds of %u readers x %zu requests, %u probe "
      "commits%s",
      kRounds, readers_, round_len, commits_,
      spec_.contending_writer ? ", as many by a contending writer" : "");
  const pmi::ShardedService::ServiceStats adm0 = svc_->stats();
  SyncFileSystem(opts_.work_dir);
  env_.Reset();
  const std::pair<double, double> ticks0 = CpuTicks();
  std::vector<Round> rounds(kRounds);
  for (uint32_t k = 0; k < kRounds; ++k) {
    const std::pair<double, double> round0 = CpuTicks();
    RunPhase(schedules, k * round_len, (k + 1) * round_len, commits_,
             round_checkpoints(k), /*traced=*/false, &rounds[k].readers, &rounds[k].probe,
             &rounds[k].contender, &rounds[k].read_wall_s);
    rounds[k].rss_mb = RssMb();
    const std::pair<double, double> round1 = CpuTicks();
    rounds[k].steal_pct = 100 * Ratio(round1.first - round0.first,
                                      round1.second - round0.second);
  }
  const CountingEnv::Counts io = env_.counts();
  {
    const std::pair<double, double> ticks1 = CpuTicks();
    char line[120];
    std::snprintf(line, sizeof(line),
                  "cpu steal during the timed phase: %.2f%%",
                  100 * Ratio(ticks1.first - ticks0.first,
                              ticks1.second - ticks0.second));
    Note(line);
  }
  const pmi::ShardedService::ServiceStats adm1 = svc_->stats();
  // The whole phase as one set of reader results and one of writer
  // counts (both writers').
  std::vector<ReaderOut> readers;
  WriterOut writer;
  for (Round& round : rounds) {
    for (ReaderOut& r : round.readers) {
      report_.outcomes += r.outcomes;
      readers.push_back(r);
    }
    for (const WriterOut* w : {&round.probe, &round.contender}) {
      report_.outcomes += w->outcomes;
      writer.ops_acked += w->ops_acked;
      writer.attempts += w->attempts;
      writer.calls += w->calls;
      writer.checkpoint_ms.insert(writer.checkpoint_ms.end(),
                                  w->checkpoint_ms.begin(),
                                  w->checkpoint_ms.end());
      writer.checkpoint_bytes += w->checkpoint_bytes;
    }
  }
  EndToEnd(rounds);
  const double user_bytes = static_cast<double>(in_.data.total_payload_bytes());
  const double disk_bytes =
      spec_.durable ? static_cast<double>(DirBytes(dir_)) : 0.0;

  const double ops = static_cast<double>(writer.ops_acked);
  const double commits_done = static_cast<double>(writer.calls);
  const CountingEnv::ClassCounts& wal = io.of(FileClass::kWal);
  report_.wal_bytes_per_op = Ratio(static_cast<double>(wal.bytes), ops);

  if (opts_.trace) {
    // -- traced phase: the same requests at every public boundary ------------
    PMI_RETURN_IF_ERROR(BuildShadows());
    // Its own schedules: enough single requests for kTraceEvery-sampled
    // p99s.
    const uint32_t traced_singles =
        opts_.traced_singles != 0 ? opts_.traced_singles : kDefaultTracedSingles;
    const size_t singles_per_cycle = spec_.mrq_per_cycle + spec_.knn_per_cycle;
    const uint32_t traced_cycles = static_cast<uint32_t>(std::ceil(
        static_cast<double>(traced_singles) * kTraceEvery /
        static_cast<double>(singles_per_cycle * readers_)));
    std::vector<std::vector<Request>> traced_schedules(readers_);
    for (uint32_t c = 0; c < readers_; ++c) {
      uint32_t batches = 0;
      for (const Request& r :
           MakeSchedule(spec_, traced_cycles, nq_, Mix(opts_.seed, 50 + c))) {
        if (r.cls == kBatch && ++batches > kTracedBatches) continue;
        traced_schedules[c].push_back(r);
      }
    }
    const size_t traced_len = traced_schedules.empty() ? 0 : traced_schedules[0].size();
    const uint32_t traced_commits =
        opts_.traced_commits != 0 ? opts_.traced_commits : kDefaultTracedCommits;
    Log("traced phase: %u readers x %zu requests, %u commits", readers_,
        traced_len, traced_commits);
    std::vector<ReaderOut> treaders;
    WriterOut twriter, tcontender;
    double twall = 0;
    RunPhase(traced_schedules, 0, traced_len, traced_commits,
             /*checkpoints=*/0, /*traced=*/true, &treaders, &twriter,
             &tcontender, &twall);
    for (const ReaderOut& r : treaders) report_.outcomes += r.outcomes;
    report_.outcomes += twriter.outcomes;
    report_.outcomes += tcontender.outcomes;

    ReaderOut all;
    for (ReaderOut& r : treaders) {
      auto cat = [](std::vector<double>* to, const std::vector<double>& from) {
        to->insert(to->end(), from.begin(), from.end());
      };
      cat(&all.retry_self, r.retry_self);
      cat(&all.admission_self, r.admission_self);
      cat(&all.scatter_self, r.scatter_self);
      cat(&all.merge_us, r.merge_us);
      cat(&all.shard_max_over_mean, r.shard_max_over_mean);
      cat(&all.db_self, r.db_self);
      cat(&all.index_self, r.index_self);
      cat(&all.lat_us[kMrq], r.lat_us[kMrq]);
      cat(&all.batch_index_us_per_query, r.batch_index_us_per_query);
      all.single_root_us += r.single_root_us;
      all.single_kernel_us += r.single_kernel_us;
      all.single_residual_us += r.single_residual_us;
      all.kernel_us += r.kernel_us;
      all.kernel_dists += r.kernel_dists;
      all.index_dists += r.index_dists;
      all.index_results += r.index_results;
      all.index_queries += r.index_queries;
    }
    std::vector<MetricValue>& p = report_.per_layer;
    auto tail99 = [&](const std::string& stem, const std::vector<double>& v) {
      const TailChoice t = ChooseTail(v, 99);
      if (t.label != "p99") {
        Note(stem + ": only " + std::to_string(v.size()) +
             " samples, tail reported as " + t.label);
      }
      p.push_back({stem + "_" + t.label, t.value, "us"});
    };
    double untraced_mrq_p50 = 0;
    {
      std::vector<double> v;
      for (const ReaderOut& r : readers) {
        v.insert(v.end(), r.lat_us[kMrq].begin(), r.lat_us[kMrq].end());
      }
      untraced_mrq_p50 = Median(v);
    }
    uint64_t attempts = writer.attempts, calls = writer.calls;
    for (const ReaderOut& r : readers) {
      attempts += r.attempts;
      calls += r.requests;
    }
    const double queries = static_cast<double>(report_.queries_answered);
    const pmi::AdmissionQueue::Stats& a0 = adm0.admission;
    const pmi::AdmissionQueue::Stats& a1 = adm1.admission;
    const double accepted = static_cast<double>(a1.accepted - a0.accepted);
    const double rejected = static_cast<double>(a1.rejected - a0.rejected);
    const double hits = static_cast<double>(read_pool_.hits);
    const double misses = static_cast<double>(read_pool_.misses);
    uint64_t physical = 0;
    for (const ReaderOut& r : readers) physical += r.physical_reads;

    p.push_back({"retry.self_us_p50", Median(all.retry_self), "us"});
    p.push_back({"retry.attempts_per_call",
                 Ratio(static_cast<double>(attempts), static_cast<double>(calls)),
                 "count"});
    p.push_back({"admission.self_us_p50", Median(all.admission_self), "us"});
    tail99("admission.self_us", all.admission_self);
    p.push_back({"admission.peak_depth", static_cast<double>(a1.peak_depth), "count"});
    p.push_back({"admission.rejected_frac", Ratio(rejected, accepted + rejected), "ratio"});
    p.push_back({"scatter.self_us_p50", Median(all.scatter_self), "us"});
    p.push_back({"merge.us_p50", Median(all.merge_us), "us"});
    p.push_back({"scatter.shard_max_over_mean", Median(all.shard_max_over_mean), "ratio"});
    p.push_back({"metric_db.self_us_p50", Median(all.db_self), "us"});
    tail99("metric_db.self_us", all.db_self);
    p.push_back({"metric_db.apply_us_p50", Median(twriter.db_apply_us), "us"});
    tail99("metric_db.apply_us", twriter.db_apply_us);
    p.push_back({"checkpoint.ms_p50", Median(writer.checkpoint_ms), "ms"});
    p.push_back({"checkpoint.bytes",
                 Ratio(static_cast<double>(writer.checkpoint_bytes),
                       static_cast<double>(writer.checkpoint_ms.size())),
                 "bytes"});
    p.push_back({"index.self_us_p50", Median(all.index_self), "us"});
    tail99("index.self_us", all.index_self);
    p.push_back({"index.compdists_per_query",
                 Ratio(static_cast<double>(all.index_dists),
                       static_cast<double>(all.index_queries)),
                 "count"});
    p.push_back({"index.results_per_compdist",
                 Ratio(static_cast<double>(all.index_results),
                       static_cast<double>(all.index_dists)),
                 "ratio"});
    p.push_back({"index.batch_us_per_query", Median(all.batch_index_us_per_query), "us"});
    p.push_back({"metric.ns_per_distance", Ratio(all.kernel_us * 1e3, all.kernel_dists), "ns"});
    p.push_back({"metric.kernel_share", Ratio(all.single_kernel_us, all.single_root_us), "ratio"});
    p.push_back({"pool.hits_per_query", Ratio(hits, queries), "count"});
    p.push_back({"pool.misses_per_query", Ratio(misses, queries), "count"});
    p.push_back({"pool.hit_rate", Ratio(hits, hits + misses), "ratio"});
    p.push_back({"pool.evictions_per_query",
                 Ratio(static_cast<double>(read_pool_.evictions), queries),
                 "count"});
    p.push_back({"pool.physical_reads_per_query",
                 Ratio(static_cast<double>(physical), queries), "count"});
    p.push_back({"paged_file.logical_pa_per_query", report_.pa_per_query, "count"});
    p.push_back({"wal.appends_per_apply", Ratio(static_cast<double>(wal.appends), commits_done), "count"});
    p.push_back({"wal.syncs_per_apply", Ratio(static_cast<double>(wal.syncs), commits_done), "count"});
    // Under SyncMode::kNever the WAL syncs only around checkpoints: too
    // few samples for a tail.
    p.push_back({"wal.sync_us_p50", Median(io.wal_sync_us), "us"});
    p.push_back({"wal.bytes_per_op", report_.wal_bytes_per_op, "bytes"});
    p.push_back({"env.bytes_written_per_user_byte",
                 Ratio(static_cast<double>(io.bytes_written()), user_bytes), "ratio"});
    p.push_back({"disk_bytes_per_user_byte", Ratio(disk_bytes, user_bytes), "ratio"});
    p.push_back({"supervisor.faults_detected",
                 svc_->supervisor() != nullptr
                     ? static_cast<double>(svc_->supervisor()->stats().faults_detected)
                     : 0.0,
                 "count"});
    p.push_back({"failed_frac", report_.outcomes.failed_frac(), "ratio"});
    p.push_back({"trace.overhead_frac",
                 Ratio(Median(all.lat_us[kMrq]) - untraced_mrq_p50, untraced_mrq_p50),
                 "ratio"});
    p.push_back({"trace.residual_frac", Ratio(all.single_residual_us, all.single_root_us),
                 "ratio"});

    if (!opts_.trace_path.empty()) {
      std::ofstream f(opts_.trace_path);
      auto dump = [&](const std::vector<Span>& spans) {
        for (const Span& s : spans) {
          char buf[256];
          std::snprintf(buf, sizeof(buf),
                        "{\"request\": %" PRIu64 ", \"parent\": %d, \"name\": "
                        "\"%s\", \"shard\": %d, \"start_us\": %.3f, "
                        "\"end_us\": %.3f}\n",
                        s.request, s.parent, s.name, s.shard, s.start_us,
                        s.end_us);
          f << buf;
        }
      };
      for (const ReaderOut& r : treaders) dump(r.spans);
      dump(twriter.spans);
      dump(tcontender.spans);
    }
  }

  Log("final checks");
  FinalChecks();
  if (report_.outcomes.failed() != 0) {
    report_.correct = false;
    char line[200];
    std::snprintf(line, sizeof(line),
                  "failed requests: %" PRIu64 " of %" PRIu64
                  " (refused %" PRIu64 ", deadline %" PRIu64 ", errors %" PRIu64
                  ", oracle mismatches %" PRIu64 ")",
                  report_.outcomes.failed(), report_.outcomes.attempted,
                  report_.outcomes.refused, report_.outcomes.deadline,
                  report_.outcomes.errors, report_.outcomes.mismatches);
    Note(line);
  }
  if (svc_ != nullptr) {
    Status st = svc_->Close();
    if (!st.ok()) Fail("close: " + st.ToString());
    svc_.reset();
  }
  shadow_read_.clear();
  shadow_write_.clear();
  std::filesystem::remove_all(dir_);
  return std::move(report_);
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kAll = [] {
    std::vector<WorkloadSpec> all;
    WorkloadSpec mem;
    mem.name = "mem_read";
    mem.dataset = pmi::BenchDatasetId::kSynthetic;
    mem.n = 100000;
    mem.metric = "Linf";
    mem.index = "EPT*";
    mem.shards = 4;
    mem.workers = 4;
    mem.readers = 4;
    mem.mrq_per_cycle = 9;
    mem.knn_per_cycle = 9;
    mem.batch_per_cycle = 2;
    mem.reader_cycles_per_s = 20;
    mem.commits_per_s = 400;
    all.push_back(mem);

    WorkloadSpec mixed = mem;
    mixed.name = "mixed_durable";
    mixed.readers = 3;
    mixed.durable = true;
    mixed.contending_writer = true;
    mixed.mrq_per_cycle = 19;
    mixed.knn_per_cycle = 19;
    mixed.batch_per_cycle = 2;
    mixed.reader_cycles_per_s = 15;
    mixed.commits_per_s = 350;
    mixed.checkpoints = 5;
    all.push_back(mixed);

    WorkloadSpec disk;
    disk.name = "disk_pool";
    disk.dataset = pmi::BenchDatasetId::kLa;
    disk.n = 200000;
    disk.metric = "L2";
    disk.index = "SPB-tree";
    disk.shards = 2;
    disk.workers = 2;
    // One reader: a second one mostly waited on the shard locks of the
    // legacy path, and its tails followed the interleaving (README).
    disk.readers = 1;
    // Enough batches (500 at 20 s) for five windows of their p90.
    disk.mrq_per_cycle = 8;
    disk.knn_per_cycle = 8;
    disk.batch_per_cycle = 1;
    disk.reader_cycles_per_s = 25;
    disk.commits_per_s = 250;
    all.push_back(disk);
    return all;
  }();
  return kAll;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

StatusOr<RunReport> RunWorkload(const WorkloadSpec& spec, const RunOptions& opts) {
  RunOptions o = opts;
  if (o.setup_repeats == 0) o.setup_repeats = kDefaultSetupRepeats;
  Runner runner(spec, o);
  return runner.Run();
}

}  // namespace perfbench
