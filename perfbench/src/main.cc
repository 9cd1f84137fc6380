// perfbench -- runs one workload of the end-to-end service benchmark and
// prints its metrics.  Normally started through perfbench/run.py, which
// builds this binary first; see README.md.
//
//   perfbench --workload mem_read --seed 1 --seconds 10 --trace 0
//             --work-dir DIR [--trace-out FILE] [--commit SHA]
//
// Output: "# fingerprint {...}" and "# ..." detail lines, one
// "metric <name> <value> <unit>" line per metric, and as the last line
// one JSON object {"correct", "attempted", "failed", "metrics"}.  With
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones.  Exit code 0 only when every answer matched the
// oracle and no request failed.

#include <sched.h>
#include <unistd.h>

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/workload.h"
#include "src/core/simd.h"

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string EnvOr(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

/// One polling thread per vCPU under SCHED_IDLE, for the life of the
/// object, so that no vCPU of the VM halts while the benchmark runs.
/// On a shared VM, waking a halted vCPU waits for the host to schedule
/// it again: each hand-off between a client and an admission worker then
/// took the host's time, and every timing followed the host's load
/// (README "Steadiness").  A SCHED_IDLE thread runs only when nothing
/// else on its vCPU can, and yields at once to any thread that wakes.
class IdlePollers {
 public:
  /// Returns once every poller runs under SCHED_IDLE or has ended.
  explicit IdlePollers(long n) {
    for (long i = 0; i < n; ++i) {
      threads_.emplace_back([this] {
        sched_param param{};
        // A poller that cannot lower its class would compete with the
        // benchmark's own threads: it ends instead.
        const bool idle = sched_setscheduler(0, SCHED_IDLE, &param) == 0;
        if (idle) running_.fetch_add(1);
        started_.fetch_add(1);
        while (idle && !stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#endif
        }
      });
    }
    while (started_.load() < n) std::this_thread::yield();
  }
  ~IdlePollers() {
    stop_.store(true);
    for (std::thread& t : threads_) t.join();
  }
  long running() const { return running_.load(); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<long> started_{0};
  std::atomic<long> running_{0};
  std::vector<std::thread> threads_;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--trace-out FILE] [--commit SHA]\n"
               "workloads:",
               argv0);
  for (const perfbench::WorkloadSpec& w : perfbench::Workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, work_dir, trace_out, commit = "unknown";
  perfbench::RunOptions opts;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && opts.seconds > 0;
    } else if (flag == "--trace") {
      opts.trace = std::strcmp(value, "1") == 0;
      have_trace = opts.trace || std::strcmp(value, "0") == 0;
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return Usage(argv[0]);
    }
  }
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(workload);
  if (spec == nullptr || !have_seed || !have_seconds || !have_trace ||
      work_dir.empty()) {
    return Usage(argv[0]);
  }
  opts.work_dir = work_dir;
  opts.trace_path = trace_out;

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const uint32_t clients =
      spec->readers + (spec->contending_writer ? 1u : 0u);
  const bool oversubscribed = nproc > 0 && clients > nproc;
  auto pollers = std::make_unique<IdlePollers>(oversubscribed ? 0 : nproc);
#ifdef NDEBUG
  const char* asserts = "NDEBUG";
#else
  const char* asserts = "assertions-on";
#endif
  std::printf(
      "# fingerprint {\"workload\": %s, \"seed\": %" PRIu64
      ", \"seconds\": %g, \"trace\": %d, \"clients\": %u, \"nproc\": %ld, "
      "\"simd\": %s, \"compiler\": %s, \"build\": %s, \"asserts\": %s, "
      "\"PMI_SIMD\": %s, \"PMI_THREADS\": %s, \"commit\": %s, "
      "\"flush_policy\": %s, \"idle_pollers\": %ld, "
      "\"oversubscribed\": %s}\n",
      JsonString(spec->name).c_str(), opts.seed, opts.seconds,
      opts.trace ? 1 : 0, clients, nproc,
      JsonString(pmi::SimdLevelName(pmi::SimdLevelInUse())).c_str(),
      JsonString(PERFBENCH_COMPILER).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(), JsonString(asserts).c_str(),
      JsonString(EnvOr("PMI_SIMD", "unset")).c_str(),
      JsonString(EnvOr("PMI_THREADS", "unset")).c_str(),
      JsonString(commit).c_str(),
      JsonString(spec->durable ? "SyncMode::kNever (WAL appended, not fsynced)"
                               : "none (in-memory service)")
          .c_str(),
      pollers->running(), oversubscribed ? "true" : "false");
  std::fflush(stdout);
  if (oversubscribed) {
    std::fprintf(stderr,
                 "perfbench: %s runs %u client threads but this machine has "
                 "%ld; refusing to oversubscribe\n",
                 spec->name.c_str(), clients, nproc);
    return 3;
  }

  pmi::StatusOr<perfbench::RunReport> report =
      perfbench::RunWorkload(*spec, opts);
  pollers.reset();
  if (!report.ok()) {
    std::fprintf(stderr, "perfbench: %s set-up failed: %s\n",
                 spec->name.c_str(), report.status().ToString().c_str());
    return 1;
  }
  for (const std::string& note : report->notes) {
    std::printf("# %s\n", note.c_str());
  }
  const std::vector<perfbench::MetricValue>& metrics =
      opts.trace ? report->per_layer : report->end_to_end;
  std::string json;
  for (const perfbench::MetricValue& m : metrics) {
    std::printf("metric %s %.17g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s%s: {\"value\": %.17g, \"unit\": %s}",
                  json.empty() ? "" : ", ", JsonString(m.name).c_str(),
                  m.value, JsonString(m.unit).c_str());
    json += buf;
  }
  std::printf("# failed_frac %.17g (%" PRIu64 " of %" PRIu64 " requests)\n",
              report->outcomes.failed_frac(), report->outcomes.failed(),
              report->outcomes.attempted);
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
              report->correct ? "true" : "false", report->outcomes.attempted,
              report->outcomes.failed(), json.c_str());
  std::fflush(stdout);
  return report->correct ? 0 : 1;
}
