// Determinism self-test: every workload at a toy size with one client,
// run twice with one seed and once with another.  The same seed must
// repeat the paper's machine-independent costs and the request counts
// exactly; another seed must produce other inputs.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "perfbench/src/workload.h"
#include "src/core/thread_pool.h"

namespace perfbench {
namespace {

RunReport RunToy(const WorkloadSpec& spec, uint64_t seed, bool trace = false) {
  const std::string dir = "perfbench_determinism_" + spec.name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  RunOptions opts;
  opts.seed = seed;
  opts.work_dir = dir;
  opts.n = 20000;  // big enough that SPB-tree pages miss the 128 KiB LRU
  opts.queries = 64;
  opts.readers = 1;
  opts.cycles_per_reader = 3;
  opts.commits = 24;
  opts.setup_repeats = 1;
  opts.serial_writer = true;
  opts.verbose = false;
  opts.trace = trace;
  opts.traced_singles = 40;
  opts.traced_commits = 8;
  pmi::StatusOr<RunReport> r = RunWorkload(spec, opts);
  std::filesystem::remove_all(dir);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(*r) : RunReport{};
}

class DeterminismTest : public ::testing::TestWithParam<std::string> {
 protected:
  // Batches on indexes without block-major execution fan out over the
  // global pool, and the paged file's logical LRU then sees a
  // schedule-dependent interleaving; one thread keeps PA exact.
  void SetUp() override { pmi::ThreadPool::SetGlobalThreads(1); }
};

TEST_P(DeterminismTest, SameSeedRepeatsAndOtherSeedDiffers) {
  const WorkloadSpec* spec = FindWorkload(GetParam());
  ASSERT_NE(spec, nullptr);
  const RunReport a = RunToy(*spec, 7);
  const RunReport b = RunToy(*spec, 7);
  const RunReport c = RunToy(*spec, 8);
  for (const RunReport* r : {&a, &b, &c}) {
    EXPECT_TRUE(r->correct);
    EXPECT_EQ(r->outcomes.failed(), 0u);
    EXPECT_EQ(r->clients, 1u);
  }
  EXPECT_GT(a.read_requests, 0u);
  EXPECT_GT(a.commits, 0u);
  EXPECT_GT(a.compdists_per_query, 0);

  EXPECT_EQ(a.input_digest, b.input_digest);
  EXPECT_EQ(a.compdists_per_query, b.compdists_per_query);
  EXPECT_EQ(a.pa_per_query, b.pa_per_query);
  EXPECT_EQ(a.wal_bytes_per_op, b.wal_bytes_per_op);
  EXPECT_EQ(a.read_requests, b.read_requests);
  EXPECT_EQ(a.queries_answered, b.queries_answered);
  EXPECT_EQ(a.commits, b.commits);
  EXPECT_EQ(a.outcomes.attempted, b.outcomes.attempted);

  EXPECT_NE(a.input_digest, c.input_digest);
  EXPECT_NE(a.compdists_per_query, c.compdists_per_query);
  if (spec->durable) {
    EXPECT_GT(a.wal_bytes_per_op, 0);
  }
  if (spec->index == "SPB-tree") {
    EXPECT_GT(a.pa_per_query, 0);
  }
}

TEST_P(DeterminismTest, TracedRunChecksEveryBoundary) {
  const WorkloadSpec* spec = FindWorkload(GetParam());
  ASSERT_NE(spec, nullptr);
  const RunReport r = RunToy(*spec, 7, /*trace=*/true);
  EXPECT_TRUE(r.correct);
  EXPECT_EQ(r.outcomes.failed(), 0u);
  EXPECT_EQ(r.per_layer.size(), 38u);
  for (const MetricValue& m : r.per_layer) {
    EXPECT_TRUE(m.value == m.value) << m.name;  // no NaN
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, DeterminismTest,
                         ::testing::Values("mem_read", "mixed_durable",
                                           "disk_pool"));

}  // namespace
}  // namespace perfbench
