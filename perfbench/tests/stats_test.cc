// Unit tests for the benchmark's statistics helpers (src/stats.h).

#include "perfbench/src/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRank) {
  const std::vector<double> v = OneTo(100);
  EXPECT_EQ(Percentile(v, 50), 50);
  EXPECT_EQ(Percentile(v, 99), 99);
  EXPECT_EQ(Percentile(v, 100), 100);
  EXPECT_EQ(Percentile(v, 0), 1);
  EXPECT_EQ(Percentile({}, 50), 0);
  EXPECT_EQ(Percentile({7}, 99), 7);
}

TEST(Percentile, SamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 99), 9u);
  EXPECT_EQ(SamplesBeyond(100, 90), 10u);
  EXPECT_EQ(SamplesBeyond(0, 50), 0u);
}

TEST(ChooseTail, ReportsP99OnlyWithTenSamplesBeyond) {
  const TailChoice at1000 = ChooseTail(OneTo(1000));
  EXPECT_EQ(at1000.label, "p99");
  EXPECT_EQ(at1000.value, 990);
  EXPECT_EQ(at1000.samples, 1000u);

  // 999 samples leave only 9 beyond p99: the next supported one is p95.
  const TailChoice at999 = ChooseTail(OneTo(999));
  EXPECT_EQ(at999.label, "p95");
  EXPECT_EQ(at999.pct, 95);

  EXPECT_EQ(ChooseTail(OneTo(150)).label, "p90");
  EXPECT_EQ(ChooseTail(OneTo(40)).label, "p75");
  EXPECT_EQ(ChooseTail(OneTo(20)).label, "p50");

  const TailChoice tiny = ChooseTail(OneTo(19));
  EXPECT_EQ(tiny.label, "max");
  EXPECT_EQ(tiny.value, 19);

  const TailChoice none = ChooseTail({});
  EXPECT_EQ(none.label, "none");
  EXPECT_EQ(none.samples, 0u);
}

TEST(ChooseTail, NeverAboveTheWantedPercentile) {
  EXPECT_EQ(ChooseTail(OneTo(5000), 90).label, "p90");
  EXPECT_EQ(ChooseTail(OneTo(99), 90).label, "p75");
}

TEST(WindowedPercentile, MedianOverWindowsOfEachSequence) {
  // p90 needs 100-sample windows: 10 samples beyond.  A burst that
  // spoils one window of five does not move the median window.
  std::vector<std::vector<double>> seqs(5, std::vector<double>(100, 1.0));
  for (std::vector<double>& s : seqs) {
    for (size_t i = 90; i < 100; ++i) s[i] = 2.0;
  }
  for (double& x : seqs[0]) x = 50.0;
  EXPECT_EQ(WindowedPercentile(seqs, 90), 1.0);
  // Pooled, the burst sets the p90.
  std::vector<double> pooled;
  for (const std::vector<double>& s : seqs) pooled.insert(pooled.end(), s.begin(), s.end());
  EXPECT_EQ(Percentile(pooled, 90), 50.0);
}

TEST(WindowedPercentile, SpreadsTheRemainderAndNeverSpansSequences) {
  // 250 samples give two 125-sample windows, not two of 100 and a
  // dropped 50.  Sorted, they are 1..125 (p90 113) and 126..250 (p90
  // 238); the nearest-rank median of three of each is 113.
  std::vector<std::vector<double>> seqs(3, OneTo(250));
  for (std::vector<double>& s : seqs) std::sort(s.begin(), s.end());
  EXPECT_EQ(WindowedPercentile(seqs, 90), 113);
  seqs.push_back(std::vector<double>(100, 238.0));  // a 7th window
  EXPECT_EQ(WindowedPercentile(seqs, 90), 238);
  // Three sequences of 150 give three windows, fewer than kMinWindows:
  // the samples are pooled.
  std::vector<std::vector<double>> few(3, OneTo(150));
  EXPECT_EQ(WindowedPercentile(few, 90), 135);
  EXPECT_EQ(WindowedPercentile({}, 90), 0);
  // No window supports the maximum: it is the pooled maximum.
  EXPECT_EQ(WindowedPercentile(few, 100), 150);
}

TEST(FailedFrac, RefusalsDeadlinesErrorsAndMismatchesAllCount) {
  EXPECT_EQ(ClassifyStatus(pmi::OkStatus()), Outcome::kOk);
  EXPECT_EQ(ClassifyStatus(pmi::ResourceExhaustedError("queue full")),
            Outcome::kRefused);
  EXPECT_EQ(ClassifyStatus(pmi::DeadlineExceededError("late")),
            Outcome::kDeadline);
  EXPECT_EQ(ClassifyStatus(pmi::UnavailableError("shard 1")), Outcome::kError);

  OutcomeCounts c;
  EXPECT_EQ(c.failed_frac(), 0);
  for (Outcome o : {Outcome::kOk, Outcome::kOk, Outcome::kOk, Outcome::kOk,
                    Outcome::kRefused, Outcome::kDeadline, Outcome::kError,
                    Outcome::kMismatch}) {
    c.Add(o);
  }
  EXPECT_EQ(c.attempted, 8u);
  EXPECT_EQ(c.refused, 1u);
  EXPECT_EQ(c.deadline, 1u);
  EXPECT_EQ(c.errors, 1u);
  EXPECT_EQ(c.mismatches, 1u);
  EXPECT_EQ(c.failed(), 4u);
  EXPECT_DOUBLE_EQ(c.failed_frac(), 0.5);

  OutcomeCounts more;
  more.Add(Outcome::kMismatch);
  c += more;
  EXPECT_EQ(c.attempted, 9u);
  EXPECT_EQ(c.failed(), 5u);
}

Span MakeSpan(int32_t parent, const char* name, double start, double end) {
  Span s;
  s.parent = parent;
  s.name = name;
  s.start_us = start;
  s.end_us = end;
  return s;
}

TEST(SelfTimes, ChainAccountsForTheRoot) {
  const std::vector<Span> spans = {MakeSpan(-1, "root", 0, 100),
                                   MakeSpan(0, "mid", 100, 160),
                                   MakeSpan(1, "leaf", 160, 210)};
  const SelfTimes st = ComputeSelfTimes(spans);
  EXPECT_DOUBLE_EQ(st.self_us[0], 40);
  EXPECT_DOUBLE_EQ(st.self_us[1], 10);
  EXPECT_DOUBLE_EQ(st.self_us[2], 50);
  EXPECT_DOUBLE_EQ(st.root_us, 100);
  EXPECT_DOUBLE_EQ(st.residual_us, 0);
}

TEST(SelfTimes, FanOutSubtractsEveryChild) {
  const std::vector<Span> spans = {
      MakeSpan(-1, "root", 0, 100), MakeSpan(0, "shard", 0, 30),
      MakeSpan(0, "shard", 30, 80), MakeSpan(1, "index", 0, 20)};
  const SelfTimes st = ComputeSelfTimes(spans);
  EXPECT_DOUBLE_EQ(st.self_us[0], 20);
  EXPECT_DOUBLE_EQ(SelfOf(spans, st, "shard"), 10 + 50);
  EXPECT_DOUBLE_EQ(SelfOf(spans, st, "index"), 20);
  EXPECT_DOUBLE_EQ(st.residual_us, 0);
}

TEST(SelfTimes, NeverNegativeAndTheResidualIsReported) {
  // The child outlasts its parent (interference during the child call).
  const std::vector<Span> spans = {MakeSpan(-1, "root", 0, 100),
                                   MakeSpan(0, "child", 0, 120),
                                   MakeSpan(1, "leaf", 0, 30)};
  const SelfTimes st = ComputeSelfTimes(spans);
  for (double s : st.self_us) EXPECT_GE(s, 0);
  EXPECT_DOUBLE_EQ(st.self_us[0], 0);
  EXPECT_DOUBLE_EQ(st.self_us[1], 90);
  EXPECT_DOUBLE_EQ(st.self_us[2], 30);
  EXPECT_DOUBLE_EQ(st.residual_us, 100 - 120);
}

}  // namespace
}  // namespace perfbench
