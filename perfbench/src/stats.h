// Statistics helpers of the benchmark: tail-percentile choice, request
// outcome accounting, and boundary-difference self times.  Pure
// functions over plain data, unit-tested in tests/stats_test.cc.

#ifndef PERFBENCH_SRC_STATS_H_
#define PERFBENCH_SRC_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/status.h"

namespace perfbench {

/// Nearest-rank percentile (p in [0, 100]) of `samples`; 0 when empty.
double Percentile(std::vector<double> samples, double p);

/// Samples that lie strictly beyond the nearest-rank p-th percentile of
/// `n` samples.
size_t SamplesBeyond(size_t n, double p);

/// A tail percentile the sample count supports.  A percentile is reported
/// only when at least kMinSamplesBeyond samples lie beyond it; otherwise
/// the highest percentile below it that has that support is reported,
/// under its own label.
struct TailChoice {
  double pct = 0;         ///< 99, 95, 90, 75 or 50; 100 for "max"
  std::string label;      ///< "p99", "p95", ..., "max"; "none" when empty
  double value = 0;
  size_t samples = 0;
};

inline constexpr size_t kMinSamplesBeyond = 10;

/// Picks the highest of {wanted, 95, 90, 75, 50} (never above `wanted`)
/// with enough support; "max" when even p50 lacks it (< 20 samples).
TailChoice ChooseTail(const std::vector<double>& samples, double wanted = 99);

/// Windows of a windowed tail: a window holds at least this many
/// samples beyond its percentile.  With fewer than kMinWindows windows
/// in all, the tail pools the samples instead.
inline constexpr size_t kMinWindows = 5;

/// A tail percentile robust to bursts on the host: the median, over
/// windows of consecutive samples, of each window's p-th percentile.
/// Each sequence (one client's samples in the order it took them) is cut
/// into as many equal windows as have kMinSamplesBeyond samples beyond p
/// each; the remainder is spread over them, so every sample counts.
/// Windows never span two sequences.  With fewer than kMinWindows windows
/// in all, returns the p-th percentile of every sample pooled.
double WindowedPercentile(const std::vector<std::vector<double>>& sequences,
                          double p);

/// What became of one attempted request.
enum class Outcome {
  kOk,        ///< answered, and the answer matched the oracle
  kRefused,   ///< kResourceExhausted from admission (after retries)
  kDeadline,  ///< kDeadlineExceeded
  kError,     ///< any other error status
  kMismatch,  ///< answered, but the answer differs from the oracle
};

/// Maps a request's final status to its outcome (OK maps to kOk; the
/// caller downgrades to kMismatch after checking the answer).
Outcome ClassifyStatus(const pmi::Status& s);

/// Failed, refused and deadline-expired requests plus oracle
/// mismatches, over requests attempted.
struct OutcomeCounts {
  uint64_t attempted = 0;
  uint64_t refused = 0;
  uint64_t deadline = 0;
  uint64_t errors = 0;
  uint64_t mismatches = 0;

  void Add(Outcome o);
  uint64_t failed() const { return refused + deadline + errors + mismatches; }
  /// failed() / attempted; 0 when nothing was attempted.
  double failed_frac() const;
  OutcomeCounts& operator+=(const OutcomeCounts& o);
};

/// One timed call at a layer boundary.  Spans of one request share
/// `request`; `parent` is the index (within that request's spans) of the
/// boundary above, -1 for the root.  Boundaries are called one after the
/// other, so a span's children are measured separately, not nested in
/// its interval: a layer's self time is its duration minus its
/// children's durations.
struct Span {
  uint64_t request = 0;
  int32_t parent = -1;
  const char* name = "";
  int32_t shard = -1;  ///< shard index for per-shard boundaries
  double start_us = 0;
  double end_us = 0;

  double dur_us() const { return end_us - start_us; }
};

/// Self time per span: duration minus the children's durations, clamped
/// at zero.  `residual_us` is the root's duration minus the sum of every
/// span's self time -- zero when no clamp fired, negative when a child
/// outlasted its parent.
struct SelfTimes {
  std::vector<double> self_us;  ///< parallel to the input spans
  double root_us = 0;
  double residual_us = 0;
};

/// `spans` are one request's spans with exactly one root (parent -1).
SelfTimes ComputeSelfTimes(const std::vector<Span>& spans);

/// Sum of self times of the spans named `name`.
double SelfOf(const std::vector<Span>& spans, const SelfTimes& st,
              const char* name);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STATS_H_
