#include "perfbench/src/stats.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench {
namespace {

// Nearest-rank: the smallest sample with at least ceil(p/100 * n)
// samples at or below it (1-based rank, clamped to [1, n]).
size_t NearestRank(size_t n, double p) {
  const double exact = p / 100.0 * static_cast<double>(n);
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  const size_t rank = NearestRank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  return n - NearestRank(n, p);
}

TailChoice ChooseTail(const std::vector<double>& samples, double wanted) {
  TailChoice c;
  c.samples = samples.size();
  if (samples.empty()) {
    c.label = "none";
    return c;
  }
  for (double p : {wanted, 95.0, 90.0, 75.0, 50.0}) {
    if (p > wanted) continue;
    if (SamplesBeyond(samples.size(), p) >= kMinSamplesBeyond) {
      c.pct = p;
      c.label = "p" + std::to_string(static_cast<int>(p));
      c.value = Percentile(samples, p);
      return c;
    }
  }
  c.pct = 100;
  c.label = "max";
  c.value = *std::max_element(samples.begin(), samples.end());
  return c;
}

double WindowedPercentile(const std::vector<std::vector<double>>& sequences,
                          double p) {
  std::vector<double> tails, pooled;
  for (const std::vector<double>& seq : sequences) {
    pooled.insert(pooled.end(), seq.begin(), seq.end());
  }
  // The smallest window with support; none when the pool has none (p100).
  size_t window = 1;
  while (window <= pooled.size() &&
         SamplesBeyond(window, p) < kMinSamplesBeyond) {
    ++window;
  }
  for (const std::vector<double>& seq : sequences) {
    const size_t k = seq.size() / window;
    for (size_t w = 0; w < k; ++w) {
      const size_t lo = seq.size() * w / k, hi = seq.size() * (w + 1) / k;
      tails.push_back(Percentile({seq.begin() + lo, seq.begin() + hi}, p));
    }
  }
  if (tails.size() < kMinWindows) return Percentile(std::move(pooled), p);
  return Percentile(std::move(tails), 50);
}

Outcome ClassifyStatus(const pmi::Status& s) {
  switch (s.code()) {
    case pmi::StatusCode::kOk:
      return Outcome::kOk;
    case pmi::StatusCode::kResourceExhausted:
      return Outcome::kRefused;
    case pmi::StatusCode::kDeadlineExceeded:
      return Outcome::kDeadline;
    default:
      return Outcome::kError;
  }
}

void OutcomeCounts::Add(Outcome o) {
  ++attempted;
  switch (o) {
    case Outcome::kOk:
      break;
    case Outcome::kRefused:
      ++refused;
      break;
    case Outcome::kDeadline:
      ++deadline;
      break;
    case Outcome::kError:
      ++errors;
      break;
    case Outcome::kMismatch:
      ++mismatches;
      break;
  }
}

double OutcomeCounts::failed_frac() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed()) /
                              static_cast<double>(attempted);
}

OutcomeCounts& OutcomeCounts::operator+=(const OutcomeCounts& o) {
  attempted += o.attempted;
  refused += o.refused;
  deadline += o.deadline;
  errors += o.errors;
  mismatches += o.mismatches;
  return *this;
}

SelfTimes ComputeSelfTimes(const std::vector<Span>& spans) {
  SelfTimes st;
  st.self_us.resize(spans.size());
  std::vector<double> child_us(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_us[static_cast<size_t>(s.parent)] += s.dur_us();
  }
  double total_self = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    st.self_us[i] = std::max(0.0, spans[i].dur_us() - child_us[i]);
    total_self += st.self_us[i];
    if (spans[i].parent < 0) st.root_us = spans[i].dur_us();
  }
  st.residual_us = st.root_us - total_self;
  return st;
}

double SelfOf(const std::vector<Span>& spans, const SelfTimes& st,
              const char* name) {
  double sum = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (std::strcmp(spans[i].name, name) == 0) sum += st.self_us[i];
  }
  return sum;
}

}  // namespace perfbench
