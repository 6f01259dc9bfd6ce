// Summary statistics for experiment results.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace crmc::harness {

struct Summary {
  std::int64_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double median = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  std::int64_t min = 0;
  std::int64_t max = 0;
};

// Computes order statistics and moments of `values`. Empty input yields a
// zero Summary. Picks SummarizeByCount when the values span fewer distinct
// integers than there are values (solved rounds nearly always do), else
// SummarizeBySort; the two return bit-identical Summaries.
Summary Summarize(const std::vector<std::int64_t>& values);

// Sorts a copy, then sums and interpolates over it in ascending order.
Summary SummarizeBySort(const std::vector<std::int64_t>& values);

// Counts each value's multiplicity instead of sorting, then visits the
// values in ascending order, once per copy: the same floating-point
// operations in the same order as SummarizeBySort. The mean's sum is the
// exception: while n * max|v| < 2^53 that ascending double sum cannot
// round, so it is taken once in integers instead, to the same bits.
// Allocates max - min + 1 counters, so it only pays on a narrow value
// range.
Summary SummarizeByCount(const std::vector<std::int64_t>& values);

// Quantile by linear interpolation on the sorted copy; q in [0, 1].
double Quantile(std::vector<std::int64_t> values, double q);

// Quantile of a weighted empirical distribution: entry (value, weight)
// stands for `weight` copies of `value` (weights >= 0; zero-weight entries
// are ignored). Linear interpolation over the expanded multiset, so with
// all weights 1 this matches Quantile bit-for-bit — the traffic layer's
// latency percentiles come from a (latency -> count) histogram instead of
// a million-entry vector. Entries need not be sorted. A zero total weight
// yields 0.0.
double WeightedQuantile(
    std::vector<std::pair<std::int64_t, std::int64_t>> histogram, double q);

// Jain's fairness index (Σx)² / (n · Σx²) over nonnegative allocations:
// 1.0 when everyone gets the same, -> 1/n as one party hoards everything.
// Degenerate conventions (pinned by tests): empty input, a single
// allocation, and all-zero allocations all yield 1.0 — nothing is being
// shared unequally.
double JainFairness(const std::vector<double>& allocations);

// Least-squares fit of y ~ a*x + b; returns {a, b}. Used to check scaling
// shapes (e.g., rounds vs log n / log C should be linear with slope ~const).
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;
};
LinearFit FitLinear(const std::vector<double>& x, const std::vector<double>& y);

// Percentile-bootstrap confidence interval for the mean: resamples
// `values` with replacement `resamples` times (deterministically, from
// `seed`) and returns the [alpha/2, 1-alpha/2] band of resampled means.
struct ConfidenceInterval {
  double lower = 0.0;
  double upper = 0.0;
};
ConfidenceInterval BootstrapMeanCi(const std::vector<std::int64_t>& values,
                                   double alpha = 0.05,
                                   std::int32_t resamples = 1000,
                                   std::uint64_t seed = 0xb007);

// Fixed-width ASCII histogram of `values` ("12-14 | #### 37"-style rows),
// for distribution-shaped bench output. `bins` <= 0 picks ~sqrt(count).
std::string AsciiHistogram(const std::vector<std::int64_t>& values,
                           std::int32_t bins = 0,
                           std::int32_t max_bar_width = 50);

}  // namespace crmc::harness
