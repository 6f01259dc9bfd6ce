#include "harness/stats.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <optional>
#include <sstream>

#include "support/assert.h"
#include "support/rng.h"

namespace crmc::harness {

namespace {
double QuantileSorted(const std::vector<std::int64_t>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return static_cast<double>(sorted[0]);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(sorted[lo]) * (1.0 - frac) +
         static_cast<double>(sorted[hi]) * frac;
}

// What one pass over non-empty values finds: the extremes and, when it is
// exact, the sum.
struct Scan {
  std::int64_t min = 0;
  std::int64_t max = 0;
  // The sum as a double, set only when n * max|v| < 2^53. Then every
  // partial sum of the values, in any order, is an integer below 2^53 in
  // magnitude, so a running double sum never rounds and ends on exactly
  // this value: it can stand in for SummarizeBySort's ascending sum bit
  // for bit.
  std::optional<double> exact_sum;
};

Scan ScanValues(const std::vector<std::int64_t>& values) {
  Scan scan;
  scan.min = scan.max = values.front();
  // Summed modulo 2^64 and read only when exact, so an overflow is harmless.
  std::uint64_t sum = 0;
  for (const std::int64_t v : values) {
    scan.min = v < scan.min ? v : scan.min;
    scan.max = v > scan.max ? v : scan.max;
    sum += static_cast<std::uint64_t>(v);
  }
  const auto magnitude = [](std::int64_t v) {
    return v < 0 ? std::uint64_t{0} - static_cast<std::uint64_t>(v)
                 : static_cast<std::uint64_t>(v);
  };
  const std::uint64_t largest =
      std::max(magnitude(scan.min), magnitude(scan.max));
  constexpr std::uint64_t kExactBelow = std::uint64_t{1} << 53;
  if (largest <= (kExactBelow - 1) / values.size()) {
    scan.exact_sum = static_cast<double>(static_cast<std::int64_t>(sum));
  }
  return scan;
}

// SummarizeByCount on non-empty `values`, given their scan.
Summary SummarizeCounted(const std::vector<std::int64_t>& values,
                         const Scan& scan) {
  const std::int64_t min = scan.min;
  const std::int64_t max = scan.max;
  Summary s;
  s.min = min;
  s.max = max;
  // counts[v - min] = multiplicity of v. Offsets are computed unsigned so
  // an extreme (min, max) pair cannot overflow.
  const auto offset = [&](std::int64_t v) {
    return static_cast<std::size_t>(static_cast<std::uint64_t>(v) -
                                    static_cast<std::uint64_t>(min));
  };
  std::vector<std::int64_t> counts(offset(max) + 1, 0);
  for (const std::int64_t v : values) ++counts[offset(v)];
  // Each loop below adds the values in ascending order, one addition per
  // copy, exactly as SummarizeBySort walks its sorted copy — so the sums
  // round identically. The mean's loop runs only when the sum could round
  // (Scan::exact_sum).
  const auto value_at = [&](std::size_t i) {
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(min) + i);
  };
  s.count = static_cast<std::int64_t>(values.size());
  double sum = 0.0;
  if (scan.exact_sum) {
    sum = *scan.exact_sum;
  } else {
    for (std::size_t i = 0; i < counts.size(); ++i) {
      const auto v = static_cast<double>(value_at(i));
      for (std::int64_t c = counts[i]; c > 0; --c) sum += v;
    }
  }
  s.mean = sum / static_cast<double>(values.size());
  double ss = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double d = static_cast<double>(value_at(i)) - s.mean;
    for (std::int64_t c = counts[i]; c > 0; --c) ss += d * d;
  }
  s.stddev = values.size() > 1
                 ? std::sqrt(ss / static_cast<double>(values.size() - 1))
                 : 0.0;
  // The value at rank k of the sorted order, found from the counts.
  const auto at_rank = [&](std::int64_t k) {
    std::int64_t below = 0;
    for (std::size_t i = 0;; ++i) {
      below += counts[i];
      if (k < below) return static_cast<double>(value_at(i));
    }
  };
  // QuantileSorted's interpolation, on ranks instead of a sorted copy.
  const auto quantile = [&](double q) {
    if (s.count == 1) return static_cast<double>(s.min);
    const double pos = q * static_cast<double>(s.count - 1);
    const auto lo = static_cast<std::int64_t>(pos);
    const std::int64_t hi = std::min(lo + 1, s.count - 1);
    const double frac = pos - static_cast<double>(lo);
    return at_rank(lo) * (1.0 - frac) + at_rank(hi) * frac;
  };
  s.median = quantile(0.5);
  s.p95 = quantile(0.95);
  s.p99 = quantile(0.99);
  return s;
}

}  // namespace

Summary SummarizeBySort(const std::vector<std::int64_t>& values) {
  Summary s;
  if (values.empty()) return s;
  std::vector<std::int64_t> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  s.count = static_cast<std::int64_t>(sorted.size());
  s.min = sorted.front();
  s.max = sorted.back();
  double sum = 0.0;
  for (const std::int64_t v : sorted) sum += static_cast<double>(v);
  s.mean = sum / static_cast<double>(sorted.size());
  double ss = 0.0;
  for (const std::int64_t v : sorted) {
    const double d = static_cast<double>(v) - s.mean;
    ss += d * d;
  }
  s.stddev = sorted.size() > 1
                 ? std::sqrt(ss / static_cast<double>(sorted.size() - 1))
                 : 0.0;
  s.median = QuantileSorted(sorted, 0.5);
  s.p95 = QuantileSorted(sorted, 0.95);
  s.p99 = QuantileSorted(sorted, 0.99);
  return s;
}

Summary SummarizeByCount(const std::vector<std::int64_t>& values) {
  if (values.empty()) return Summary{};
  return SummarizeCounted(values, ScanValues(values));
}

Summary Summarize(const std::vector<std::int64_t>& values) {
  if (values.empty()) return Summary{};
  const Scan scan = ScanValues(values);
  // Count when the counts array is no longer than a sorted copy would be.
  const std::uint64_t span = static_cast<std::uint64_t>(scan.max) -
                             static_cast<std::uint64_t>(scan.min);
  return span < values.size() ? SummarizeCounted(values, scan)
                              : SummarizeBySort(values);
}

double Quantile(std::vector<std::int64_t> values, double q) {
  CRMC_REQUIRE(q >= 0.0 && q <= 1.0);
  std::sort(values.begin(), values.end());
  return QuantileSorted(values, q);
}

double WeightedQuantile(
    std::vector<std::pair<std::int64_t, std::int64_t>> histogram, double q) {
  CRMC_REQUIRE(q >= 0.0 && q <= 1.0);
  for (const auto& [value, weight] : histogram) {
    CRMC_REQUIRE_MSG(weight >= 0, "negative weight " << weight
                                                     << " for value "
                                                     << value);
  }
  std::erase_if(histogram, [](const auto& e) { return e.second == 0; });
  if (histogram.empty()) return 0.0;
  std::sort(histogram.begin(), histogram.end());
  std::int64_t total = 0;
  for (const auto& [value, weight] : histogram) total += weight;
  if (total == 1) return static_cast<double>(histogram.front().first);
  // Index into the expanded sorted multiset, exactly as QuantileSorted
  // indexes the materialized vector.
  const double pos = q * static_cast<double>(total - 1);
  const auto lo = static_cast<std::int64_t>(pos);
  const std::int64_t hi = std::min(lo + 1, total - 1);
  const double frac = pos - static_cast<double>(lo);
  double v_lo = 0.0;
  double v_hi = 0.0;
  std::int64_t cum = 0;
  for (const auto& [value, weight] : histogram) {
    // This entry covers expanded indices [cum, cum + weight).
    if (lo >= cum && lo < cum + weight) v_lo = static_cast<double>(value);
    if (hi >= cum && hi < cum + weight) {
      v_hi = static_cast<double>(value);
      break;
    }
    cum += weight;
  }
  return v_lo * (1.0 - frac) + v_hi * frac;
}

double JainFairness(const std::vector<double>& allocations) {
  if (allocations.size() <= 1) return 1.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double x : allocations) {
    CRMC_REQUIRE_MSG(x >= 0.0, "negative allocation " << x);
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) return 1.0;  // all-zero: nobody is being shortchanged
  return sum * sum /
         (static_cast<double>(allocations.size()) * sum_sq);
}

LinearFit FitLinear(const std::vector<double>& x,
                    const std::vector<double>& y) {
  CRMC_REQUIRE(x.size() == y.size());
  LinearFit fit;
  const auto n = static_cast<double>(x.size());
  if (x.size() < 2) return fit;
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
    syy += y[i] * y[i];
  }
  const double denom = n * sxx - sx * sx;
  if (denom == 0.0) return fit;
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;
  const double ss_tot = syy - sy * sy / n;
  double ss_res = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double e = y[i] - (fit.slope * x[i] + fit.intercept);
    ss_res += e * e;
  }
  fit.r_squared = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 1.0;
  return fit;
}

ConfidenceInterval BootstrapMeanCi(const std::vector<std::int64_t>& values,
                                   double alpha, std::int32_t resamples,
                                   std::uint64_t seed) {
  CRMC_REQUIRE(alpha > 0.0 && alpha < 1.0);
  CRMC_REQUIRE(resamples >= 10);
  ConfidenceInterval ci;
  if (values.empty()) return ci;
  support::RandomSource rng(seed);
  const auto n = static_cast<std::int64_t>(values.size());
  std::vector<double> means;
  means.reserve(static_cast<std::size_t>(resamples));
  for (std::int32_t r = 0; r < resamples; ++r) {
    double sum = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
      sum += static_cast<double>(
          values[static_cast<std::size_t>(rng.UniformInt(0, n - 1))]);
    }
    means.push_back(sum / static_cast<double>(n));
  }
  std::sort(means.begin(), means.end());
  auto at = [&](double q) {
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(means.size() - 1));
    return means[idx];
  };
  ci.lower = at(alpha / 2.0);
  ci.upper = at(1.0 - alpha / 2.0);
  return ci;
}

std::string AsciiHistogram(const std::vector<std::int64_t>& values,
                           std::int32_t bins, std::int32_t max_bar_width) {
  CRMC_REQUIRE(max_bar_width >= 1);
  if (values.empty()) return "(no data)\n";
  const auto [min_it, max_it] =
      std::minmax_element(values.begin(), values.end());
  const std::int64_t lo = *min_it;
  const std::int64_t hi = *max_it;
  if (bins <= 0) {
    bins = static_cast<std::int32_t>(
        std::max(1.0, std::round(std::sqrt(
                          static_cast<double>(values.size())))));
    bins = std::min(bins, 20);
  }
  const std::int64_t span = hi - lo + 1;
  bins = static_cast<std::int32_t>(
      std::min<std::int64_t>(bins, span));
  const std::int64_t width = (span + bins - 1) / bins;

  std::vector<std::int64_t> counts(static_cast<std::size_t>(bins), 0);
  for (const std::int64_t v : values) {
    auto b = static_cast<std::size_t>((v - lo) / width);
    if (b >= counts.size()) b = counts.size() - 1;
    ++counts[b];
  }
  const std::int64_t peak = *std::max_element(counts.begin(), counts.end());

  std::ostringstream os;
  for (std::int32_t b = 0; b < bins; ++b) {
    const std::int64_t from = lo + b * width;
    const std::int64_t to = std::min<std::int64_t>(from + width - 1, hi);
    const std::int64_t count = counts[static_cast<std::size_t>(b)];
    const auto bar = static_cast<std::int32_t>(
        peak == 0 ? 0 : (count * max_bar_width + peak - 1) / peak);
    os << std::setw(8) << from;
    if (to != from) {
      os << "-" << std::left << std::setw(8) << to << std::right;
    } else {
      os << std::string(9, ' ');
    }
    os << " |" << std::string(static_cast<std::size_t>(bar), '#')
       << std::string(static_cast<std::size_t>(max_bar_width - bar), ' ')
       << ' ' << count << '\n';
  }
  return os.str();
}

}  // namespace crmc::harness
