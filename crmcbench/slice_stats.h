// Statistics the benchmark reports, kept free of crmc types so the
// self-test (slice_stats_test.cpp) can feed them synthetic data.
//
// On the host this benchmark was tuned on, each vCPU switches between a
// fast and a slow mode (contention from neighbours, ~1.5x slower, windows
// from a fraction of a second to a minute). Whole-run wall time therefore
// measures the mode mix as much as the program. Every rate is instead taken from many short
// slices of fixed work: the rate is the work of one slice divided by a low
// quantile of the slice times, which tracks the fast mode whenever the run
// saw any of it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace crmcbench {

// The q-quantile of `values` (0 <= q <= 1), linear interpolation between
// closest ranks (numpy's default). Throws on an empty input.
inline double Quantile(std::span<const double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile of no values");
  std::vector<double> v(values.begin(), values.end());
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// Quantile of the slice times every rate is read from. On the tuning host,
// over 25 s runs with address randomization off, the 1st percentile
// spread 3% (IQR over median) between runs of sweep_general_large and 2%
// on robust_probing_hardened; the 5th spread 7% and 2.5%, pushed up by
// slow windows. A run of every workload has over 1000 slices, so the 1st
// percentile still rests on at least 10 of them.
inline constexpr double kRateQuantile = 0.01;

// A slice counts as slow when it took this much longer than the fast-mode
// reference. The two modes differ by ~1.5x, so 1.25x splits them.
inline constexpr double kSlowSliceRatio = 1.25;

struct SliceRate {
  double rate = 0.0;          // work per second at the low quantile
  double quantile_s = 0.0;    // the low-quantile slice time
  double median_s = 0.0;      // median slice time
  double median_over_quantile = 0.0;
  // Share of slices slower than kSlowSliceRatio x the fast reference: the
  // low quantile itself, or `fast_ref_s` when that is faster (a reference
  // carried over from earlier runs, so a run spent wholly in the slow mode
  // still shows as slow).
  double slow_share = 0.0;
  std::int64_t slices = 0;
};

// Rate of `work_per_slice` units per slice, from the slice times in
// seconds. `fast_ref_s` <= 0 means no outside reference.
inline SliceRate RateFromSlices(std::span<const double> slice_s,
                                double work_per_slice,
                                double fast_ref_s = 0.0) {
  SliceRate r;
  r.slices = static_cast<std::int64_t>(slice_s.size());
  r.quantile_s = Quantile(slice_s, kRateQuantile);
  r.median_s = Quantile(slice_s, 0.5);
  r.rate = work_per_slice / r.quantile_s;
  r.median_over_quantile = r.median_s / r.quantile_s;
  const double ref = fast_ref_s > 0.0 ? std::min(fast_ref_s, r.quantile_s)
                                      : r.quantile_s;
  std::int64_t slow = 0;
  for (const double s : slice_s) slow += s > kSlowSliceRatio * ref;
  r.slow_share = static_cast<double>(slow) / static_cast<double>(r.slices);
  return r;
}

// Order-sensitive 64-bit digest of a sequence of integers (SplitMix64
// finalizer folded over the values). Two solved-round vectors digest equal
// iff they match element for element, barring a 2^-64 collision.
class Digest {
 public:
  void Add(std::uint64_t v) {
    std::uint64_t z = state_ ^ (v + 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    state_ = z ^ (z >> 31);
    ++count_;
  }
  std::uint64_t value() const { return state_ ^ count_; }

 private:
  std::uint64_t state_ = 0x6a09e667f3bcc908ULL;
  std::uint64_t count_ = 0;
};

// What the output check compares between two executions of one trial set.
struct TrialAggregate {
  std::uint64_t solved_digest = 0;  // Digest of the solved-round vector
  std::int64_t solved = 0;
  std::int64_t rounds_total = 0;
  std::int64_t confirmed = 0;

  bool operator==(const TrialAggregate&) const = default;
};

// Per-layer subtraction. From outside the program a cost is only seen as
// the difference of two timed runs, each read at the low quantile of
// interleaved slices so both sample the same host-mode mix.
//
// MarginalPerUnit is the cost of one more unit of work (a simulated
// round): slices of the full trials (`long_s`, `long_units` units per
// slice on average) minus slices of the same trials cut short (`short_s`,
// `short_units`), which pay the same per-trial fixed cost. Without the cut
// a config with few rounds per trial would carry its set-up in its
// per-round cost. A layer's extra cost per round is then the difference of
// two configs' marginals. Either may come out slightly negative when the
// cost is below the noise; it is reported as measured.
inline double MarginalPerUnit(std::span<const double> long_s,
                              double long_units,
                              std::span<const double> short_s,
                              double short_units) {
  if (!(long_units > short_units)) {
    throw std::invalid_argument("marginal cost over no extra units");
  }
  return (Quantile(long_s, kRateQuantile) -
          Quantile(short_s, kRateQuantile)) /
         (long_units - short_units);
}

// Share of `total_s` not spent in `part_s` (e.g. harness self time: the
// part of RunTrials outside the engine calls).
inline double SelfFraction(double total_s, double part_s) {
  if (total_s <= 0.0) throw std::invalid_argument("self share of no time");
  return (total_s - part_s) / total_s;
}

}  // namespace crmcbench
