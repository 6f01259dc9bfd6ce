// Self-test of the benchmark's statistics (slice_stats.h) on synthetic
// slice series: mixed fast/slow, mostly slow, and all slow. Exits nonzero
// on the first failed expectation. run.py runs it after every build.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "slice_stats.h"

namespace {

using namespace crmcbench;

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (ok) return;
  std::fprintf(stderr, "slice_stats_test:%d: expected %s\n", line, what);
  ++failures;
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b, double rel = 1e-9) {
  return std::fabs(a - b) <= rel * std::fmax(std::fabs(a), std::fabs(b));
}

constexpr double kFast = 0.014;  // seconds per slice in the fast mode
constexpr double kSlow = 0.021;  // 1.5x: the slow mode

// `n` slices, `fast` of them fast, with a small deterministic
// jitter (up to +2%) so no two slices are equal. Order is interleaved so
// fast and slow slices alternate in windows, as on the host.
std::vector<double> Series(int n, int fast, double fast_s = kFast,
                           double slow_s = kSlow) {
  std::vector<double> s;
  for (int i = 0; i < n; ++i) {
    const double jitter = 1.0 + 0.02 * ((i * 37) % 101) / 100.0;
    s.push_back(((i * 7919) % n < fast ? fast_s : slow_s) * jitter);
  }
  return s;
}

void TestQuantile() {
  const std::vector<double> v = {4.0, 1.0, 3.0, 2.0, 5.0};
  EXPECT(Quantile(v, 0.0) == 1.0);
  EXPECT(Quantile(v, 1.0) == 5.0);
  EXPECT(Quantile(v, 0.5) == 3.0);
  EXPECT(Near(Quantile(v, 0.1), 1.4));
  EXPECT(Near(Quantile(v, 0.05), 1.2));
  EXPECT(Quantile(std::vector<double>{7.0}, 0.1) == 7.0);
  bool threw = false;
  try {
    Quantile(std::vector<double>{}, 0.5);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  EXPECT(threw);
}

void TestRateMostlyFast() {
  const std::vector<double> s = Series(1000, 700);
  const SliceRate r = RateFromSlices(s, 100.0);
  EXPECT(r.slices == 1000);
  // The low quantile sits in the fast mode: within the jitter of 14 ms.
  EXPECT(r.quantile_s >= kFast && r.quantile_s <= kFast * 1.02);
  EXPECT(Near(r.rate, 100.0 / r.quantile_s));
  EXPECT(Near(r.slow_share, 0.3));
  EXPECT(r.median_over_quantile < 1.05);
}

void TestRateMostlySlow() {
  // Only 30% fast slices: the rate still reads the fast mode, and the
  // diagnostics show the run spent most of its time slow.
  const SliceRate r = RateFromSlices(Series(1000, 300), 100.0);
  EXPECT(r.quantile_s <= kFast * 1.02);
  EXPECT(Near(r.slow_share, 0.7));
  EXPECT(r.median_over_quantile > 1.4);
}

void TestRateAllSlow() {
  // No fast slice at all: the rate is the slow rate (nothing invents a
  // fast mode the run never saw). Without an outside reference the run's
  // own slices look uniform; a reference from an earlier fast run flags
  // every slice as slow.
  const std::vector<double> s = Series(500, 0);
  const SliceRate own = RateFromSlices(s, 100.0);
  EXPECT(own.quantile_s >= kSlow && own.quantile_s <= kSlow * 1.02);
  EXPECT(Near(own.rate, 100.0 / own.quantile_s));
  EXPECT(own.slow_share == 0.0);
  EXPECT(own.median_over_quantile < 1.02);
  const SliceRate ref = RateFromSlices(s, 100.0, kFast);
  EXPECT(ref.rate == own.rate);
  EXPECT(ref.slow_share == 1.0);
  // A reference slower than the run's own quantile is ignored.
  EXPECT(RateFromSlices(s, 100.0, 2 * kSlow).slow_share == 0.0);
}

void TestRateBelowQuantile() {
  // Fewer fast slices (0.5%) than the quantile: the rate falls to the slow
  // mode. This is the case long runs and CPU rotation exist to avoid.
  const SliceRate r = RateFromSlices(Series(1000, 5), 100.0);
  EXPECT(r.quantile_s >= kSlow);
}

void TestDigest() {
  const auto digest = [](const std::vector<std::uint64_t>& v) {
    Digest d;
    for (const std::uint64_t x : v) d.Add(x);
    return d.value();
  };
  EXPECT(digest({3, 9, 4}) == digest({3, 9, 4}));
  EXPECT(digest({3, 9, 4}) != digest({9, 3, 4}));  // order-sensitive
  EXPECT(digest({3, 9, 4}) != digest({3, 9, 5}));
  EXPECT(digest({}) != digest({0}));               // length-sensitive
  EXPECT(digest({0}) != digest({0, 0}));
  TrialAggregate a{digest({3, 9}), 2, 40, 2};
  TrialAggregate b = a;
  EXPECT(a == b);
  b.rounds_total = 41;
  EXPECT(!(a == b));
  b = a;
  b.confirmed = 1;
  EXPECT(!(a == b));
}

// Slice times of `trials` trials costing `fixed` each plus `rounds` rounds
// at `per_round`, `fast` of `n` slices in the fast mode (1.5x otherwise).
std::vector<double> TrialSlices(int n, int fast, double trials, double fixed,
                                double rounds, double per_round) {
  const double t = trials * fixed + rounds * per_round;
  return Series(n, fast, t, 1.5 * t);
}

void TestMarginalPerUnit() {
  // 64 trials of 2 us fixed cost. Bare: 6 rounds per trial at 100 ns;
  // with the layer, 130 ns. Cut short: 1 round per trial.
  const double n = 64;
  const auto marginal = [&](int fast, double per_round) {
    return MarginalPerUnit(TrialSlices(400, fast, n, 2e-6, 6 * n, per_round),
                           6 * n,
                           TrialSlices(400, fast, n, 2e-6, n, per_round), n);
  };
  // Mixed modes: the marginal reads the fast mode, within the 2% jitter,
  // and the fixed cost cancels (a plain per-round division would report
  // 100 + 2000/6 ns).
  EXPECT(marginal(200, 100e-9) > 99e-9 && marginal(200, 100e-9) < 103e-9);
  const double extra = marginal(200, 130e-9) - marginal(200, 100e-9);
  EXPECT(extra > 29e-9 && extra < 31.5e-9);
  // All slow on both sides: every cost scales with the mode (1.5x); the
  // subtraction does not vanish or change sign.
  const double slow_extra = marginal(0, 130e-9) - marginal(0, 100e-9);
  EXPECT(slow_extra > 44e-9 && slow_extra < 47e-9);
  // A layer that costs nothing reads as zero, within the jitter, even when
  // the two configs saw different mode mixes (60% vs 20% fast slices).
  const double zero = marginal(240, 100e-9) - marginal(80, 100e-9);
  EXPECT(std::fabs(zero) < 2e-9);
  bool threw = false;
  try {
    MarginalPerUnit(Series(10, 5), n, Series(10, 5), n);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  EXPECT(threw);
}

void TestSelfFraction() {
  // RunTrials 15 ms, engine 12 ms: 20% self time, in either mode.
  EXPECT(Near(SelfFraction(0.015, 0.012), 0.2));
  EXPECT(Near(SelfFraction(0.015 * 1.5, 0.012 * 1.5), 0.2));
  const std::vector<double> total = Series(300, 0, 0.015, 0.0225);
  const std::vector<double> engine = Series(300, 0, 0.012, 0.018);
  EXPECT(Near(SelfFraction(Quantile(total, kRateQuantile),
                           Quantile(engine, kRateQuantile)),
              0.2, 1e-6));
  bool threw = false;
  try {
    SelfFraction(0.0, 0.0);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  EXPECT(threw);
}

}  // namespace

int main() {
  TestQuantile();
  TestRateMostlyFast();
  TestRateMostlySlow();
  TestRateAllSlow();
  TestRateBelowQuantile();
  TestDigest();
  TestMarginalPerUnit();
  TestSelfFraction();
  if (failures) return EXIT_FAILURE;
  std::puts("slice_stats_test: ok");
  return EXIT_SUCCESS;
}
