// Unit tests for src/support: bit math and RNG.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <set>
#include <utility>
#include <vector>

#include "support/assert.h"
#include "support/bits.h"
#include "support/rng.h"
#include "support/small_vector.h"

// gcov writes its counters at exit, which abort skips. In a coverage
// build this flushes them from a child about to abort, so a check's
// failure path counts as run; in every other build it is null.
extern "C" void __gcov_dump() __attribute__((weak));

namespace crmc::support {
namespace {

void FlushCoverageThenAbort(int /*signal*/) {
  if (__gcov_dump != nullptr) __gcov_dump();
  std::signal(SIGABRT, SIG_DFL);
  std::raise(SIGABRT);
}

// A failed CRMC_CHECK prints the expression and its location, then aborts.
TEST(CheckDeathTest, FailedCheckReportsAndAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const int three = 3;
  EXPECT_EXIT(
      {
        std::signal(SIGABRT, FlushCoverageThenAbort);
        CRMC_CHECK_MSG(three < 2, "three is " << three);
      },
      ::testing::KilledBySignal(SIGABRT),
      "CRMC_CHECK failed: three < 2 at .*support_test.cpp:[0-9]+ three is 3");
}

TEST(Bits, FloorLog2) {
  EXPECT_EQ(FloorLog2(1), 0);
  EXPECT_EQ(FloorLog2(2), 1);
  EXPECT_EQ(FloorLog2(3), 1);
  EXPECT_EQ(FloorLog2(4), 2);
  EXPECT_EQ(FloorLog2(1023), 9);
  EXPECT_EQ(FloorLog2(1024), 10);
  EXPECT_EQ(FloorLog2(std::uint64_t{1} << 63), 63);
}

TEST(Bits, CeilLog2) {
  EXPECT_EQ(CeilLog2(1), 0);
  EXPECT_EQ(CeilLog2(2), 1);
  EXPECT_EQ(CeilLog2(3), 2);
  EXPECT_EQ(CeilLog2(4), 2);
  EXPECT_EQ(CeilLog2(5), 3);
  EXPECT_EQ(CeilLog2(1025), 11);
}

TEST(Bits, PowerOfTwoHelpers) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(64));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(48));
  EXPECT_EQ(FloorPow2(1), 1u);
  EXPECT_EQ(FloorPow2(63), 32u);
  EXPECT_EQ(FloorPow2(64), 64u);
  EXPECT_EQ(CeilPow2(63), 64u);
  EXPECT_EQ(CeilPow2(64), 64u);
  EXPECT_EQ(CeilPow2(65), 128u);
}

TEST(Bits, CeilDiv) {
  EXPECT_EQ(CeilDiv(0, 3), 0);
  EXPECT_EQ(CeilDiv(1, 3), 1);
  EXPECT_EQ(CeilDiv(3, 3), 1);
  EXPECT_EQ(CeilDiv(4, 3), 2);
  EXPECT_EQ(CeilDiv(9, 3), 3);
}

TEST(Bits, CeilLgLg) {
  // lg lg 4 = 1, lg lg 16 = 2, lg lg 256 = 3, lg lg 65536 = 4.
  EXPECT_EQ(CeilLgLg(2), 1);  // clamped to >= 1
  EXPECT_EQ(CeilLgLg(4), 1);
  EXPECT_EQ(CeilLgLg(16), 2);
  EXPECT_EQ(CeilLgLg(17), 3);  // ceil(lg ceil(lg 17)) = ceil(lg 5) = 3
  EXPECT_EQ(CeilLgLg(256), 3);
  EXPECT_EQ(CeilLgLg(65536), 4);
  EXPECT_EQ(CeilLgLg(std::uint64_t{1} << 32), 5);
}

TEST(Rng, Deterministic) {
  RandomSource a(42);
  RandomSource b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, StreamsDiffer) {
  RandomSource a = RandomSource::ForStream(7, 1);
  RandomSource b = RandomSource::ForStream(7, 2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, UniformIntRange) {
  RandomSource rng(1);
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t v = rng.UniformInt(3, 17);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 17);
  }
  // Degenerate range.
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(5, 5), 5);
}

TEST(Rng, UniformIntIsRoughlyUniform) {
  RandomSource rng(99);
  constexpr int kBuckets = 16;
  constexpr int kSamples = 160000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kSamples; ++i) {
    ++counts[static_cast<std::size_t>(rng.UniformInt(0, kBuckets - 1))];
  }
  // Chi-squared with 15 dof; 99.9th percentile ~ 37.7.
  const double expected = static_cast<double>(kSamples) / kBuckets;
  double chi2 = 0.0;
  for (const int c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 45.0) << "uniformity chi-squared too large";
}

TEST(Rng, BernoulliMatchesProbability) {
  RandomSource rng(123);
  constexpr int kSamples = 200000;
  int hits = 0;
  for (int i = 0; i < kSamples; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  const double rate = static_cast<double>(hits) / kSamples;
  EXPECT_NEAR(rate, 0.3, 0.01);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(Rng, UniformDoubleInUnitInterval) {
  RandomSource rng(5);
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double v = rng.UniformDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Sampling, WithoutReplacementIsDistinctAndInRange) {
  RandomSource rng(77);
  const auto sample = SampleWithoutReplacement(1000000, 500, rng);
  ASSERT_EQ(sample.size(), 500u);
  std::set<std::int64_t> distinct(sample.begin(), sample.end());
  EXPECT_EQ(distinct.size(), 500u);
  for (const std::int64_t v : sample) {
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 1000000);
  }
}

TEST(Sampling, FullPopulationIsPermutation) {
  RandomSource rng(3);
  const auto sample = SampleWithoutReplacement(64, 64, rng);
  std::set<std::int64_t> distinct(sample.begin(), sample.end());
  EXPECT_EQ(distinct.size(), 64u);
  EXPECT_EQ(*distinct.begin(), 1);
  EXPECT_EQ(*distinct.rbegin(), 64);
}

TEST(Sampling, MarginalsAreUniform) {
  // Each value of [1, 20] should appear in a 5-element sample with
  // probability 1/4.
  RandomSource rng(11);
  std::vector<int> counts(21, 0);
  constexpr int kTrials = 40000;
  for (int t = 0; t < kTrials; ++t) {
    for (const std::int64_t v : SampleWithoutReplacement(20, 5, rng)) {
      ++counts[static_cast<std::size_t>(v)];
    }
  }
  for (int v = 1; v <= 20; ++v) {
    const double rate = static_cast<double>(counts[v]) / kTrials;
    EXPECT_NEAR(rate, 0.25, 0.02) << "value " << v;
  }
}

TEST(Sampling, RejectsBadArguments) {
  RandomSource rng(1);
  EXPECT_THROW(SampleWithoutReplacement(5, 6, rng), std::invalid_argument);
  EXPECT_THROW(SampleWithoutReplacement(5, -1, rng), std::invalid_argument);
}

TEST(Sampling, FullPopulationShortcutIsIdentityAndDrawsNothing) {
  RandomSource rng(42);
  RandomSource twin(42);
  const std::vector<std::int64_t> ids =
      SampleWithoutReplacement(128, 128, rng);
  ASSERT_EQ(ids.size(), 128u);
  for (std::int64_t i = 0; i < 128; ++i) {
    EXPECT_EQ(ids[static_cast<std::size_t>(i)], i + 1);
  }
  // The shortcut consumed no randomness: the stream is untouched.
  EXPECT_EQ(rng.NextU64(), twin.NextU64());
}

// The batch samplers must consume the generator exactly like their scalar
// twins and return identical results — the BatchEngine parity guarantee
// bottoms out here.
TEST(Rng, BatchUniformIntMatchesScalar) {
  const std::pair<std::int64_t, std::int64_t> ranges[] = {
      {1, 64}, {1, 7}, {0, 0}, {-5, 5}, {1, 1000000007}};
  for (const auto& [lo, hi] : ranges) {
    RandomSource scalar(123);
    RandomSource batch(123);
    const BatchUniformInt draw(lo, hi);
    for (int i = 0; i < 20000; ++i) {
      ASSERT_EQ(scalar.UniformInt(lo, hi), draw.Draw(batch))
          << "range [" << lo << ", " << hi << "] draw " << i;
    }
  }
}

TEST(Rng, BatchBernoulliMatchesScalar) {
  for (const double p : {0.5, 1e-3, 0.999, 1.0 / 3.0, 0.25}) {
    RandomSource scalar(9);
    RandomSource batch(9);
    const BatchBernoulli draw(p);
    for (int i = 0; i < 20000; ++i) {
      ASSERT_EQ(scalar.Bernoulli(p), draw.Draw(batch))
          << "p=" << p << " draw " << i;
    }
  }
}

TEST(Rng, BatchBernoulliDegenerateConsumesNoDraw) {
  RandomSource used(5);
  RandomSource twin(5);
  const BatchBernoulli never(0.0);
  const BatchBernoulli always(1.0);
  EXPECT_FALSE(never.Draw(used));
  EXPECT_TRUE(always.Draw(used));
  // Matches RandomSource::Bernoulli, which early-outs without a draw.
  EXPECT_EQ(used.NextU64(), twin.NextU64());
}

TEST(SmallVector, InlineThenSpill) {
  SmallVector<std::int64_t, 2> v;
  EXPECT_TRUE(v.empty());
  v.push_back(7);
  v.push_back(8);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 7);
  EXPECT_EQ(v.back(), 8);
  for (std::int64_t i = 0; i < 100; ++i) v.push_back(i);  // heap spill
  EXPECT_EQ(v.size(), 102u);
  EXPECT_EQ(v[1], 8);
  EXPECT_EQ(v[2], 0);
  EXPECT_EQ(v.back(), 99);
}

TEST(SmallVector, CopyMoveEquality) {
  SmallVector<std::int64_t, 2> a;
  a.push_back(1);
  SmallVector<std::int64_t, 2> b = a;  // inline copy
  EXPECT_TRUE(a == b);
  b.push_back(2);
  EXPECT_FALSE(a == b);

  for (std::int64_t i = 0; i < 50; ++i) a.push_back(i);  // spilled source
  SmallVector<std::int64_t, 2> c = a;                    // heap copy
  EXPECT_TRUE(a == c);
  SmallVector<std::int64_t, 2> d = std::move(a);  // heap steal
  EXPECT_TRUE(c == d);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): spec'd reset
  a = d;                   // reassign after move-out
  EXPECT_TRUE(a == c);
  d = std::move(b);  // inline move over a heap target
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d[1], 2);
}

}  // namespace
}  // namespace crmc::support
