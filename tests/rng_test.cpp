// RNG correctness tests: Philox4x32-10 known-answer vectors (Random123),
// the counter-based draw contract, batch-sampler bit parity against the
// scalar RandomSource calls, and chi-square uniformity smoke tests for
// BatchUniformInt / BatchBernoulli under both generator kinds.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "support/rng.h"

namespace crmc::support {
namespace {

// ---------------------------------------------------------------------------
// Philox known-answer tests. Vectors from the Random123 distribution
// (kat_vectors, philox4x32-10): counter words c0..c3, key words k0..k1.
// These pin the exact round function — a transposed multiplier pair or a
// swapped output lane would pass every statistical test and silently break
// cross-implementation reproducibility.
// ---------------------------------------------------------------------------

void ExpectBlock(std::uint32_t c0, std::uint32_t c1, std::uint32_t c2,
                 std::uint32_t c3, std::uint32_t k0, std::uint32_t k1,
                 std::array<std::uint32_t, 4> want) {
  std::uint32_t got[4] = {};
  Philox4x32::Block(c0, c1, c2, c3, k0, k1, got);
  EXPECT_EQ(got[0], want[0]);
  EXPECT_EQ(got[1], want[1]);
  EXPECT_EQ(got[2], want[2]);
  EXPECT_EQ(got[3], want[3]);
}

TEST(Philox, Random123KnownAnswers) {
  ExpectBlock(0, 0, 0, 0, 0, 0, {0x6627e8d5u, 0xe169c58du, 0xbc57ac4cu,
                                 0x9b00dbd8u});
  ExpectBlock(0xffffffffu, 0xffffffffu, 0xffffffffu, 0xffffffffu, 0xffffffffu,
              0xffffffffu,
              {0x408f276du, 0x41c83b0eu, 0xa20bc7c6u, 0x6d5451fdu});
  ExpectBlock(0x243f6a88u, 0x85a308d3u, 0x13198a2eu, 0x03707344u, 0xa4093822u,
              0x299f31d0u,
              {0xd16cfe09u, 0x94fdccebu, 0x5001e420u, 0x24126ea1u});
}

TEST(Philox, BlockU64PacksWordPairs) {
  // BlockU64's contract: out[0] = w0 | (w1 << 32), out[1] = w2 | (w3 << 32)
  // with counter (block_lo, block_hi, stream_lo, stream_hi).
  const std::uint64_t key = 0x0123456789abcdefULL;
  const std::uint64_t stream = 0xfedcba9876543210ULL;
  const std::uint64_t block = 0x1122334455667788ULL;
  std::uint32_t words[4] = {};
  Philox4x32::Block(static_cast<std::uint32_t>(block),
                    static_cast<std::uint32_t>(block >> 32),
                    static_cast<std::uint32_t>(stream),
                    static_cast<std::uint32_t>(stream >> 32),
                    static_cast<std::uint32_t>(key),
                    static_cast<std::uint32_t>(key >> 32), words);
  std::uint64_t out[2] = {};
  Philox4x32::BlockU64(key, stream, block, out);
  EXPECT_EQ(out[0], words[0] | (static_cast<std::uint64_t>(words[1]) << 32));
  EXPECT_EQ(out[1], words[2] | (static_cast<std::uint64_t>(words[3]) << 32));
}

TEST(Philox, CounterBasedDrawsAreRandomAccess) {
  // Draw i of a philox stream is a pure function of (key, stream, i):
  // sequential NextU64 calls must reproduce BlockU64 halves, and
  // SkipPhiloxDraws must land on the same values a sequential reader sees.
  RandomSource seq = RandomSource::ForStream(0x5eedULL, 7, RngKind::kPhilox);
  std::vector<std::uint64_t> draws;
  for (int i = 0; i < 64; ++i) draws.push_back(seq.NextU64());

  for (int i = 0; i < 64; ++i) {
    std::uint64_t block[2] = {};
    Philox4x32::BlockU64(seq.philox_key(), seq.philox_stream(),
                         static_cast<std::uint64_t>(i) >> 1, block);
    EXPECT_EQ(draws[static_cast<std::size_t>(i)], block[i & 1]) << "draw " << i;
  }

  RandomSource skip = RandomSource::ForStream(0x5eedULL, 7, RngKind::kPhilox);
  skip.SkipPhiloxDraws(37);
  EXPECT_EQ(skip.NextU64(), draws[37]);
  EXPECT_EQ(skip.NextU64(), draws[38]);
}

TEST(Philox, MemoWordHoldsOddHalfUnderSkips) {
  // The fourth state word memoizes the odd half of the current block and
  // must be valid whenever the draw index is odd — after NextU64 and after
  // skips by odd and even counts alike.
  RandomSource seq = RandomSource::ForStream(0x77ULL, 3, RngKind::kPhilox);
  std::vector<std::uint64_t> draws;
  for (int i = 0; i < 256; ++i) draws.push_back(seq.NextU64());

  RandomSource rs = RandomSource::ForStream(0x77ULL, 3, RngKind::kPhilox);
  RandomSource script(0x5c1);
  std::size_t index = 0;
  while (index < 240) {
    if (script.UniformInt(0, 1) == 0) {
      ASSERT_EQ(rs.NextU64(), draws[index]) << "draw " << index;
      ++index;
    } else {
      const auto n = static_cast<std::size_t>(script.UniformInt(0, 5));
      rs.SkipPhiloxDraws(n);
      index += n;
    }
    ASSERT_EQ(rs.philox_draws(), index);
    if (index & 1) {
      std::uint64_t block[2] = {};
      Philox4x32::BlockU64(rs.philox_key(), rs.philox_stream(), index >> 1,
                           block);
      ASSERT_EQ(rs.words()[3], block[1]) << "index " << index;
    }
  }
}

TEST(Philox, ForStreamMatchesRawKeyFactory) {
  RandomSource a = RandomSource::ForStream(0xabcdefULL, 11, RngKind::kPhilox);
  RandomSource b = RandomSource::FromPhiloxKey(a.philox_key(), 11);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

// ---------------------------------------------------------------------------
// Batch samplers: bit parity with the scalar RandomSource calls under both
// generator kinds (the contract every SIMD kernel inherits).
// ---------------------------------------------------------------------------

TEST(BatchSamplers, UniformIntMatchesScalarBothKinds) {
  for (const RngKind kind : {RngKind::kXoshiro, RngKind::kPhilox}) {
    RandomSource a = RandomSource::ForStream(99, 3, kind);
    RandomSource b = RandomSource::ForStream(99, 3, kind);
    // An awkward range exercises Lemire rejection; 1..64 is the channel
    // pick; the huge range exercises the high-word path.
    const std::vector<std::pair<std::int64_t, std::int64_t>> ranges = {
        {0, 2}, {1, 64}, {-5, 37}, {0, (std::int64_t{1} << 62) + 12345}};
    for (const auto& [lo, hi] : ranges) {
      const BatchUniformInt dist(lo, hi);
      for (int i = 0; i < 256; ++i) {
        EXPECT_EQ(dist.Draw(a), b.UniformInt(lo, hi));
      }
    }
    EXPECT_EQ(a.NextU64(), b.NextU64());  // streams stayed in lockstep
  }
}

TEST(BatchSamplers, BernoulliMatchesScalarBothKinds) {
  for (const RngKind kind : {RngKind::kXoshiro, RngKind::kPhilox}) {
    RandomSource a = RandomSource::ForStream(123, 9, kind);
    RandomSource b = RandomSource::ForStream(123, 9, kind);
    for (const double p : {-0.25, 0.0, 1e-9, 0.5, 0.75, 1.0 - 1e-12, 1.0}) {
      const BatchBernoulli coin(p);
      for (int i = 0; i < 256; ++i) {
        EXPECT_EQ(coin.Draw(a), b.Bernoulli(p));
      }
    }
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(BatchSamplers, FixedOutcomesConsumeNoDraw) {
  RandomSource rs = RandomSource::ForStream(1, 1, RngKind::kPhilox);
  const std::uint64_t before = rs.philox_draws();
  EXPECT_FALSE(BatchBernoulli(0.0).Draw(rs));
  EXPECT_TRUE(BatchBernoulli(1.0).Draw(rs));
  EXPECT_FALSE(BatchBernoulli(-3.0).Draw(rs));
  EXPECT_TRUE(BatchBernoulli(2.0).Draw(rs));
  EXPECT_EQ(rs.philox_draws(), before);
}

// ---------------------------------------------------------------------------
// Chi-square uniformity smoke tests. Deterministic seeds, so these are
// regression tests against a distributional bug (biased threshold, dropped
// word, lane mixup), not flaky statistical assertions. Bounds are the
// p ~= 0.001 critical values with headroom.
// ---------------------------------------------------------------------------

TEST(ChiSquare, BatchUniformIntBothKinds) {
  constexpr int kBins = 64;
  constexpr int kDraws = 64 * 1000;
  for (const RngKind kind : {RngKind::kXoshiro, RngKind::kPhilox}) {
    RandomSource rs = RandomSource::ForStream(0xc41ULL, 5, kind);
    const BatchUniformInt dist(1, kBins);
    std::array<int, kBins> counts = {};
    for (int i = 0; i < kDraws; ++i) {
      const std::int64_t v = dist.Draw(rs);
      ASSERT_GE(v, 1);
      ASSERT_LE(v, kBins);
      ++counts[static_cast<std::size_t>(v - 1)];
    }
    const double expected = static_cast<double>(kDraws) / kBins;
    double chi2 = 0.0;
    for (const int c : counts) {
      const double d = c - expected;
      chi2 += d * d / expected;
    }
    // df = 63; the 0.999 quantile is ~106.
    EXPECT_LT(chi2, 120.0) << "kind=" << ToString(kind);
  }
}

TEST(ChiSquare, BatchBernoulliBothKinds) {
  constexpr int kDraws = 100000;
  for (const RngKind kind : {RngKind::kXoshiro, RngKind::kPhilox}) {
    for (const double p : {0.01, 0.3, 0.5, 0.97}) {
      RandomSource rs = RandomSource::ForStream(0xb00ULL, 2, kind);
      const BatchBernoulli coin(p);
      int successes = 0;
      for (int i = 0; i < kDraws; ++i) successes += coin.Draw(rs) ? 1 : 0;
      const double e1 = kDraws * p;
      const double e0 = kDraws * (1.0 - p);
      const double d1 = successes - e1;
      const double chi2 = d1 * d1 / e1 + d1 * d1 / e0;
      // df = 1; the 0.999 quantile is ~10.8.
      EXPECT_LT(chi2, 12.0) << "kind=" << ToString(kind) << " p=" << p;
    }
  }
}

// ---------------------------------------------------------------------------
// SampleWithoutReplacement tiny-k fast path: must be draw-for-draw and
// value-for-value identical to the general sparse Fisher-Yates loop.
// ---------------------------------------------------------------------------

// Reference transcription of the general loop for k = 2 (low[] starts as
// the identity and the displacement table holds at most one entry).
void ReferenceSampleTwo(std::int64_t population, RandomSource& rng,
                        std::int64_t out[2]) {
  std::int64_t low[2] = {0, 1};
  std::int64_t table_key = -1;
  std::int64_t table_val = 0;
  for (std::int64_t i = 0; i < 2; ++i) {
    const std::int64_t j = rng.UniformInt(i, population - 1);
    const std::int64_t value_i = low[i];
    std::int64_t value_j;
    if (j < 2) {
      value_j = low[j];
      low[j] = value_i;
    } else {
      value_j = table_key == j ? table_val : j;
      table_key = j;
      table_val = value_i;
    }
    out[i] = value_j + 1;
  }
}

TEST(SampleWithoutReplacement, TinyKMatchesGeneralLoop) {
  SampleScratch scratch;
  std::vector<std::int64_t> out;
  // population == k takes the identity shortcut before the tiny-k path, so
  // start at 3 to actually exercise the unrolled branch.
  for (const std::int64_t population : {3, 4, 5, 1000}) {
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
      RandomSource a = RandomSource::ForStream(seed, 0);
      RandomSource b = RandomSource::ForStream(seed, 0);
      SampleWithoutReplacement(population, 2, a, scratch, out);
      std::int64_t want[2] = {};
      ReferenceSampleTwo(population, b, want);
      ASSERT_EQ(out.size(), 2u);
      EXPECT_EQ(out[0], want[0]) << "pop=" << population << " seed=" << seed;
      EXPECT_EQ(out[1], want[1]) << "pop=" << population << " seed=" << seed;
      EXPECT_NE(out[0], out[1]);
      EXPECT_EQ(a.NextU64(), b.NextU64());  // same number of draws consumed
    }
  }
}

}  // namespace
}  // namespace crmc::support
