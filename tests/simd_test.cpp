// Scalar-vs-vector bit-exactness for the simd kernel layer: every kernel
// must produce identical outputs AND leave identical per-lane RNG state
// under every backend available on this binary+CPU. Backends are forced
// via simd::SetBackend over simd::AllBackends(), so on an AVX-512 host a
// single run covers scalar, SSE4.2, AVX2 and AVX-512.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "support/rng.h"

namespace crmc::simd {
namespace {

using support::BatchBernoulli;
using support::BatchUniformInt;
using support::RandomSource;
using support::RngKind;

std::vector<Backend> AvailableBackends() {
  std::vector<Backend> out;
  for (const Backend b : AllBackends()) {
    if (BackendAvailable(b)) out.push_back(b);
  }
  return out;
}

// Restores the prior dispatch choice on scope exit so test order can't leak
// a forced backend into other suites in the same binary.
class ScopedBackend {
 public:
  explicit ScopedBackend(Backend b) : prior_(ActiveBackend()) {
    EXPECT_TRUE(SetBackend(b));
  }
  ~ScopedBackend() { SetBackend(prior_); }

 private:
  Backend prior_;
};

std::vector<RandomSource> MakeLanes(std::size_t n, RngKind kind,
                                    std::uint64_t master = 0x5eedULL) {
  std::vector<RandomSource> rng(n);
  SeedStreams(master, 1, kind, rng);
  // Stagger the draw counters so kernels are exercised at odd block
  // offsets, not just counter zero.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < i % 5; ++d) rng[i].NextU64();
  }
  return rng;
}

void ExpectSameLaneState(std::vector<RandomSource>& a,
                         std::vector<RandomSource>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Drawing once from each compares the full generator state for both
    // kinds (counter + key for philox, state words for xoshiro).
    EXPECT_EQ(a[i].NextU64(), b[i].NextU64()) << "lane " << i;
  }
}

// Whole-record equality: kind plus all four state words (the philox memo
// word included — every advancing path writes it identically).
void ExpectSameRecord(const RandomSource& got, const RandomSource& want,
                      const std::string& where) {
  EXPECT_EQ(got.kind(), want.kind()) << where;
  for (int w = 0; w < 4; ++w) {
    EXPECT_EQ(got.words()[w], want.words()[w]) << where << " word " << w;
  }
}

TEST(SeedStreams, MatchesForStreamEveryBackendBothKinds) {
  // 133: odd size, exercises the vector tail; 0-9 straddle one 8-stream
  // step. The records are pre-filled with the other kind's garbage so a
  // kernel that skips a word or the kind byte shows.
  std::vector<std::size_t> sizes = {133};
  for (std::size_t n = 0; n <= 9; ++n) sizes.push_back(n);
  for (const RngKind kind : {RngKind::kXoshiro, RngKind::kPhilox}) {
    const RngKind other =
        kind == RngKind::kXoshiro ? RngKind::kPhilox : RngKind::kXoshiro;
    for (const std::size_t n : sizes) {
      for (const Backend backend : AvailableBackends()) {
        ScopedBackend forced(backend);
        std::vector<RandomSource> got(n);
        for (std::size_t i = 0; i < n; ++i) {
          got[i] = RandomSource::ForStream(99, i, other);
          got[i].NextU64();
        }
        SeedStreams(0xfeedface12345678ULL, 17, kind, got);
        for (std::size_t i = 0; i < n; ++i) {
          RandomSource want = RandomSource::ForStream(
              0xfeedface12345678ULL, 17 + static_cast<std::uint64_t>(i), kind);
          const std::string where =
              std::string(ToString(backend)) +
              " kind=" + support::ToString(kind) + " n=" + std::to_string(n) +
              " lane=" + std::to_string(i);
          ExpectSameRecord(got[i], want, where);
          for (int d = 0; d < 8; ++d) {
            EXPECT_EQ(got[i].NextU64(), want.NextU64())
                << where << " draw=" << d;
          }
        }
      }
    }
  }
}

TEST(CoinMask, BitExactAcrossBackends) {
  const std::size_t kLanes = 519;
  std::vector<std::int32_t> alive(kLanes);
  std::iota(alive.begin(), alive.end(), 0);
  for (const RngKind kind : {RngKind::kXoshiro, RngKind::kPhilox}) {
    for (const double p : {0.0, 0.37, 0.5, 1.0}) {
      const BatchBernoulli coin(p);
      // Scalar reference: the exact Draw() loop.
      std::vector<RandomSource> ref_rng = MakeLanes(kLanes, kind);
      std::vector<std::uint8_t> ref_mask(kLanes);
      std::int64_t ref_successes = 0;
      for (std::size_t i = 0; i < kLanes; ++i) {
        ref_mask[i] = coin.Draw(ref_rng[i]) ? 1 : 0;
        ref_successes += ref_mask[i];
      }
      for (const Backend backend : AvailableBackends()) {
        ScopedBackend forced(backend);
        std::vector<RandomSource> rng = MakeLanes(kLanes, kind);
        std::vector<std::uint8_t> mask(kLanes, 0xcc);
        const std::int64_t successes = CoinMask(coin, rng, alive, mask);
        EXPECT_EQ(successes, ref_successes)
            << ToString(backend) << " kind=" << support::ToString(kind)
            << " p=" << p;
        EXPECT_EQ(mask, ref_mask) << ToString(backend) << " p=" << p;
        ExpectSameLaneState(rng, ref_rng);
        // ref_rng advanced one draw in ExpectSameLaneState; rebuild it for
        // the next backend by replaying the reference.
        ref_rng = MakeLanes(kLanes, kind);
        for (std::size_t i = 0; i < kLanes; ++i) coin.Draw(ref_rng[i]);
      }
    }
  }
}

TEST(UniformFill, BitExactAcrossBackends) {
  const std::size_t kLanes = 519;
  std::vector<std::int32_t> alive(kLanes);
  std::iota(alive.begin(), alive.end(), 0);
  for (const RngKind kind : {RngKind::kXoshiro, RngKind::kPhilox}) {
    // 1..64 is the power-of-two channel pick; 1..37 forces Lemire
    // rejection on some lanes, which is where a vector epilogue bug hides.
    const std::vector<std::pair<std::int64_t, std::int64_t>> ranges = {
        {1, 64}, {1, 37}, {0, 2}};
    for (const auto& [lo, hi] : ranges) {
      const BatchUniformInt dist(lo, hi);
      std::vector<RandomSource> ref_rng = MakeLanes(kLanes, kind);
      std::vector<std::int32_t> ref_out(kLanes);
      for (std::size_t i = 0; i < kLanes; ++i) {
        ref_out[i] = static_cast<std::int32_t>(dist.Draw(ref_rng[i]));
      }
      for (const Backend backend : AvailableBackends()) {
        ScopedBackend forced(backend);
        std::vector<RandomSource> rng = MakeLanes(kLanes, kind);
        std::vector<std::int32_t> out(kLanes, -1);
        UniformFill(dist, rng, alive, out);
        EXPECT_EQ(out, ref_out)
            << ToString(backend) << " kind=" << support::ToString(kind)
            << " range=[" << lo << "," << hi << "]";
        ExpectSameLaneState(rng, ref_rng);
        ref_rng = MakeLanes(kLanes, kind);
        for (std::size_t i = 0; i < kLanes; ++i) dist.Draw(ref_rng[i]);
      }
    }
  }
}

TEST(CoinMask, SparseAliveSubset) {
  // alive need not be the identity: lanes are a strided subset and the
  // untouched lanes' RNG state must not move.
  const std::size_t kLanes = 257;
  std::vector<std::int32_t> alive;
  for (std::size_t i = 0; i < kLanes; i += 3) {
    alive.push_back(static_cast<std::int32_t>(i));
  }
  const BatchBernoulli coin(0.43);
  for (const RngKind kind : {RngKind::kXoshiro, RngKind::kPhilox}) {
    std::vector<RandomSource> ref_rng = MakeLanes(kLanes, kind);
    std::vector<std::uint8_t> ref_mask(alive.size());
    for (std::size_t k = 0; k < alive.size(); ++k) {
      ref_mask[k] =
          coin.Draw(ref_rng[static_cast<std::size_t>(alive[k])]) ? 1 : 0;
    }
    for (const Backend backend : AvailableBackends()) {
      ScopedBackend forced(backend);
      std::vector<RandomSource> rng = MakeLanes(kLanes, kind);
      std::vector<std::uint8_t> mask(alive.size());
      CoinMask(coin, rng, alive, mask);
      const std::string where = std::string(ToString(backend)) +
                                " kind=" + support::ToString(kind);
      EXPECT_EQ(mask, ref_mask) << where;
      for (std::size_t i = 0; i < kLanes; ++i) {
        ExpectSameRecord(rng[i], ref_rng[i],
                         where + " lane " + std::to_string(i));
      }
    }
  }
}

TEST(UniformFill, SparseAliveSubset) {
  const std::size_t kLanes = 257;
  std::vector<std::int32_t> alive;
  for (std::size_t i = 0; i < kLanes; i += 3) {
    alive.push_back(static_cast<std::int32_t>(i));
  }
  const BatchUniformInt dist(1, 37);
  for (const RngKind kind : {RngKind::kXoshiro, RngKind::kPhilox}) {
    std::vector<RandomSource> ref_rng = MakeLanes(kLanes, kind);
    std::vector<std::int32_t> ref_out(alive.size());
    for (std::size_t k = 0; k < alive.size(); ++k) {
      ref_out[k] = static_cast<std::int32_t>(
          dist.Draw(ref_rng[static_cast<std::size_t>(alive[k])]));
    }
    for (const Backend backend : AvailableBackends()) {
      ScopedBackend forced(backend);
      std::vector<RandomSource> rng = MakeLanes(kLanes, kind);
      std::vector<std::int32_t> out(alive.size(), -1);
      UniformFill(dist, rng, alive, out);
      const std::string where = std::string(ToString(backend)) +
                                " kind=" + support::ToString(kind);
      EXPECT_EQ(out, ref_out) << where;
      for (std::size_t i = 0; i < kLanes; ++i) {
        ExpectSameRecord(rng[i], ref_rng[i],
                         where + " lane " + std::to_string(i));
      }
    }
  }
}

// Non-ascending slot lists over a pool twice their size. "lane-major" walks
// a two-lane [lane * width + node] plane node by node (the order a
// cross-trial slot list interleaves lanes in); "shuffled" is a random
// subset in random order. Sizes 0-9 straddle the 4- and 8-wide vector
// steps, 519 and 4096 hit long bodies with every tail length.
std::vector<std::int32_t> NonAscendingAlive(std::size_t n, bool shuffled,
                                            std::size_t pool) {
  std::vector<std::int32_t> alive;
  if (shuffled) {
    std::vector<std::int32_t> all(pool);
    std::iota(all.begin(), all.end(), 0);
    RandomSource pick(0xa11 + n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto j = static_cast<std::size_t>(pick.UniformInt(
          static_cast<std::int64_t>(i), static_cast<std::int64_t>(pool) - 1));
      std::swap(all[i], all[j]);
      alive.push_back(all[i]);
    }
    return alive;
  }
  const std::size_t width = (pool + 1) / 2;
  for (std::size_t node = 0; node < width && alive.size() < n; ++node) {
    for (std::size_t lane = 0; lane < 2 && alive.size() < n; ++lane) {
      const std::size_t slot = lane * width + node;
      if (slot < pool) alive.push_back(static_cast<std::int32_t>(slot));
    }
  }
  return alive;
}

TEST(DrawKernels, NonAscendingAliveListsEverySize) {
  std::vector<std::size_t> sizes = {519, 4096};
  for (std::size_t n = 0; n <= 9; ++n) sizes.push_back(n);
  const BatchBernoulli coin(0.37);
  const BatchUniformInt dist(1, 37);  // rejects on some draws
  for (const RngKind kind : {RngKind::kXoshiro, RngKind::kPhilox}) {
    for (const std::size_t n : sizes) {
      for (const bool shuffled : {false, true}) {
        const std::size_t pool = 2 * n + 1;
        const std::vector<std::int32_t> alive =
            NonAscendingAlive(n, shuffled, pool);
        ASSERT_EQ(alive.size(), n);
        // Reference: coin then fill, both as scalar Draw loops.
        std::vector<RandomSource> ref_rng = MakeLanes(pool, kind);
        std::vector<std::uint8_t> ref_mask(n);
        std::vector<std::int32_t> ref_out(n);
        std::int64_t ref_hits = 0;
        for (std::size_t k = 0; k < n; ++k) {
          ref_mask[k] = coin.Draw(ref_rng[static_cast<std::size_t>(alive[k])]);
          ref_hits += ref_mask[k];
        }
        for (std::size_t k = 0; k < n; ++k) {
          ref_out[k] = static_cast<std::int32_t>(
              dist.Draw(ref_rng[static_cast<std::size_t>(alive[k])]));
        }
        for (const Backend backend : AvailableBackends()) {
          ScopedBackend forced(backend);
          const std::string where =
              std::string(ToString(backend)) + " kind=" +
              support::ToString(kind) + " n=" + std::to_string(n) +
              (shuffled ? " shuffled" : " lane-major");
          std::vector<RandomSource> rng = MakeLanes(pool, kind);
          std::vector<std::uint8_t> mask(n, 0xcc);
          std::vector<std::int32_t> out(n, -1);
          EXPECT_EQ(CoinMask(coin, rng, alive, mask), ref_hits) << where;
          UniformFill(dist, rng, alive, out);
          EXPECT_EQ(mask, ref_mask) << where;
          EXPECT_EQ(out, ref_out) << where;
          // Touched streams advanced exactly like the reference; untouched
          // ones (half the pool) did not move.
          for (std::size_t i = 0; i < pool; ++i) {
            ExpectSameRecord(rng[i], ref_rng[i],
                             where + " slot " + std::to_string(i));
          }
          if (::testing::Test::HasFailure()) return;
        }
      }
    }
  }
}

// The philox memo word (odd half of the current block) must survive any
// interleaving of scalar draws, skips by odd and even counts, and kernel
// calls, starting at odd and even offsets: every draw still matches a
// sequential ForStream reader of the same stream.
TEST(DrawKernels, PhiloxMemoSurvivesInterleavedCalls) {
  constexpr std::size_t kStreams = 37;  // vector body plus a tail
  constexpr std::size_t kDraws = 512;
  std::vector<std::vector<std::uint64_t>> seq(kStreams);
  for (std::size_t i = 0; i < kStreams; ++i) {
    RandomSource reader = RandomSource::ForStream(0xabc, i, RngKind::kPhilox);
    for (std::size_t d = 0; d < kDraws; ++d) seq[i].push_back(reader.NextU64());
  }
  const BatchBernoulli coin(0.5);
  const BatchUniformInt dist(1, 64);  // power of two: never rejects
  std::vector<std::int32_t> alive = NonAscendingAlive(kStreams, true, kStreams);
  for (const Backend backend : AvailableBackends()) {
    ScopedBackend forced(backend);
    SCOPED_TRACE(ToString(backend));
    std::vector<RandomSource> rng(kStreams);
    std::vector<std::size_t> next(kStreams, 0);  // expected draw index
    for (std::size_t i = 0; i < kStreams; ++i) {
      rng[i] = RandomSource::ForStream(0xabc, i, RngKind::kPhilox);
      rng[i].SkipPhiloxDraws(i % 3);  // start at odd and even offsets
      next[i] = i % 3;
    }
    RandomSource script(0x5c1);
    std::vector<std::uint8_t> mask(kStreams);
    std::vector<std::int32_t> out(kStreams);
    for (int step = 0; step < 120; ++step) {
      const std::int64_t op = script.UniformInt(0, 4);
      if (op == 0) {
        for (std::size_t i = 0; i < kStreams; ++i) {
          ASSERT_EQ(rng[i].NextU64(), seq[i][next[i]++])
              << "step " << step << " stream " << i;
        }
      } else if (op == 1) {
        for (std::size_t i = 0; i < kStreams; ++i) {
          const auto n = static_cast<std::size_t>(script.UniformInt(0, 3));
          rng[i].SkipPhiloxDraws(n);
          next[i] += n;
        }
      } else if (op == 2) {
        CoinMask(coin, rng, alive, mask);
        for (std::size_t k = 0; k < kStreams; ++k) {
          const auto i = static_cast<std::size_t>(alive[k]);
          ASSERT_EQ(mask[k], (seq[i][next[i]++] >> 11) < coin.threshold())
              << "step " << step << " stream " << i;
        }
      } else if (op == 3) {
        UniformFill(dist, rng, alive, out);
        for (std::size_t k = 0; k < kStreams; ++k) {
          const auto i = static_cast<std::size_t>(alive[k]);
          // 64 values: the top six bits, plus lo.
          const auto want = static_cast<std::int32_t>(seq[i][next[i]++] >> 58);
          ASSERT_EQ(out[k], 1 + want)
              << "step " << step << " stream " << i;
        }
      } else {
        // A kernel over half the streams: the rest keep their memo.
        const std::size_t half = kStreams / 2;
        std::span<const std::int32_t> some(alive.data(), half);
        CoinMask(coin, rng, some, std::span<std::uint8_t>(mask.data(), half));
        for (std::size_t k = 0; k < half; ++k) {
          ++next[static_cast<std::size_t>(alive[k])];
        }
      }
      for (std::size_t i = 0; i < kStreams; ++i) {
        ASSERT_EQ(rng[i].philox_draws(), next[i]);
      }
    }
    for (std::size_t i = 0; i < kStreams; ++i) {
      EXPECT_EQ(rng[i].NextU64(), seq[i][next[i]]) << "stream " << i;
    }
  }
}

TEST(CompactKeep, MatchesScalarReferenceAcrossBackendsAndSizes) {
  // Sizes straddle the inline tiny-input fast path (<= 16) and the
  // dispatch path, including vector-width remainders.
  for (const std::size_t n : {0u, 1u, 2u, 15u, 16u, 17u, 31u, 32u, 100u,
                              255u, 256u, 1000u}) {
    for (std::uint32_t pattern = 0; pattern < 8; ++pattern) {
      std::vector<std::int32_t> ids(n);
      std::vector<std::uint8_t> drop(n);
      for (std::size_t i = 0; i < n; ++i) {
        ids[i] = static_cast<std::int32_t>(i * 7 + 1);
        // Mix of runs and isolated drops keyed by the pattern.
        drop[i] = static_cast<std::uint8_t>(
            ((i * 2654435761u + pattern * 0x9e3779b9u) >> 13) & 1);
      }
      std::vector<std::int32_t> want;
      for (std::size_t i = 0; i < n; ++i) {
        if (drop[i] == 0) want.push_back(ids[i]);
      }
      for (const Backend backend : AvailableBackends()) {
        ScopedBackend forced(backend);
        std::vector<std::int32_t> got = ids;
        const std::size_t kept = CompactKeep(got, drop);
        ASSERT_EQ(kept, want.size())
            << ToString(backend) << " n=" << n << " pattern=" << pattern;
        got.resize(kept);
        EXPECT_EQ(got, want)
            << ToString(backend) << " n=" << n << " pattern=" << pattern;
      }
    }
  }
}

TEST(ClassifyChannels, MatchesScalarReferenceAcrossBackends) {
  const std::int32_t kChannels = 64;
  for (const std::size_t n : {1u, 2u, 7u, 8u, 9u, 64u, 100u, 513u}) {
    std::vector<std::int32_t> channels(n);
    for (std::size_t i = 0; i < n; ++i) {
      channels[i] =
          1 + static_cast<std::int32_t>((i * 2654435761u >> 8) % kChannels);
    }
    // Reference classification by direct histogram.
    std::vector<int> hist(static_cast<std::size_t>(kChannels) + 1, 0);
    for (const std::int32_t c : channels) ++hist[static_cast<std::size_t>(c)];
    std::int64_t want_lone = 0;
    for (std::int32_t c = 1; c <= kChannels; ++c) {
      if (hist[static_cast<std::size_t>(c)] == 1) ++want_lone;
    }
    std::vector<std::uint8_t> want_lone_mask(n);
    for (std::size_t i = 0; i < n; ++i) {
      want_lone_mask[i] =
          hist[static_cast<std::size_t>(channels[i])] == 1 ? 1 : 0;
    }
    for (const std::int32_t primary : {1, 7, kChannels}) {
      const bool want_primary =
          hist[static_cast<std::size_t>(primary)] == 1;
      for (const Backend backend : AvailableBackends()) {
        ScopedBackend forced(backend);
        std::vector<std::uint16_t> counts(
            static_cast<std::size_t>(kChannels) + 3, 0);
        std::vector<std::int32_t> touched;
        std::vector<std::uint8_t> lone(n, 0xcc);
        const Occupancy occ =
            ClassifyChannels(channels, primary, counts, touched, lone);
        EXPECT_EQ(occ.lone_channels, want_lone)
            << ToString(backend) << " n=" << n;
        EXPECT_EQ(occ.primary_lone, want_primary)
            << ToString(backend) << " n=" << n << " primary=" << primary;
        EXPECT_EQ(lone, want_lone_mask) << ToString(backend) << " n=" << n;
        // Contract: counts is sparsely re-zeroed before returning, so the
        // scratch can be handed straight to the next round.
        for (std::size_t c = 0; c < counts.size(); ++c) {
          EXPECT_EQ(counts[c], 0) << ToString(backend) << " counts[" << c
                                  << "] not re-zeroed";
        }
      }
    }
  }
}

TEST(Dispatch, ParseAndAvailability) {
  EXPECT_EQ(ParseBackend("scalar"), Backend::kScalar);
  EXPECT_EQ(ParseBackend("sse4.2"), Backend::kSse42);
  EXPECT_EQ(ParseBackend("sse42"), Backend::kSse42);
  EXPECT_EQ(ParseBackend("avx2"), Backend::kAvx2);
  EXPECT_EQ(ParseBackend("avx512"), Backend::kAvx512);
  EXPECT_EQ(ParseBackend("auto"), DetectBackend());
  EXPECT_FALSE(ParseBackend("mmx").has_value());
  // Scalar is always compiled and always runnable.
  EXPECT_TRUE(BackendAvailable(Backend::kScalar));
  // The memoized auto choice must itself be available, and no available
  // backend is preferred over it.
  EXPECT_TRUE(BackendAvailable(DetectBackend()));
  for (const Backend b : AllBackends()) {
    if (BackendAvailable(b)) {
      EXPECT_LE(static_cast<int>(b), static_cast<int>(DetectBackend()))
          << ToString(b);
    }
    // Available implies compiled in.
    EXPECT_TRUE(!BackendAvailable(b) || BackendCompiled(b)) << ToString(b);
  }
}

}  // namespace
}  // namespace crmc::simd
