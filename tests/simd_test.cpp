// Scalar-vs-vector bit-exactness for the simd kernel layer: every kernel
// must produce identical outputs AND leave identical per-slot RNG state
// under every backend available on this binary+CPU. Backends are forced
// via simd::SetBackend over simd::AllBackends(), so on an AVX-512 host a
// single run covers scalar, SSE4.2, AVX2 and AVX-512.
//
// The draw kernels run on a support::StreamPlane. Their reference is
// independent of every kernel: RandomSource records from ForStream, drawn
// one at a time through the scalar Draw() calls; a plane slot must end up
// holding exactly the record's four state words.
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
using support::StreamPlane;

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

// Stream i + 1 of `master` for slot i, with slot i advanced i % 5 draws so
// kernels are exercised at odd block offsets, not just counter zero.
std::vector<RandomSource> RefLanes(std::size_t n, RngKind kind,
                                   std::uint64_t master = 0x5eedULL) {
  std::vector<RandomSource> rng(n);
  for (std::size_t i = 0; i < n; ++i) {
    rng[i] = RandomSource::ForStream(master, i + 1, kind);
    for (std::size_t d = 0; d < i % 5; ++d) rng[i].NextU64();
  }
  return rng;
}

// The same streams as RefLanes, in a plane seeded by the active backend's
// SeedStreams and staggered through StreamRefs.
StreamPlane MakePlane(std::size_t n, RngKind kind,
                      std::uint64_t master = 0x5eedULL) {
  StreamPlane plane;
  plane.Resize(n, kind);
  SeedStreams(master, 1, plane.view());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < i % 5; ++d) plane[i].NextU64();
  }
  return plane;
}

// Whole-stream equality: kind plus all four state words (the philox memo
// word included — every advancing path writes it identically).
void ExpectSameStream(support::StreamRef got, const RandomSource& want,
                      const std::string& where) {
  EXPECT_EQ(got.kind(), want.kind()) << where;
  for (int w = 0; w < 4; ++w) {
    EXPECT_EQ(got.word(w), want.words()[w]) << where << " word " << w;
  }
}

void ExpectSameRecord(const RandomSource& got, const RandomSource& want,
                      const std::string& where) {
  EXPECT_EQ(got.kind(), want.kind()) << where;
  for (int w = 0; w < 4; ++w) {
    EXPECT_EQ(got.words()[w], want.words()[w]) << where << " word " << w;
  }
}

// Every slot of `got` against `want`, touched or not.
void ExpectSamePlane(StreamPlane& got, const std::vector<RandomSource>& want,
                     const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ExpectSameStream(got[i], want[i], where + " slot " + std::to_string(i));
  }
}

TEST(SeedStreams, MatchesForStreamEveryBackendBothKinds) {
  // 133: odd size, exercises the vector tail; 0-9 straddle one 8-stream
  // step. The planes are pre-filled with the other kind's words so a
  // kernel that skips a word shows. Each size is seeded once at the start
  // of its plane and once into a window at offset 3 (how the trial engine
  // seeds one lane), whose neighbours must keep their words.
  std::vector<std::size_t> sizes = {133};
  for (std::size_t n = 0; n <= 9; ++n) sizes.push_back(n);
  for (const RngKind kind : {RngKind::kXoshiro, RngKind::kPhilox}) {
    const RngKind other =
        kind == RngKind::kXoshiro ? RngKind::kPhilox : RngKind::kXoshiro;
    for (const std::size_t n : sizes) {
      for (const std::size_t offset : {std::size_t{0}, std::size_t{3}}) {
        for (const Backend backend : AvailableBackends()) {
          ScopedBackend forced(backend);
          const std::size_t total = offset + n + 2;
          StreamPlane got;
          got.Resize(total, kind);
          std::vector<RandomSource> garbage(total);
          for (std::size_t i = 0; i < total; ++i) {
            garbage[i] = RandomSource::ForStream(99, i, other);
            garbage[i].NextU64();
            for (int w = 0; w < 4; ++w) {
              got[i].word(w) = garbage[i].words()[w];
            }
          }
          SeedStreams(0xfeedface12345678ULL, 17,
                      got.view().Subspan(offset, n));
          for (std::size_t i = 0; i < total; ++i) {
            const std::string where =
                std::string(ToString(backend)) +
                " kind=" + support::ToString(kind) + " n=" +
                std::to_string(n) + " offset=" + std::to_string(offset) +
                " slot=" + std::to_string(i);
            if (i < offset || i >= offset + n) {
              for (int w = 0; w < 4; ++w) {
                EXPECT_EQ(got[i].word(w), garbage[i].words()[w]) << where;
              }
              continue;
            }
            RandomSource want = RandomSource::ForStream(
                0xfeedface12345678ULL,
                17 + static_cast<std::uint64_t>(i - offset), kind);
            ExpectSameStream(got[i], want, where);
            for (int d = 0; d < 8; ++d) {
              EXPECT_EQ(got[i].NextU64(), want.NextU64())
                  << where << " draw=" << d;
            }
          }
        }
      }
    }
  }
}

// The several-master overload: slot j * m + k is stream first + k of
// master j, under every backend. Each run seeds a window at offset 3
// whose neighbours must keep their words.
TEST(SeedStreams, SeveralMastersMatchForStreamEveryBackendBothKinds) {
  for (const RngKind kind : {RngKind::kXoshiro, RngKind::kPhilox}) {
    for (const std::size_t masters : {0, 1, 3, 4, 5, 33}) {
      for (const std::size_t m : {1, 2, 3, 8}) {
        std::vector<std::uint64_t> seeds(masters);
        for (std::size_t j = 0; j < masters; ++j) {
          seeds[j] = 0x9e3779b97f4a7c15ULL * (j + 1);
        }
        const std::size_t n = masters * m;
        for (const Backend backend : AvailableBackends()) {
          ScopedBackend forced(backend);
          StreamPlane got;
          got.Resize(n + 5, kind);
          for (std::size_t i = 0; i < n + 5; ++i) {
            for (int w = 0; w < 4; ++w) got[i].word(w) = 0xabad1dea + i;
          }
          SeedStreams(seeds, 7, got.view().Subspan(3, n));
          for (std::size_t i = 0; i < n + 5; ++i) {
            const std::string where =
                std::string(ToString(backend)) +
                " kind=" + support::ToString(kind) +
                " masters=" + std::to_string(masters) +
                " m=" + std::to_string(m) + " slot=" + std::to_string(i);
            if (i < 3 || i >= 3 + n) {
              for (int w = 0; w < 4; ++w) {
                EXPECT_EQ(got[i].word(w), 0xabad1dea + i) << where;
              }
              continue;
            }
            const std::size_t slot = i - 3;
            ExpectSameStream(got[i],
                             RandomSource::ForStream(seeds[slot / m],
                                                     7 + slot % m, kind),
                             where);
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
      std::vector<RandomSource> ref_rng = RefLanes(kLanes, kind);
      std::vector<std::uint8_t> ref_mask(kLanes);
      std::int64_t ref_successes = 0;
      for (std::size_t i = 0; i < kLanes; ++i) {
        ref_mask[i] = coin.Draw(ref_rng[i]) ? 1 : 0;
        ref_successes += ref_mask[i];
      }
      for (const Backend backend : AvailableBackends()) {
        ScopedBackend forced(backend);
        const std::string where = std::string(ToString(backend)) +
                                  " kind=" + support::ToString(kind) +
                                  " p=" + std::to_string(p);
        StreamPlane rng = MakePlane(kLanes, kind);
        std::vector<std::uint8_t> mask(kLanes, 0xcc);
        const std::int64_t successes = CoinMask(coin, rng.view(), alive, mask);
        EXPECT_EQ(successes, ref_successes) << where;
        EXPECT_EQ(mask, ref_mask) << where;
        ExpectSamePlane(rng, ref_rng, where);
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
      std::vector<RandomSource> ref_rng = RefLanes(kLanes, kind);
      std::vector<std::int32_t> ref_out(kLanes);
      for (std::size_t i = 0; i < kLanes; ++i) {
        ref_out[i] = static_cast<std::int32_t>(dist.Draw(ref_rng[i]));
      }
      for (const Backend backend : AvailableBackends()) {
        ScopedBackend forced(backend);
        const std::string where = std::string(ToString(backend)) +
                                  " kind=" + support::ToString(kind) +
                                  " range=[" + std::to_string(lo) + "," +
                                  std::to_string(hi) + "]";
        StreamPlane rng = MakePlane(kLanes, kind);
        std::vector<std::int32_t> out(kLanes, -1);
        UniformFill(dist, rng.view(), alive, out);
        EXPECT_EQ(out, ref_out) << where;
        ExpectSamePlane(rng, ref_rng, where);
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
    std::vector<RandomSource> ref_rng = RefLanes(kLanes, kind);
    std::vector<std::uint8_t> ref_mask(alive.size());
    for (std::size_t k = 0; k < alive.size(); ++k) {
      ref_mask[k] =
          coin.Draw(ref_rng[static_cast<std::size_t>(alive[k])]) ? 1 : 0;
    }
    for (const Backend backend : AvailableBackends()) {
      ScopedBackend forced(backend);
      StreamPlane rng = MakePlane(kLanes, kind);
      std::vector<std::uint8_t> mask(alive.size());
      CoinMask(coin, rng.view(), alive, mask);
      const std::string where = std::string(ToString(backend)) +
                                " kind=" + support::ToString(kind);
      EXPECT_EQ(mask, ref_mask) << where;
      ExpectSamePlane(rng, ref_rng, where);
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
    std::vector<RandomSource> ref_rng = RefLanes(kLanes, kind);
    std::vector<std::int32_t> ref_out(alive.size());
    for (std::size_t k = 0; k < alive.size(); ++k) {
      ref_out[k] = static_cast<std::int32_t>(
          dist.Draw(ref_rng[static_cast<std::size_t>(alive[k])]));
    }
    for (const Backend backend : AvailableBackends()) {
      ScopedBackend forced(backend);
      StreamPlane rng = MakePlane(kLanes, kind);
      std::vector<std::int32_t> out(alive.size(), -1);
      UniformFill(dist, rng.view(), alive, out);
      const std::string where = std::string(ToString(backend)) +
                                " kind=" + support::ToString(kind);
      EXPECT_EQ(out, ref_out) << where;
      ExpectSamePlane(rng, ref_rng, where);
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

// Runs CoinMask then UniformFill over `alive` on a plane of `pool` streams
// under every backend, against the scalar Draw loops on records: outputs,
// hit count, and all four words of every slot, touched or not.
void ExpectDrawKernelsMatchReference(const std::vector<std::int32_t>& alive,
                                     std::size_t pool, RngKind kind,
                                     const std::string& label) {
  const BatchBernoulli coin(0.37);
  const BatchUniformInt dist(1, 37);  // rejects on some draws
  const std::size_t n = alive.size();
  std::vector<RandomSource> ref_rng = RefLanes(pool, kind);
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
    const std::string where = std::string(ToString(backend)) + " kind=" +
                              support::ToString(kind) + " " + label;
    StreamPlane rng = MakePlane(pool, kind);
    std::vector<std::uint8_t> mask(n, 0xcc);
    std::vector<std::int32_t> out(n, -1);
    EXPECT_EQ(CoinMask(coin, rng.view(), alive, mask), ref_hits) << where;
    UniformFill(dist, rng.view(), alive, out);
    EXPECT_EQ(mask, ref_mask) << where;
    EXPECT_EQ(out, ref_out) << where;
    ExpectSamePlane(rng, ref_rng, where);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(DrawKernels, NonAscendingAliveListsEverySize) {
  std::vector<std::size_t> sizes = {519, 4096};
  for (std::size_t n = 0; n <= 9; ++n) sizes.push_back(n);
  for (const RngKind kind : {RngKind::kXoshiro, RngKind::kPhilox}) {
    for (const std::size_t n : sizes) {
      for (const bool shuffled : {false, true}) {
        const std::size_t pool = 2 * n + 1;
        const std::vector<std::int32_t> alive =
            NonAscendingAlive(n, shuffled, pool);
        ASSERT_EQ(alive.size(), n);
        ExpectDrawKernelsMatchReference(
            alive, pool, kind,
            "n=" + std::to_string(n) +
                (shuffled ? " shuffled" : " lane-major"));
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

// Slot lists that mix contiguous blocks (loaded straight from the word
// planes) with blocks that must be gathered. The list ascends from `start`
// (0, or 13 for a dense sub-range that begins mid-plane and off every
// vector boundary); in every odd 8-entry block the run breaks at offset
// `brk` (a gap of 1-3 unused slots before that entry), and in every
// (4q + 2)-th block the entries at offsets brk and brk + 1 (mod 8) swap, a
// permuted block whose slots still span exactly w consecutive slots. A
// 5-entry tail follows the 12 full blocks.
TEST(DrawKernels, ContiguousAndGatheredBlocksMix) {
  for (const RngKind kind : {RngKind::kXoshiro, RngKind::kPhilox}) {
    for (const std::int32_t start : {0, 13}) {
      for (std::size_t brk = 0; brk < 8; ++brk) {
        std::vector<std::int32_t> alive;
        std::int32_t slot = start;
        for (std::size_t p = 0; p < 8 * 12 + 5; ++p) {
          const std::size_t block = p / 8;
          if (p % 8 == brk && block % 2 == 1) {
            slot += 1 + static_cast<std::int32_t>((block / 2) % 3);
          }
          alive.push_back(slot++);
        }
        for (std::size_t q = 2; q < 12; q += 4) {
          std::swap(alive[8 * q + brk], alive[8 * q + (brk + 1) % 8]);
        }
        const std::size_t pool = static_cast<std::size_t>(slot) + 3;
        ExpectDrawKernelsMatchReference(
            alive, pool, kind,
            "start=" + std::to_string(start) + " brk=" + std::to_string(brk));
        if (::testing::Test::HasFailure()) return;
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
    StreamPlane plane;
    plane.Resize(kStreams, RngKind::kPhilox);
    const support::StreamPlaneView rng = plane.view();
    std::vector<std::size_t> next(kStreams, 0);  // expected draw index
    for (std::size_t i = 0; i < kStreams; ++i) {
      rng[i].Assign(RandomSource::ForStream(0xabc, i, RngKind::kPhilox));
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

// The std::span<RandomSource> overloads are adapters over the plane
// kernels: same outputs, and every record (touched or not) ends holding
// what the plane slot holds.
TEST(RecordAdapters, MatchPlaneKernels) {
  const std::size_t kPool = 211;
  const BatchBernoulli coin(0.41);
  const BatchUniformInt dist(1, 37);
  for (const RngKind kind : {RngKind::kXoshiro, RngKind::kPhilox}) {
    const std::vector<std::int32_t> alive =
        NonAscendingAlive(kPool / 2, true, kPool);
    for (const Backend backend : AvailableBackends()) {
      ScopedBackend forced(backend);
      const std::string where = std::string(ToString(backend)) +
                                " kind=" + support::ToString(kind);
      std::vector<RandomSource> records(kPool);
      SeedStreams(0x5eedULL, 1, kind, records);
      StreamPlane plane;
      plane.Resize(kPool, kind);
      SeedStreams(0x5eedULL, 1, plane.view());
      for (std::size_t i = 0; i < kPool; ++i) {
        ExpectSameStream(plane[i], records[i],
                         where + " seeded slot " + std::to_string(i));
      }
      std::vector<std::uint8_t> record_mask(alive.size());
      std::vector<std::uint8_t> plane_mask(alive.size());
      EXPECT_EQ(CoinMask(coin, records, alive, record_mask),
                CoinMask(coin, plane.view(), alive, plane_mask))
          << where;
      EXPECT_EQ(record_mask, plane_mask) << where;
      std::vector<std::int32_t> record_out(alive.size());
      std::vector<std::int32_t> plane_out(alive.size());
      UniformFill(dist, records, alive, record_out);
      UniformFill(dist, plane.view(), alive, plane_out);
      EXPECT_EQ(record_out, plane_out) << where;
      for (std::size_t i = 0; i < kPool; ++i) {
        ExpectSameRecord(records[i], plane[i].Record(),
                         where + " slot " + std::to_string(i));
      }
      // An empty call leaves every record's kind and words alone.
      const std::vector<RandomSource> before = records;
      EXPECT_EQ(CoinMask(coin, records, {}, {}), 0) << where;
      UniformFill(dist, records, {}, {});
      for (std::size_t i = 0; i < kPool; ++i) {
        ExpectSameRecord(records[i], before[i],
                         where + " empty call, slot " + std::to_string(i));
      }
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
