// AVX2 backend: 8-lane Philox4x32-10 and 4-stream xoshiro256++ for the
// draw kernels, permutevar-based stream compaction, and gather-based
// lone-channel classification.
//
// The draw kernels take the slot list in blocks, 8 slots for Philox and 4
// for xoshiro, with vector i holding state word i of the block's streams:
// a contiguous block loads and stores it straight from word plane i, any
// other block gathers it and scatters it back.
//
// Compiled with -mavx2 (see src/CMakeLists.txt); only reached through the
// dispatch in kernels.cpp after a cpuid probe. Bit-exact with the scalar
// reference: the vector Philox computes the identical block function, the
// vector xoshiro the identical state step, lanes consume the identical
// number of draws, and the Lemire rejection test is replicated exactly
// (rejections are ~2^-33 rare and finish scalar).
#include <immintrin.h>

#include <array>
#include <bit>
#include <cstring>

#include "simd/kernels_impl.h"

#if !defined(CRMC_SIMD_HAS_AVX2)
#error "kernels_avx2.cpp requires CRMC_SIMD_HAS_AVX2"
#endif

namespace crmc::simd::internal {
namespace {

// Per-32-bit-lane high product: hi32(a[i] * b[i]) for 8 unsigned lanes.
inline __m256i MulHi32(__m256i a, __m256i b) {
  const __m256i even = _mm256_srli_epi64(_mm256_mul_epu32(a, b), 32);
  const __m256i odd =
      _mm256_mul_epu32(_mm256_srli_epi64(a, 32), _mm256_srli_epi64(b, 32));
  const __m256i hi_mask =
      _mm256_set1_epi64x(static_cast<long long>(0xFFFFFFFF00000000ULL));
  return _mm256_or_si256(even, _mm256_and_si256(odd, hi_mask));
}

// Ten Philox4x32 rounds on eight blocks in place, structure-of-arrays:
// lane j holds counter (x0[j], x1[j], x2[j], x3[j]) and key (k0[j], k1[j]).
// On return x0..x3 hold each block's four output words, matching
// Philox4x32::Block.
inline void PhiloxRounds8(__m256i& x0, __m256i& x1, __m256i& x2, __m256i& x3,
                          __m256i k0, __m256i k1) {
  const __m256i m0 = _mm256_set1_epi32(
      static_cast<int>(support::Philox4x32::kMult0));
  const __m256i m1 = _mm256_set1_epi32(
      static_cast<int>(support::Philox4x32::kMult1));
  const __m256i w0 = _mm256_set1_epi32(
      static_cast<int>(support::Philox4x32::kWeyl0));
  const __m256i w1 = _mm256_set1_epi32(
      static_cast<int>(support::Philox4x32::kWeyl1));
  for (int round = 0; round < support::Philox4x32::kRounds; ++round) {
    const __m256i p0_hi = MulHi32(x0, m0);
    const __m256i p0_lo = _mm256_mullo_epi32(x0, m0);
    const __m256i p1_hi = MulHi32(x2, m1);
    const __m256i p1_lo = _mm256_mullo_epi32(x2, m1);
    const __m256i y0 =
        _mm256_xor_si256(_mm256_xor_si256(p1_hi, x1), k0);
    const __m256i y2 =
        _mm256_xor_si256(_mm256_xor_si256(p0_hi, x3), k1);
    x0 = y0;
    x1 = p1_lo;
    x2 = y2;
    x3 = p0_lo;
    k0 = _mm256_add_epi32(k0, w0);
    k1 = _mm256_add_epi32(k1, w1);
  }
}

// Eight uint64 words, 0-3 in `a` and 4-7 in `b`, split into their low and
// high 32-bit halves: lane j of *lo / *hi is the low / high half of word j.
inline void SplitHalves(__m256i a, __m256i b, __m256i* lo, __m256i* hi) {
  const __m256i halves = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
  const __m256i pa = _mm256_permutevar8x32_epi32(a, halves);
  const __m256i pb = _mm256_permutevar8x32_epi32(b, halves);
  *lo = _mm256_permute2x128_si256(pa, pb, 0x20);
  *hi = _mm256_permute2x128_si256(pa, pb, 0x31);
}

// The inverse of SplitHalves: word j = lo[j] | hi[j] << 32, words 0-3 in
// *a and 4-7 in *b.
inline void JoinHalves(__m256i lo, __m256i hi, __m256i* a, __m256i* b) {
  const __m256i low_pairs = _mm256_unpacklo_epi32(lo, hi);   // 0, 1 | 4, 5
  const __m256i high_pairs = _mm256_unpackhi_epi32(lo, hi);  // 2, 3 | 6, 7
  *a = _mm256_permute2x128_si256(low_pairs, high_pairs, 0x20);
  *b = _mm256_permute2x128_si256(low_pairs, high_pairs, 0x31);
}

inline __m256i Load4(const std::uint64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

inline void Store4(std::uint64_t* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

// True when slots[0..8) == slots[0] + (0, 1, ..., 7).
inline bool Contiguous8(const std::int32_t* slots) {
  const __m256i got =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(slots));
  const __m256i want = _mm256_add_epi32(
      _mm256_set1_epi32(slots[0]), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  return _mm256_movemask_epi8(_mm256_cmpeq_epi32(got, want)) == -1;
}

// Advances the eight philox streams in slots[0..8) by one draw each and
// writes the draws to draws[0..8). Draw d of a stream is half d & 1 of
// block d >> 1; advancing from an even index memoizes the block's odd half
// (StreamCore::StepPhilox). A contiguous block loads and stores the word
// planes as vectors; any other block assembles the counter and key lanes
// slot by slot.
inline void PhiloxNext8(support::StreamPlaneView rng,
                        const std::int32_t* slots, std::uint64_t draws[8]) {
  const std::uint64_t* keys = rng.plane(0);
  const std::uint64_t* streams = rng.plane(1);
  std::uint64_t* counts = rng.plane(2);
  std::uint64_t* memos = rng.plane(3);
  const bool contiguous = Contiguous8(slots);
  const auto first = static_cast<std::size_t>(slots[0]);
  // The block's draw counters, stream ids and keys, eight words each.
  const std::uint64_t* words[3] = {counts + first, streams + first,
                                   keys + first};
  alignas(32) std::uint64_t gathered[3][8];
  if (!contiguous) {
    for (int j = 0; j < 8; ++j) {
      const auto s = static_cast<std::size_t>(slots[j]);
      gathered[0][j] = counts[s];
      gathered[1][j] = streams[s];
      gathered[2][j] = keys[s];
    }
    for (int i = 0; i < 3; ++i) words[i] = gathered[i];
  }
  const __m256i count[2] = {Load4(words[0]), Load4(words[0] + 4)};
  __m256i x0, x1, x2, x3, k0, k1;
  SplitHalves(_mm256_srli_epi64(count[0], 1), _mm256_srli_epi64(count[1], 1),
              &x0, &x1);  // the block index
  SplitHalves(Load4(words[1]), Load4(words[1] + 4), &x2, &x3);
  SplitHalves(Load4(words[2]), Load4(words[2] + 4), &k0, &k1);
  PhiloxRounds8(x0, x1, x2, x3, k0, k1);
  __m256i even[2], odd[2];
  JoinHalves(x0, x1, &even[0], &even[1]);
  JoinHalves(x2, x3, &odd[0], &odd[1]);

  const __m256i one = _mm256_set1_epi64x(1);
  __m256d odd_index[2];
  for (int h = 0; h < 2; ++h) {
    odd_index[h] = _mm256_castsi256_pd(
        _mm256_cmpeq_epi64(_mm256_and_si256(count[h], one), one));
    Store4(draws + 4 * h,
           _mm256_castpd_si256(_mm256_blendv_pd(_mm256_castsi256_pd(even[h]),
                                                _mm256_castsi256_pd(odd[h]),
                                                odd_index[h])));
  }
  if (contiguous) {
    for (int h = 0; h < 2; ++h) {
      const std::size_t at = first + 4 * static_cast<std::size_t>(h);
      Store4(counts + at, _mm256_add_epi64(count[h], one));
      // From an odd index the memo already holds this block's odd half.
      Store4(memos + at, _mm256_castpd_si256(_mm256_blendv_pd(
                             _mm256_castsi256_pd(odd[h]),
                             _mm256_castsi256_pd(Load4(memos + at)),
                             odd_index[h])));
    }
    return;
  }
  alignas(32) std::uint64_t odd_half[8];
  Store4(odd_half, odd[0]);
  Store4(odd_half + 4, odd[1]);
  for (int j = 0; j < 8; ++j) {
    const auto s = static_cast<std::size_t>(slots[j]);
    support::StreamCore::StepPhilox(odd_half[j], counts[s], memos[s]);
  }
}

inline __m256i Rotl64(__m256i x, int k) {
  return _mm256_or_si256(_mm256_slli_epi64(x, k), _mm256_srli_epi64(x, 64 - k));
}

// True when slots[0..4) == slots[0] + (0, 1, 2, 3).
inline bool Contiguous4(const std::int32_t* slots) {
  const __m128i got = _mm_loadu_si128(reinterpret_cast<const __m128i*>(slots));
  const __m128i want =
      _mm_add_epi32(_mm_set1_epi32(slots[0]), _mm_setr_epi32(0, 1, 2, 3));
  return _mm_movemask_epi8(_mm_cmpeq_epi32(got, want)) == 0xFFFF;
}

// One xoshiro256++ step of four streams, state word w of stream j in lane
// j of s[w]. Returns the four outputs.
inline __m256i XoshiroAdvance(__m256i (&s)[4]) {
  const __m256i result =
      _mm256_add_epi64(Rotl64(_mm256_add_epi64(s[0], s[3]), 23), s[0]);
  const __m256i t = _mm256_slli_epi64(s[1], 17);
  s[2] = _mm256_xor_si256(s[2], s[0]);
  s[3] = _mm256_xor_si256(s[3], s[1]);
  s[1] = _mm256_xor_si256(s[1], s[2]);
  s[0] = _mm256_xor_si256(s[0], s[3]);
  s[2] = _mm256_xor_si256(s[2], t);
  s[3] = Rotl64(s[3], 45);
  return result;
}

// One xoshiro256++ step of the streams in slots[0..4). A contiguous block
// loads and stores each word plane's four words as one vector; any other
// block gathers them and scatters them back. Returns the four outputs,
// slot j in lane j.
inline __m256i XoshiroStep4(support::StreamPlaneView rng,
                            const std::int32_t* slots) {
  __m256i s[4];
  if (Contiguous4(slots)) {
    const auto first = static_cast<std::size_t>(slots[0]);
    for (int w = 0; w < 4; ++w) {
      s[w] = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(rng.plane(w) + first));
    }
    const __m256i result = XoshiroAdvance(s);
    for (int w = 0; w < 4; ++w) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(rng.plane(w) + first),
                          s[w]);
    }
    return result;
  }
  const __m128i idx = _mm_loadu_si128(reinterpret_cast<const __m128i*>(slots));
  for (int w = 0; w < 4; ++w) {
    s[w] = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(rng.plane(w)), idx, 8);
  }
  const __m256i result = XoshiroAdvance(s);
  alignas(32) std::uint64_t words[4];
  for (int w = 0; w < 4; ++w) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(words), s[w]);
    for (int j = 0; j < 4; ++j) {
      rng.plane(w)[static_cast<std::size_t>(slots[j])] = words[j];
    }
  }
  return result;
}

// kSpread4[bits] has byte j = bit j of `bits`: four 0/1 mask bytes,
// little-endian.
constexpr std::array<std::uint32_t, 16> MakeSpreadLut() {
  std::array<std::uint32_t, 16> lut{};
  for (std::uint32_t bits = 0; bits < 16; ++bits) {
    for (int j = 0; j < 4; ++j) lut[bits] |= ((bits >> j) & 1u) << (8 * j);
  }
  return lut;
}

constexpr std::array<std::uint32_t, 16> kSpread4 = MakeSpreadLut();

struct PermRow {
  std::uint32_t idx[8];
};

// lut[mask] lists the set-bit positions of `mask` in ascending order — the
// permutevar8x32 pattern that packs kept lanes to the front.
constexpr std::array<PermRow, 256> MakeCompactLut() {
  std::array<PermRow, 256> lut{};
  for (int mask = 0; mask < 256; ++mask) {
    int write = 0;
    for (int bit = 0; bit < 8; ++bit) {
      if (mask & (1 << bit)) {
        lut[static_cast<std::size_t>(mask)].idx[write++] =
            static_cast<std::uint32_t>(bit);
      }
    }
  }
  return lut;
}

constexpr std::array<PermRow, 256> kCompactLut = MakeCompactLut();

}  // namespace

std::int64_t CoinMaskAvx2(const support::BatchBernoulli& coin,
                          support::StreamPlaneView rng,
                          std::span<const std::int32_t> alive,
                          std::span<std::uint8_t> mask) {
  if (coin.fixed() >= 0) return CoinMaskScalar(coin, rng, alive, mask);
  const std::uint64_t threshold = coin.threshold();
  const std::size_t m = alive.size();
  std::int64_t successes = 0;
  std::size_t k = 0;
  if (rng.kind() == support::RngKind::kPhilox) {
    alignas(32) std::uint64_t draws[8];
    for (; k + 8 <= m; k += 8) {
      PhiloxNext8(rng, alive.data() + k, draws);
      for (int j = 0; j < 8; ++j) {
        const bool hit = (draws[j] >> 11) < threshold;
        mask[k + static_cast<std::size_t>(j)] = static_cast<std::uint8_t>(hit);
        successes += hit;
      }
    }
  } else {
    // threshold <= 2^53 and x >> 11 < 2^53, so the signed compare is exact.
    // Hits count down in `hits` (a lane's compare is -1 on success).
    const __m256i thr = _mm256_set1_epi64x(static_cast<long long>(threshold));
    __m256i hits = _mm256_setzero_si256();
    for (; k + 4 <= m; k += 4) {
      const __m256i x = XoshiroStep4(rng, alive.data() + k);
      const __m256i hit = _mm256_cmpgt_epi64(thr, _mm256_srli_epi64(x, 11));
      const auto bits = static_cast<std::uint32_t>(
          _mm256_movemask_pd(_mm256_castsi256_pd(hit)));
      std::memcpy(mask.data() + k, &kSpread4[bits], sizeof(std::uint32_t));
      hits = _mm256_sub_epi64(hits, hit);
    }
    alignas(32) std::int64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), hits);
    successes = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  }
  for (; k < m; ++k) {
    const bool hit =
        (rng[static_cast<std::size_t>(alive[k])].NextU64() >> 11) < threshold;
    mask[k] = static_cast<std::uint8_t>(hit);
    successes += hit;
  }
  return successes;
}

void UniformFillAvx2(const support::BatchUniformInt& dist,
                     support::StreamPlaneView rng,
                     std::span<const std::int32_t> alive,
                     std::span<std::int32_t> out) {
  const std::size_t m = alive.size();
  std::size_t k = 0;
  if (rng.kind() == support::RngKind::kPhilox) {
    alignas(32) std::uint64_t draws[8];
    for (; k + 8 <= m; k += 8) {
      PhiloxNext8(rng, alive.data() + k, draws);
      for (int j = 0; j < 8; ++j) {
        out[k + static_cast<std::size_t>(j)] = LemireFinish(
            dist, draws[j],
            rng[static_cast<std::size_t>(
                alive[k + static_cast<std::size_t>(j)])]);
      }
    }
  } else {
    alignas(32) std::uint64_t draws[4];
    for (; k + 4 <= m; k += 4) {
      _mm256_store_si256(reinterpret_cast<__m256i*>(draws),
                         XoshiroStep4(rng, alive.data() + k));
      for (int j = 0; j < 4; ++j) {
        out[k + static_cast<std::size_t>(j)] = LemireFinish(
            dist, draws[j],
            rng[static_cast<std::size_t>(
                alive[k + static_cast<std::size_t>(j)])]);
      }
    }
  }
  for (; k < m; ++k) {
    out[k] = static_cast<std::int32_t>(
        dist.Draw(rng[static_cast<std::size_t>(alive[k])]));
  }
}

std::size_t CompactKeepAvx2(std::span<std::int32_t> ids,
                            std::span<const std::uint8_t> drop) {
  const std::size_t m = ids.size();
  std::size_t write = 0;
  std::size_t read = 0;
  // In-place is safe: write <= read, the 8 source lanes are loaded before
  // the (possibly overlapping) store, and write + 8 <= read + 8 <= m.
  for (; read + 8 <= m; read += 8) {
    const __m128i bytes = _mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(drop.data() + read));
    const unsigned keep_bits =
        static_cast<unsigned>(
            _mm_movemask_epi8(_mm_cmpeq_epi8(bytes, _mm_setzero_si128()))) &
        0xFFu;
    const __m256i vals =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ids.data() + read));
    const __m256i perm = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(kCompactLut[keep_bits].idx));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(ids.data() + write),
                        _mm256_permutevar8x32_epi32(vals, perm));
    write += static_cast<std::size_t>(std::popcount(keep_bits));
  }
  for (; read < m; ++read) {
    if (!drop[read]) ids[write++] = ids[read];
  }
  return write;
}

Occupancy ClassifyChannelsAvx2(std::span<const std::int32_t> channels,
                               std::int32_t primary,
                               std::span<std::uint16_t> counts,
                               std::vector<std::int32_t>& touched,
                               std::span<std::uint8_t> lone) {
  // Histogramming is conflict-bound (same-channel lanes collide), so it
  // stays scalar; the win is the gather-based classification pass.
  touched.clear();
  for (const std::int32_t ch : channels) {
    std::uint16_t& cnt = counts[static_cast<std::size_t>(ch)];
    if (cnt == 0) touched.push_back(ch);
    if (cnt < 2) ++cnt;
  }
  const std::size_t m = channels.size();
  std::size_t k = 0;
  const auto* base = reinterpret_cast<const int*>(counts.data());
  const __m256i low16 = _mm256_set1_epi32(0xFFFF);
  const __m256i one = _mm256_set1_epi32(1);
  // Gathers 32 bits at counts + 2*channel (scale 2): the counter in the low
  // half, its neighbour in the high half — hence the +2 entries of padding
  // the scratch contract requires.
  for (; k + 8 <= m; k += 8) {
    const __m256i idx = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(channels.data() + k));
    const __m256i gathered = _mm256_i32gather_epi32(base, idx, 2);
    const __m256i cnt = _mm256_and_si256(gathered, low16);
    const unsigned bits = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(cnt, one))));
    for (int j = 0; j < 8; ++j) {
      lone[k + static_cast<std::size_t>(j)] =
          static_cast<std::uint8_t>((bits >> j) & 1u);
    }
  }
  for (; k < m; ++k) {
    lone[k] = static_cast<std::uint8_t>(
        counts[static_cast<std::size_t>(channels[k])] == 1);
  }
  Occupancy occ;
  for (const std::int32_t ch : touched) {
    std::uint16_t& cnt = counts[static_cast<std::size_t>(ch)];
    if (cnt == 1) {
      ++occ.lone_channels;
      if (ch == primary) occ.primary_lone = true;
    }
    cnt = 0;
  }
  return occ;
}

}  // namespace crmc::simd::internal
