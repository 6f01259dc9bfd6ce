// AVX2 backend: 8-lane Philox4x32-10 and 4-stream xoshiro256++ for the
// draw kernels, permutevar-based stream compaction, and gather-based
// lone-channel classification.
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

// Eight independent Philox4x32-10 blocks, structure-of-arrays: lane j uses
// counter (c0[j], c1[j], c2[j], c3[j]) and key (k0[j], k1[j]). Outputs the
// two uint64 draws of each lane's block, matching Philox4x32::BlockU64.
inline void PhiloxBlocks8(const std::uint32_t c0[8], const std::uint32_t c1[8],
                          const std::uint32_t c2[8], const std::uint32_t c3[8],
                          const std::uint32_t k0in[8],
                          const std::uint32_t k1in[8], std::uint64_t out0[8],
                          std::uint64_t out1[8]) {
  __m256i x0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c0));
  __m256i x1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c1));
  __m256i x2 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c2));
  __m256i x3 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c3));
  __m256i k0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(k0in));
  __m256i k1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(k1in));
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
  alignas(32) std::uint32_t w0s[8], w1s[8], w2s[8], w3s[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(w0s), x0);
  _mm256_store_si256(reinterpret_cast<__m256i*>(w1s), x1);
  _mm256_store_si256(reinterpret_cast<__m256i*>(w2s), x2);
  _mm256_store_si256(reinterpret_cast<__m256i*>(w3s), x3);
  for (int j = 0; j < 8; ++j) {
    out0[j] = w0s[j] | (static_cast<std::uint64_t>(w1s[j]) << 32);
    out1[j] = w2s[j] | (static_cast<std::uint64_t>(w3s[j]) << 32);
  }
}

// Loads eight lanes' philox state into SoA counter/key arrays and produces
// each lane's *next* draw (block = draws >> 1, half = draws & 1) plus the
// odd half of that block, without advancing any lane. Callers advance via
// StepPhilox(odd[j]) afterwards, which keeps the one-draw memo.
inline void NextDraws8(std::span<support::RandomSource> rng,
                       const std::int32_t* lanes, std::uint64_t draws[8],
                       std::uint64_t odd[8]) {
  std::uint32_t c0[8], c1[8], c2[8], c3[8], k0[8], k1[8];
  for (int j = 0; j < 8; ++j) {
    const auto& rs = rng[static_cast<std::size_t>(lanes[j])];
    const std::uint64_t block = rs.philox_draws() >> 1;
    const std::uint64_t stream = rs.philox_stream();
    const std::uint64_t key = rs.philox_key();
    c0[j] = static_cast<std::uint32_t>(block);
    c1[j] = static_cast<std::uint32_t>(block >> 32);
    c2[j] = static_cast<std::uint32_t>(stream);
    c3[j] = static_cast<std::uint32_t>(stream >> 32);
    k0[j] = static_cast<std::uint32_t>(key);
    k1[j] = static_cast<std::uint32_t>(key >> 32);
  }
  std::uint64_t d0[8];
  PhiloxBlocks8(c0, c1, c2, c3, k0, k1, d0, odd);
  for (int j = 0; j < 8; ++j) {
    const auto& rs = rng[static_cast<std::size_t>(lanes[j])];
    draws[j] = (rs.philox_draws() & 1) ? odd[j] : d0[j];
  }
}

inline __m256i Rotl64(__m256i x, int k) {
  return _mm256_or_si256(_mm256_slli_epi64(x, k), _mm256_srli_epi64(x, 64 - k));
}

// One xoshiro256++ step of the four streams rng[lanes[0..4)]. Their 32-byte
// states are loaded and transposed 4x4 so that vector i holds state word i
// of all four streams; the step runs on 64-bit lanes; the states are
// transposed back and stored. Returns the four outputs, stream j in lane j.
inline __m256i XoshiroStep4(std::span<support::RandomSource> rng,
                            const std::int32_t* lanes) {
  std::uint64_t* state[4];
  for (int j = 0; j < 4; ++j) {
    state[j] = rng[static_cast<std::size_t>(lanes[j])].words();
  }
  const auto load = [](const std::uint64_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  };
  const __m256i r0 = load(state[0]);
  const __m256i r1 = load(state[1]);
  const __m256i r2 = load(state[2]);
  const __m256i r3 = load(state[3]);
  // t0 = (r0.w0, r1.w0 | r0.w2, r1.w2), t1 = (r0.w1, r1.w1 | r0.w3, r1.w3);
  // t2, t3 likewise for r2, r3; then swap 128-bit halves across pairs.
  const __m256i t0 = _mm256_unpacklo_epi64(r0, r1);
  const __m256i t1 = _mm256_unpackhi_epi64(r0, r1);
  const __m256i t2 = _mm256_unpacklo_epi64(r2, r3);
  const __m256i t3 = _mm256_unpackhi_epi64(r2, r3);
  __m256i s0 = _mm256_permute2x128_si256(t0, t2, 0x20);
  __m256i s1 = _mm256_permute2x128_si256(t1, t3, 0x20);
  __m256i s2 = _mm256_permute2x128_si256(t0, t2, 0x31);
  __m256i s3 = _mm256_permute2x128_si256(t1, t3, 0x31);

  const __m256i result =
      _mm256_add_epi64(Rotl64(_mm256_add_epi64(s0, s3), 23), s0);
  const __m256i t = _mm256_slli_epi64(s1, 17);
  s2 = _mm256_xor_si256(s2, s0);
  s3 = _mm256_xor_si256(s3, s1);
  s1 = _mm256_xor_si256(s1, s2);
  s0 = _mm256_xor_si256(s0, s3);
  s2 = _mm256_xor_si256(s2, t);
  s3 = Rotl64(s3, 45);

  // u0 = (stream 0: w0, w1 | stream 2: w0, w1), u1 the same for streams 1
  // and 3; u2, u3 carry words 2 and 3.
  const __m256i u0 = _mm256_unpacklo_epi64(s0, s1);
  const __m256i u1 = _mm256_unpackhi_epi64(s0, s1);
  const __m256i u2 = _mm256_unpacklo_epi64(s2, s3);
  const __m256i u3 = _mm256_unpackhi_epi64(s2, s3);
  const auto store = [](std::uint64_t* p, __m256i v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  };
  store(state[0], _mm256_permute2x128_si256(u0, u2, 0x20));
  store(state[1], _mm256_permute2x128_si256(u1, u3, 0x20));
  store(state[2], _mm256_permute2x128_si256(u0, u2, 0x31));
  store(state[3], _mm256_permute2x128_si256(u1, u3, 0x31));
  return result;
}

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
                          std::span<support::RandomSource> rng,
                          std::span<const std::int32_t> alive,
                          std::span<std::uint8_t> mask) {
  if (coin.fixed() >= 0) return CoinMaskScalar(coin, rng, alive, mask);
  const std::uint64_t threshold = coin.threshold();
  const std::size_t m = alive.size();
  std::int64_t successes = 0;
  std::size_t k = 0;
  if (PhiloxLanes(rng, alive)) {
    std::uint64_t draws[8], odd[8];
    for (; k + 8 <= m; k += 8) {
      NextDraws8(rng, alive.data() + k, draws, odd);
      for (int j = 0; j < 8; ++j) {
        rng[static_cast<std::size_t>(alive[k + static_cast<std::size_t>(j)])]
            .StepPhilox(odd[j]);
        const bool hit = (draws[j] >> 11) < threshold;
        mask[k + static_cast<std::size_t>(j)] = static_cast<std::uint8_t>(hit);
        successes += hit;
      }
    }
  } else {
    // threshold <= 2^53 and x >> 11 < 2^53, so the signed compare is exact.
    const __m256i thr = _mm256_set1_epi64x(static_cast<long long>(threshold));
    for (; k + 4 <= m; k += 4) {
      const __m256i x = XoshiroStep4(rng, alive.data() + k);
      const auto bits = static_cast<std::uint32_t>(_mm256_movemask_pd(
          _mm256_castsi256_pd(
              _mm256_cmpgt_epi64(thr, _mm256_srli_epi64(x, 11)))));
      // Spread bit j to byte j: the four 0/1 mask bytes, little-endian.
      const std::uint32_t bytes = (bits & 1u) | (bits & 2u) << 7 |
                                  (bits & 4u) << 14 | (bits & 8u) << 21;
      std::memcpy(mask.data() + k, &bytes, sizeof(bytes));
      successes += std::popcount(bits);
    }
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
                     std::span<support::RandomSource> rng,
                     std::span<const std::int32_t> alive,
                     std::span<std::int32_t> out) {
  const std::size_t m = alive.size();
  std::size_t k = 0;
  if (PhiloxLanes(rng, alive)) {
    std::uint64_t draws[8], odd[8];
    for (; k + 8 <= m; k += 8) {
      NextDraws8(rng, alive.data() + k, draws, odd);
      for (int j = 0; j < 8; ++j) {
        auto& rs = rng[static_cast<std::size_t>(
            alive[k + static_cast<std::size_t>(j)])];
        rs.StepPhilox(odd[j]);
        out[k + static_cast<std::size_t>(j)] =
            LemireFinish(dist, draws[j], rs);
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
