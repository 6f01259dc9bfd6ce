// SSE4.2 backend: 4-lane Philox4x32-10 draw kernels and pshufb-based stream
// compaction. ClassifyChannels has no SSE4.2 variant (no gather; the
// histogram is conflict-bound either way) — kernels.cpp routes that one to
// the scalar reference.
//
// Compiled with -msse4.2; only reached through the dispatch in kernels.cpp
// after a cpuid probe. Bit-exact with the scalar reference.
#include <nmmintrin.h>
#include <smmintrin.h>

#include <array>
#include <bit>

#include "simd/kernels_impl.h"

#if !defined(CRMC_SIMD_HAS_SSE42)
#error "kernels_sse42.cpp requires CRMC_SIMD_HAS_SSE42"
#endif

namespace crmc::simd::internal {
namespace {

// Per-32-bit-lane high product: hi32(a[i] * b[i]) for 4 unsigned lanes.
inline __m128i MulHi32(__m128i a, __m128i b) {
  const __m128i even = _mm_srli_epi64(_mm_mul_epu32(a, b), 32);
  const __m128i odd =
      _mm_mul_epu32(_mm_srli_epi64(a, 32), _mm_srli_epi64(b, 32));
  const __m128i hi_mask =
      _mm_set1_epi64x(static_cast<long long>(0xFFFFFFFF00000000ULL));
  return _mm_or_si128(even, _mm_and_si128(odd, hi_mask));
}

// Four independent Philox4x32-10 blocks (SoA), matching BlockU64.
inline void PhiloxBlocks4(const std::uint32_t c0[4], const std::uint32_t c1[4],
                          const std::uint32_t c2[4], const std::uint32_t c3[4],
                          const std::uint32_t k0in[4],
                          const std::uint32_t k1in[4], std::uint64_t out0[4],
                          std::uint64_t out1[4]) {
  __m128i x0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(c0));
  __m128i x1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(c1));
  __m128i x2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(c2));
  __m128i x3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(c3));
  __m128i k0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(k0in));
  __m128i k1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(k1in));
  const __m128i m0 =
      _mm_set1_epi32(static_cast<int>(support::Philox4x32::kMult0));
  const __m128i m1 =
      _mm_set1_epi32(static_cast<int>(support::Philox4x32::kMult1));
  const __m128i w0 =
      _mm_set1_epi32(static_cast<int>(support::Philox4x32::kWeyl0));
  const __m128i w1 =
      _mm_set1_epi32(static_cast<int>(support::Philox4x32::kWeyl1));
  for (int round = 0; round < support::Philox4x32::kRounds; ++round) {
    const __m128i p0_hi = MulHi32(x0, m0);
    const __m128i p0_lo = _mm_mullo_epi32(x0, m0);
    const __m128i p1_hi = MulHi32(x2, m1);
    const __m128i p1_lo = _mm_mullo_epi32(x2, m1);
    const __m128i y0 = _mm_xor_si128(_mm_xor_si128(p1_hi, x1), k0);
    const __m128i y2 = _mm_xor_si128(_mm_xor_si128(p0_hi, x3), k1);
    x0 = y0;
    x1 = p1_lo;
    x2 = y2;
    x3 = p0_lo;
    k0 = _mm_add_epi32(k0, w0);
    k1 = _mm_add_epi32(k1, w1);
  }
  alignas(16) std::uint32_t w0s[4], w1s[4], w2s[4], w3s[4];
  _mm_store_si128(reinterpret_cast<__m128i*>(w0s), x0);
  _mm_store_si128(reinterpret_cast<__m128i*>(w1s), x1);
  _mm_store_si128(reinterpret_cast<__m128i*>(w2s), x2);
  _mm_store_si128(reinterpret_cast<__m128i*>(w3s), x3);
  for (int j = 0; j < 4; ++j) {
    out0[j] = w0s[j] | (static_cast<std::uint64_t>(w1s[j]) << 32);
    out1[j] = w2s[j] | (static_cast<std::uint64_t>(w3s[j]) << 32);
  }
}

// Each lane's next draw and its block's odd half, without advancing any
// lane (see NextDraws8).
inline void NextDraws4(std::span<support::RandomSource> rng,
                       const std::int32_t* lanes, std::uint64_t draws[4],
                       std::uint64_t odd[4]) {
  std::uint32_t c0[4], c1[4], c2[4], c3[4], k0[4], k1[4];
  for (int j = 0; j < 4; ++j) {
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
  std::uint64_t d0[4];
  PhiloxBlocks4(c0, c1, c2, c3, k0, k1, d0, odd);
  for (int j = 0; j < 4; ++j) {
    const auto& rs = rng[static_cast<std::size_t>(lanes[j])];
    draws[j] = (rs.philox_draws() & 1) ? odd[j] : d0[j];
  }
}

struct ShufRow {
  std::uint8_t idx[16];
};

// lut[mask] is the pshufb pattern that packs the kept 4-byte lanes of mask
// to the front.
constexpr std::array<ShufRow, 16> MakeCompactLut() {
  std::array<ShufRow, 16> lut{};
  for (int mask = 0; mask < 16; ++mask) {
    int write = 0;
    for (int lane = 0; lane < 4; ++lane) {
      if (mask & (1 << lane)) {
        for (int b = 0; b < 4; ++b) {
          lut[static_cast<std::size_t>(mask)].idx[write * 4 + b] =
              static_cast<std::uint8_t>(lane * 4 + b);
        }
        ++write;
      }
    }
  }
  return lut;
}

constexpr std::array<ShufRow, 16> kCompactLut = MakeCompactLut();

}  // namespace

std::int64_t CoinMaskSse42(const support::BatchBernoulli& coin,
                           std::span<support::RandomSource> rng,
                           std::span<const std::int32_t> alive,
                           std::span<std::uint8_t> mask) {
  if (coin.fixed() >= 0 || !PhiloxLanes(rng, alive)) {
    return CoinMaskScalar(coin, rng, alive, mask);
  }
  const std::uint64_t threshold = coin.threshold();
  const std::size_t m = alive.size();
  std::int64_t successes = 0;
  std::size_t k = 0;
  std::uint64_t draws[4], odd[4];
  for (; k + 4 <= m; k += 4) {
    NextDraws4(rng, alive.data() + k, draws, odd);
    for (int j = 0; j < 4; ++j) {
      rng[static_cast<std::size_t>(alive[k + static_cast<std::size_t>(j)])]
          .StepPhilox(odd[j]);
      const bool hit = (draws[j] >> 11) < threshold;
      mask[k + static_cast<std::size_t>(j)] = static_cast<std::uint8_t>(hit);
      successes += hit;
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

void UniformFillSse42(const support::BatchUniformInt& dist,
                      std::span<support::RandomSource> rng,
                      std::span<const std::int32_t> alive,
                      std::span<std::int32_t> out) {
  if (!PhiloxLanes(rng, alive)) {
    return UniformFillScalar(dist, rng, alive, out);
  }
  const std::size_t m = alive.size();
  std::size_t k = 0;
  std::uint64_t draws[4], odd[4];
  for (; k + 4 <= m; k += 4) {
    NextDraws4(rng, alive.data() + k, draws, odd);
    for (int j = 0; j < 4; ++j) {
      auto& rs =
          rng[static_cast<std::size_t>(alive[k + static_cast<std::size_t>(j)])];
      rs.StepPhilox(odd[j]);
      out[k + static_cast<std::size_t>(j)] = LemireFinish(dist, draws[j], rs);
    }
  }
  for (; k < m; ++k) {
    out[k] = static_cast<std::int32_t>(
        dist.Draw(rng[static_cast<std::size_t>(alive[k])]));
  }
}

std::size_t CompactKeepSse42(std::span<std::int32_t> ids,
                             std::span<const std::uint8_t> drop) {
  const std::size_t m = ids.size();
  std::size_t write = 0;
  std::size_t read = 0;
  // In-place safe: lanes are loaded before the overlapping store and
  // write + 4 <= read + 4 <= m.
  for (; read + 4 <= m; read += 4) {
    const __m128i bytes = _mm_cvtsi32_si128(static_cast<int>(
        static_cast<std::uint32_t>(drop[read]) |
        (static_cast<std::uint32_t>(drop[read + 1]) << 8) |
        (static_cast<std::uint32_t>(drop[read + 2]) << 16) |
        (static_cast<std::uint32_t>(drop[read + 3]) << 24)));
    const unsigned keep_bits =
        static_cast<unsigned>(
            _mm_movemask_epi8(_mm_cmpeq_epi8(bytes, _mm_setzero_si128()))) &
        0xFu;
    const __m128i vals =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ids.data() + read));
    const __m128i shuf = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(kCompactLut[keep_bits].idx));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(ids.data() + write),
                     _mm_shuffle_epi8(vals, shuf));
    write += static_cast<std::size_t>(std::popcount(keep_bits));
  }
  for (; read < m; ++read) {
    if (!drop[read]) ids[write++] = ids[read];
  }
  return write;
}

}  // namespace crmc::simd::internal
