// Scalar reference implementations plus the runtime dispatch front doors.
//
// The scalar kernels are the semantics: every vector variant must produce
// identical masks, values, counters, and per-lane RNG states (enforced by
// tests/simd_test.cpp across all available backends).
#include <algorithm>
#include <limits>

#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "simd/kernels_impl.h"
#include "support/assert.h"

namespace crmc::simd {
namespace internal {

std::int64_t CoinMaskScalar(const support::BatchBernoulli& coin,
                            std::span<support::RandomSource> rng,
                            std::span<const std::int32_t> alive,
                            std::span<std::uint8_t> mask) {
  if (coin.fixed() >= 0) {
    const auto v = static_cast<std::uint8_t>(coin.fixed() != 0);
    std::fill(mask.begin(), mask.end(), v);
    return v ? static_cast<std::int64_t>(alive.size()) : 0;
  }
  const std::uint64_t threshold = coin.threshold();
  std::int64_t successes = 0;
  for (std::size_t k = 0; k < alive.size(); ++k) {
    const auto s = static_cast<std::size_t>(alive[k]);
    const bool hit = (rng[s].NextU64() >> 11) < threshold;
    mask[k] = static_cast<std::uint8_t>(hit);
    successes += hit;
  }
  return successes;
}

void UniformFillScalar(const support::BatchUniformInt& dist,
                       std::span<support::RandomSource> rng,
                       std::span<const std::int32_t> alive,
                       std::span<std::int32_t> out) {
  for (std::size_t k = 0; k < alive.size(); ++k) {
    out[k] = static_cast<std::int32_t>(
        dist.Draw(rng[static_cast<std::size_t>(alive[k])]));
  }
}

std::size_t CompactKeepScalar(std::span<std::int32_t> ids,
                              std::span<const std::uint8_t> drop) {
  std::size_t write = 0;
  for (std::size_t read = 0; read < ids.size(); ++read) {
    if (!drop[read]) ids[write++] = ids[read];
  }
  return write;
}

void SeedStreamsScalar(std::uint64_t master_seed, std::uint64_t first_stream,
                       support::RngKind kind,
                       std::span<support::RandomSource> out) {
  for (std::size_t k = 0; k < out.size(); ++k) {
    out[k].SeedStream(master_seed, first_stream + static_cast<std::uint64_t>(k),
                      kind);
  }
}

Occupancy ClassifyChannelsScalar(std::span<const std::int32_t> channels,
                                 std::int32_t primary,
                                 std::span<std::uint16_t> counts,
                                 std::vector<std::int32_t>& touched,
                                 std::span<std::uint8_t> lone) {
  touched.clear();
  for (const std::int32_t ch : channels) {
    std::uint16_t& cnt = counts[static_cast<std::size_t>(ch)];
    if (cnt == 0) touched.push_back(ch);
    if (cnt < 2) ++cnt;  // saturate: only 0 / 1 / 2+ matter
  }
  for (std::size_t k = 0; k < channels.size(); ++k) {
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
    cnt = 0;  // restore the all-zero scratch invariant
  }
  return occ;
}

}  // namespace internal

namespace {

void CheckUniformFitsInt32(const support::BatchUniformInt& dist) {
  CRMC_CHECK_MSG(dist.range() != 0 &&
                     dist.range() <= static_cast<std::uint64_t>(
                                         std::numeric_limits<std::int32_t>::max()) &&
                     dist.lo() >= std::numeric_limits<std::int32_t>::min() &&
                     dist.lo() + static_cast<std::int64_t>(dist.range()) - 1 <=
                         std::numeric_limits<std::int32_t>::max(),
                 "UniformFill is for int32 channel picks; range ["
                     << dist.lo() << ", "
                     << dist.lo() + static_cast<std::int64_t>(dist.range() - 1)
                     << "] does not fit");
}

}  // namespace

std::int64_t CoinMask(const support::BatchBernoulli& coin,
                      std::span<support::RandomSource> rng,
                      std::span<const std::int32_t> alive,
                      std::span<std::uint8_t> mask) {
  CRMC_CHECK(mask.size() == alive.size());
  switch (ActiveBackend()) {
#if defined(CRMC_SIMD_HAS_AVX2)
    case Backend::kAvx512:  // seeding-only backend: AVX2 for the rest
    case Backend::kAvx2:
      return internal::CoinMaskAvx2(coin, rng, alive, mask);
#endif
#if defined(CRMC_SIMD_HAS_SSE42)
    case Backend::kSse42:
      return internal::CoinMaskSse42(coin, rng, alive, mask);
#endif
    default:
      return internal::CoinMaskScalar(coin, rng, alive, mask);
  }
}

void UniformFill(const support::BatchUniformInt& dist,
                 std::span<support::RandomSource> rng,
                 std::span<const std::int32_t> alive,
                 std::span<std::int32_t> out) {
  CRMC_CHECK(out.size() == alive.size());
  CheckUniformFitsInt32(dist);
  switch (ActiveBackend()) {
#if defined(CRMC_SIMD_HAS_AVX2)
    case Backend::kAvx512:  // seeding-only backend: AVX2 for the rest
    case Backend::kAvx2:
      return internal::UniformFillAvx2(dist, rng, alive, out);
#endif
#if defined(CRMC_SIMD_HAS_SSE42)
    case Backend::kSse42:
      return internal::UniformFillSse42(dist, rng, alive, out);
#endif
    default:
      return internal::UniformFillScalar(dist, rng, alive, out);
  }
}

std::size_t internal::CompactKeepDispatch(std::span<std::int32_t> ids,
                                          std::span<const std::uint8_t> drop) {
  switch (ActiveBackend()) {
#if defined(CRMC_SIMD_HAS_AVX2)
    case Backend::kAvx512:  // seeding-only backend: AVX2 for the rest
    case Backend::kAvx2:
      return internal::CompactKeepAvx2(ids, drop);
#endif
#if defined(CRMC_SIMD_HAS_SSE42)
    case Backend::kSse42:
      return internal::CompactKeepSse42(ids, drop);
#endif
    default:
      return internal::CompactKeepScalar(ids, drop);
  }
}

void SeedStreams(std::uint64_t master_seed, std::uint64_t first_stream,
                 support::RngKind kind,
                 std::span<support::RandomSource> out) {
  // SplitMix64 is 64-bit-multiply-bound. AVX-512DQ multiplies 64-bit
  // lanes natively and seeds eight streams per step (~1.8x scalar at 4096
  // streams). An AVX2 four-stream variant was benchmarked at 0.6x
  // (xoshiro) / 0.3x (philox) of scalar: pre-AVX-512 vector units emulate
  // that multiply with three 32-bit ones plus shifts, losing to scalar
  // `imul`. So every other backend takes the scalar expansion, which still
  // writes each record in place.
  switch (ActiveBackend()) {
#if defined(CRMC_SIMD_HAS_AVX512)
    case Backend::kAvx512:
      return internal::SeedStreamsAvx512(master_seed, first_stream, kind, out);
#endif
    default:
      return internal::SeedStreamsScalar(master_seed, first_stream, kind, out);
  }
}

Occupancy ClassifyChannels(std::span<const std::int32_t> channels,
                           std::int32_t primary,
                           std::span<std::uint16_t> counts,
                           std::vector<std::int32_t>& touched,
                           std::span<std::uint8_t> lone) {
  CRMC_CHECK(lone.size() == channels.size());
  switch (ActiveBackend()) {
#if defined(CRMC_SIMD_HAS_AVX2)
    case Backend::kAvx512:  // seeding-only backend: AVX2 for the rest
    case Backend::kAvx2:
      return internal::ClassifyChannelsAvx2(channels, primary, counts, touched,
                                            lone);
#endif
    default:
      // SSE4.2 has no gather; the histogram is conflict-bound either way,
      // so that backend shares the scalar classification.
      return internal::ClassifyChannelsScalar(channels, primary, counts,
                                              touched, lone);
  }
}

}  // namespace crmc::simd
