// Backend entry points behind simd/kernels.h. Internal to src/simd/: the
// scalar reference lives in kernels.cpp; the SSE4.2 / AVX2 / AVX-512
// variants live in their own translation units compiled with the matching
// -m flags, and must only be called when dispatch.h says the backend is
// available.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "simd/kernels.h"
#include "support/rng.h"

namespace crmc::simd::internal {

std::int64_t CoinMaskScalar(const support::BatchBernoulli& coin,
                            support::StreamPlaneView rng,
                            std::span<const std::int32_t> alive,
                            std::span<std::uint8_t> mask);
void UniformFillScalar(const support::BatchUniformInt& dist,
                       support::StreamPlaneView rng,
                       std::span<const std::int32_t> alive,
                       std::span<std::int32_t> out);
std::size_t CompactKeepScalar(std::span<std::int32_t> ids,
                              std::span<const std::uint8_t> drop);
Occupancy ClassifyChannelsScalar(std::span<const std::int32_t> channels,
                                 std::int32_t primary,
                                 std::span<std::uint16_t> counts,
                                 std::vector<std::int32_t>& touched,
                                 std::span<std::uint8_t> lone);
void SeedStreamsScalar(std::uint64_t master_seed, std::uint64_t first_stream,
                       support::StreamPlaneView out);
void SeedStreamsScalar(std::span<const std::uint64_t> master_seeds,
                       std::uint64_t first_stream,
                       support::StreamPlaneView out);

// Finishes one bounded draw whose first 64-bit draw `x` was generated out
// of line and already consumed from `rs`: Lemire's multiply, with a
// rejection (P < 2^-33 for channel ranges) redrawing from `rs` exactly as
// BatchUniformInt::Draw would.
inline std::int32_t LemireFinish(const support::BatchUniformInt& dist,
                                 std::uint64_t x, support::StreamRef rs) {
  __uint128_t prod = static_cast<__uint128_t>(x) * dist.range();
  while (static_cast<std::uint64_t>(prod) < dist.threshold()) {
    prod = static_cast<__uint128_t>(rs.NextU64()) * dist.range();
  }
  return static_cast<std::int32_t>(dist.lo() +
                                   static_cast<std::int64_t>(prod >> 64));
}

#if defined(CRMC_SIMD_HAS_SSE42)
std::int64_t CoinMaskSse42(const support::BatchBernoulli& coin,
                           support::StreamPlaneView rng,
                           std::span<const std::int32_t> alive,
                           std::span<std::uint8_t> mask);
void UniformFillSse42(const support::BatchUniformInt& dist,
                      support::StreamPlaneView rng,
                      std::span<const std::int32_t> alive,
                      std::span<std::int32_t> out);
std::size_t CompactKeepSse42(std::span<std::int32_t> ids,
                             std::span<const std::uint8_t> drop);
#endif

#if defined(CRMC_SIMD_HAS_AVX2)
std::int64_t CoinMaskAvx2(const support::BatchBernoulli& coin,
                          support::StreamPlaneView rng,
                          std::span<const std::int32_t> alive,
                          std::span<std::uint8_t> mask);
void UniformFillAvx2(const support::BatchUniformInt& dist,
                     support::StreamPlaneView rng,
                     std::span<const std::int32_t> alive,
                     std::span<std::int32_t> out);
std::size_t CompactKeepAvx2(std::span<std::int32_t> ids,
                            std::span<const std::uint8_t> drop);
Occupancy ClassifyChannelsAvx2(std::span<const std::int32_t> channels,
                               std::int32_t primary,
                               std::span<std::uint16_t> counts,
                               std::vector<std::int32_t>& touched,
                               std::span<std::uint8_t> lone);
#endif

#if defined(CRMC_SIMD_HAS_AVX512)
void SeedStreamsAvx512(std::uint64_t master_seed, std::uint64_t first_stream,
                       support::StreamPlaneView out);
#endif

}  // namespace crmc::simd::internal
