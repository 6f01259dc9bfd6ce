// Normalization of the raw channel count C into the power-of-two budget the
// algorithms actually use.
//
// Section 4: "we assume C is a power of 2 (the strategies are easily
// modified to handle other values). We also assume C <= n" — for C > n the
// algorithm runs on the first n channels and no optimality is lost (the
// lower bound is Omega(log log n) there). We round down to a power of two
// and cap at a small multiple of the population.
#pragma once

#include <algorithm>
#include <cstdint>

#include "core/params.h"
#include "support/bits.h"

namespace crmc::core {

// The number of channels TwoActive / the general algorithm's tree machinery
// will use: the largest power of two that is <= min(C, cap), where the cap
// is 2 * population rounded up to a power of two (so C <= n keeps all of
// its power-of-two budget). Always >= 1.
inline std::int32_t EffectiveChannels(std::int32_t channels,
                                      std::int64_t population) {
  const std::int64_t cap =
      2 * static_cast<std::int64_t>(
              support::CeilPow2(static_cast<std::uint64_t>(
                  std::max<std::int64_t>(population, 2))));
  const std::int64_t usable =
      std::min<std::int64_t>(static_cast<std::int64_t>(channels), cap);
  return static_cast<std::int32_t>(
      support::FloorPow2(static_cast<std::uint64_t>(std::max<std::int64_t>(
          usable, 1))));
}

// The channels TwoActive runs on: EffectiveChannels, clamped to the largest
// power of two <= params.channel_cap when a cap is set. Fewer than two means
// the single-channel coin-flip duel. The coroutine, the step program and
// the trial engine's lanes all take their channel count from here.
inline std::int32_t TwoActiveChannels(std::int32_t channels,
                                      std::int64_t population,
                                      const TwoActiveParams& params) {
  const std::int32_t usable = EffectiveChannels(channels, population);
  if (params.channel_cap <= 0) return usable;
  return std::min(usable, static_cast<std::int32_t>(support::FloorPow2(
                              static_cast<std::uint64_t>(params.channel_cap))));
}

}  // namespace crmc::core
