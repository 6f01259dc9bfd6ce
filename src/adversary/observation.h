// What an adaptive adversary gets to see after each round.
//
// A *reactive* jammer eavesdrops on the channels before deciding where to
// spend budget. Two eavesdropping strengths are modelled:
//
//   - kFull:     per-channel transmitter counts — the adversary can tell a
//                lone delivery from a collision (the strongest adversary the
//                resource-competitive analyses consider).
//   - kActivity: the adversary only learns *which* channels were active;
//                transmitter counts are censored to -1. A strictly weaker
//                adversary, useful for sensitivity sweeps.
//
// Observations are always one round stale: the jam set for round R is
// planned from rounds < R. The adversary never sees round R's activity
// before the resolver commits it — jamming is a bet, not a veto.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "mac/channel.h"

namespace crmc::adversary {

enum class ObsMode : std::uint8_t {
  kFull = 0,      // per-channel transmitter counts
  kActivity = 1,  // active/idle only; counts censored to -1
};

inline const char* ToString(ObsMode mode) {
  return mode == ObsMode::kActivity ? "activity" : "full";
}

inline std::optional<ObsMode> ParseObsMode(std::string_view name) {
  if (name == "full") return ObsMode::kFull;
  if (name == "activity") return ObsMode::kActivity;
  return std::nullopt;
}

// One active channel as the adversary saw it. Sightings are listed in
// first-touched order (the resolver's canonical channel order), a pure
// function of the round's actions — strategy state therefore stays
// bit-identical whether a protocol runs as coroutines or as a step program.
struct ChannelSighting {
  mac::ChannelId channel = mac::kIdleChannel;
  // Transmitter count under ObsMode::kFull; -1 (censored) under kActivity.
  std::int32_t transmitters = -1;
};

// Everything the adversary learned from one resolved round.
struct RoundObservation {
  std::int64_t round = -1;  // which round these sightings describe
  std::vector<ChannelSighting> sightings;

  bool valid() const { return round >= 0; }

  void Clear() {
    round = -1;
    sightings.clear();
  }
};

}  // namespace crmc::adversary
