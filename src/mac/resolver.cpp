#include "mac/resolver.h"

#include "support/assert.h"

namespace crmc::mac {

Resolver::Resolver(std::int32_t num_channels, CdModel cd_model)
    : num_channels_(num_channels), cd_model_(cd_model) {
  CRMC_REQUIRE_MSG(num_channels >= 1,
                   "a network needs at least one channel, got "
                       << num_channels);
  activity_.resize(static_cast<std::size_t>(num_channels) + 1);
  channel_fault_.resize(static_cast<std::size_t>(num_channels) + 1,
                        ChannelFault::kClean);
  touched_channels_.reserve(64);
}

RoundSummary Resolver::Resolve(std::span<const Action> actions,
                               std::vector<Feedback>& feedback,
                               FaultInjector* faults,
                               std::span<const ChannelId> adversary_jams) {
  return ResolveRound<true>(actions, &feedback, faults, adversary_jams);
}

RoundSummary Resolver::Tally(std::span<const Action> actions,
                             FaultInjector* faults,
                             std::span<const ChannelId> adversary_jams) {
  return ResolveRound<false>(actions, nullptr, faults, adversary_jams);
}

template <bool kWriteFeedback>
RoundSummary Resolver::ResolveRound(std::span<const Action> actions,
                                    std::vector<Feedback>* feedback,
                                    FaultInjector* faults,
                                    std::span<const ChannelId> adversary_jams) {
  // Clear only the channels dirtied last round: rounds usually touch a
  // handful of channels even in huge networks. Adversary jams on untouched
  // channels are tracked in adv_marked_ so their marks get cleared too.
  for (const ChannelId ch : touched_channels_) {
    activity_[static_cast<std::size_t>(ch)] = ChannelActivity{};
    channel_fault_[static_cast<std::size_t>(ch)] = ChannelFault::kClean;
  }
  touched_channels_.clear();
  for (const ChannelId ch : adv_marked_) {
    channel_fault_[static_cast<std::size_t>(ch)] = ChannelFault::kClean;
  }
  adv_marked_.clear();

  const bool inject = faults != nullptr && faults->active();
  const bool adv = !adversary_jams.empty();

  RoundSummary summary;
  for (const Action& a : actions) {
    if (a.channel == kIdleChannel) continue;
    CRMC_CHECK_MSG(a.channel >= 1 && a.channel <= num_channels_,
                   "protocol used channel " << a.channel << " of "
                                            << num_channels_);
    ChannelActivity& act = activity_[static_cast<std::size_t>(a.channel)];
    if (act.transmitters == 0 && act.listeners == 0) {
      touched_channels_.push_back(a.channel);
    }
    ++summary.total_participants;
    if (a.transmit) {
      ++summary.total_transmissions;
      if (++act.transmitters == 1) act.lone_message = a.message;
    } else {
      ++act.listeners;
    }
  }
  summary.primary_transmitters =
      activity_[static_cast<std::size_t>(kPrimaryChannel)].transmitters;

  // The adaptive adversary's jams land before any oblivious draw: it spends
  // budget with certainty, the fault layer only with probability. A jam is
  // "effective" iff it suppressed a lone delivery.
  if (adv) {
    for (const ChannelId ch : adversary_jams) {
      CRMC_CHECK_MSG(ch >= 1 && ch <= num_channels_,
                     "adversary jammed channel " << ch << " of "
                                                 << num_channels_);
      ChannelFault& fault = channel_fault_[static_cast<std::size_t>(ch)];
      CRMC_CHECK_MSG(fault == ChannelFault::kClean,
                     "adversary jammed channel " << ch << " twice");
      fault = ChannelFault::kJammed;
      adv_marked_.push_back(ch);
      ++summary.adv_jams;
      if (activity_[static_cast<std::size_t>(ch)].transmitters == 1) {
        ++summary.adv_jams_effective;
      }
    }
  }

  // Pristine strong-CD rounds — the Monte-Carlo hot path — skip the fault
  // bookkeeping and the per-action fault/capability branches entirely. The
  // general loop below computes the identical feedback for this case; this
  // variant just hoists the conditions out of the per-action loop.
  if (!inject && !adv && cd_model_ == CdModel::kStrong) {
    for (const ChannelId ch : touched_channels_) {
      if (activity_[static_cast<std::size_t>(ch)].transmitters == 1) {
        ++summary.lone_deliveries;
      }
    }
    summary.primary_lone_delivered = summary.primary_transmitters == 1;
    if constexpr (!kWriteFeedback) return summary;
    feedback->resize(actions.size());
    for (std::size_t i = 0; i < actions.size(); ++i) {
      const Action& a = actions[i];
      Feedback& fb = (*feedback)[i];
      if (a.channel == kIdleChannel) {
        fb = Feedback{};
        continue;
      }
      const ChannelActivity& act =
          activity_[static_cast<std::size_t>(a.channel)];
      if (act.transmitters == 0) {
        fb.observation = Observation::kSilence;
        fb.message = Message{};
      } else if (act.transmitters == 1) {
        fb.observation = Observation::kMessage;
        fb.message = act.lone_message;
      } else {
        fb.observation = Observation::kCollision;
        fb.message = Message{};
      }
    }
    return summary;
  }

  // Channel-level faults: one jam draw per touched channel, then — for
  // surviving lone-transmitter channels — one erasure draw. First-touched
  // order keeps the draw sequence a function of the action sequence alone.
  if (inject) {
    for (const ChannelId ch : touched_channels_) {
      // The adversary got here first: no oblivious draw on this channel, so
      // the fault draw sequence depends only on (actions, jam set).
      if (channel_fault_[static_cast<std::size_t>(ch)] !=
          ChannelFault::kClean) {
        continue;
      }
      const ChannelActivity& act = activity_[static_cast<std::size_t>(ch)];
      if (faults->DrawJam()) {
        channel_fault_[static_cast<std::size_t>(ch)] = ChannelFault::kJammed;
      } else if (act.transmitters == 1 && faults->DrawErasure()) {
        channel_fault_[static_cast<std::size_t>(ch)] = ChannelFault::kErased;
      }
    }
  }
  for (const ChannelId ch : touched_channels_) {
    if (activity_[static_cast<std::size_t>(ch)].transmitters == 1 &&
        channel_fault_[static_cast<std::size_t>(ch)] == ChannelFault::kClean) {
      ++summary.lone_deliveries;
    }
  }
  summary.primary_lone_delivered =
      summary.primary_transmitters == 1 &&
      channel_fault_[static_cast<std::size_t>(kPrimaryChannel)] ==
          ChannelFault::kClean;

  if constexpr (!kWriteFeedback) {
    // No feedback to flip, but the flaky-CD stream still advances once per
    // non-idle action, exactly as in the loop below.
    if (inject) {
      for (const Action& a : actions) {
        if (a.channel != kIdleChannel) faults->DrawCdFlip();
      }
    }
    return summary;
  }
  feedback->resize(actions.size());
  for (std::size_t i = 0; i < actions.size(); ++i) {
    const Action& a = actions[i];
    Feedback& fb = (*feedback)[i];
    if (a.channel == kIdleChannel) {
      fb = Feedback{};  // idle nodes learn nothing
      continue;
    }
    const ChannelActivity& act = activity_[static_cast<std::size_t>(a.channel)];
    const ChannelFault fault =
        channel_fault_[static_cast<std::size_t>(a.channel)];
    if (fault == ChannelFault::kJammed) {
      fb.observation = Observation::kCollision;  // jamming drowns everything
      fb.message = Message{};
    } else if (fault == ChannelFault::kErased) {
      fb.observation = Observation::kSilence;  // lone message lost in transit
      fb.message = Message{};
    } else if (act.transmitters == 0) {
      fb.observation = Observation::kSilence;
      fb.message = Message{};
    } else if (act.transmitters == 1) {
      fb.observation = Observation::kMessage;
      fb.message = act.lone_message;
    } else {
      fb.observation = Observation::kCollision;
      fb.message = Message{};
    }
    // Flaky CD: each participant's detector may independently misreport the
    // channel. Drawn per non-idle action in order, before the capability
    // filter below (a node without CD has no detector left to misfire).
    if (inject && faults->DrawCdFlip()) {
      switch (fb.observation) {
        case Observation::kSilence:
          fb.observation = Observation::kCollision;
          break;
        case Observation::kCollision:
          fb.observation = Observation::kSilence;
          break;
        case Observation::kMessage:
          fb.observation = Observation::kCollision;  // payload corrupted
          fb.message = Message{};
          break;
      }
    }
    // Degrade feedback per the collision-detection model.
    switch (cd_model_) {
      case CdModel::kStrong:
        break;
      case CdModel::kReceiverOnly:
        // Half-duplex: a transmitter learns nothing about its channel.
        if (a.transmit) fb = Feedback{};
        break;
      case CdModel::kNone:
        if (a.transmit) {
          fb = Feedback{};  // transmitters learn nothing
        } else if (fb.observation == Observation::kCollision) {
          fb = Feedback{};  // collisions read as silence
        }
        break;
    }
  }
  return summary;
}

const ChannelActivity& Resolver::ActivityOf(ChannelId ch) const {
  CRMC_REQUIRE(ch >= 1 && ch <= num_channels_);
  return activity_[static_cast<std::size_t>(ch)];
}

}  // namespace crmc::mac
