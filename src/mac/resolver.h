// Per-round resolution of channel activity into per-node feedback.
//
// Factored out of the engine so the MAC semantics can be unit-tested in
// isolation and reused by alternative executors.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mac/channel.h"
#include "mac/faults.h"

namespace crmc::mac {

// Aggregate activity observed on one channel during one round.
struct ChannelActivity {
  std::int32_t transmitters = 0;
  std::int32_t listeners = 0;
  Message lone_message{};  // valid iff transmitters == 1
};

// Summary of a resolved round, for metrics and solved-detection.
struct RoundSummary {
  std::int64_t total_transmissions = 0;
  std::int64_t total_participants = 0;   // non-idle actions
  std::int32_t primary_transmitters = 0;  // transmitters on channel 1
  // Channels whose lone transmission was actually delivered this round
  // (exactly one transmitter, channel neither jammed nor erased). With no
  // fault layer this is simply the count of lone-transmitter channels.
  std::int32_t lone_deliveries = 0;
  // True iff channel 1 had exactly one transmitter AND the message got
  // through. This — not primary_transmitters == 1 — is the solved
  // condition: a jammed or erased lone transmission resolves nothing.
  bool primary_lone_delivered = false;
  // ---- Adaptive-adversary accounting (adversary/adversary.h) ----
  // Budget the adversary spent this round (one unit per jammed channel).
  std::int32_t adv_jams = 0;
  // Of those, jams that actually suppressed a lone delivery (the jammed
  // channel had exactly one transmitter). Spent-but-ineffective jams are
  // the resource-competitive win the benchmarks measure.
  std::int32_t adv_jams_effective = 0;
};

// Resolves one synchronous round. `actions[i]` is node i's decision;
// `feedback[i]` receives what node i observes. `num_channels` bounds the
// legal channel labels; out-of-range channels trip a CRMC_CHECK (protocol
// bug). Scratch state is kept inside the resolver so repeated rounds do not
// reallocate.
class Resolver {
 public:
  explicit Resolver(std::int32_t num_channels,
                    CdModel cd_model = CdModel::kStrong);

  std::int32_t num_channels() const { return num_channels_; }
  CdModel cd_model() const { return cd_model_; }

  // Resolve `actions` into `feedback` (resized to actions.size()). When
  // `faults` is non-null and active, channel-level faults (jamming, lone-
  // message erasure) and per-participant CD flips are injected before the
  // CdModel capability filter; fault draws happen in first-touched channel
  // order then action order, so identical action sequences yield identical
  // faults regardless of executor.
  //
  // `adversary_jams` is the adaptive adversary's jam set for this round
  // (adversary/adversary.h): distinct channels in [1, num_channels], applied
  // before any oblivious fault draw. Participants on a jammed channel
  // observe kCollision and nothing is delivered there; the oblivious jam/
  // erasure draws skip already-jammed channels, so the fault draw sequence
  // stays a pure function of (actions, jam set) regardless of executor.
  // Jamming an untouched channel spends budget but affects nobody.
  RoundSummary Resolve(std::span<const Action> actions,
                       std::vector<Feedback>& feedback,
                       FaultInjector* faults = nullptr,
                       std::span<const ChannelId> adversary_jams = {});

  // Resolve without the per-node feedback: the same summary, channel
  // activity and fault draws — the CD-flip draw per non-idle action
  // included, so the fault streams stay in step with Resolve — for rounds
  // whose participants read nothing (the round loop's fabricated echo,
  // chaff and backoff rounds, during which node state is frozen).
  RoundSummary Tally(std::span<const Action> actions,
                     FaultInjector* faults = nullptr,
                     std::span<const ChannelId> adversary_jams = {});

  // Judges the most recent round's channel activity again under a new jam
  // set and fresh fault draws, without re-reading its actions: for a round
  // loop that repeats one action array round after round (the robust
  // layer's echo trains, chaff bursts and backoff pauses). Contract:
  // bit-identical to Tally on the actions of the most recent Resolve or
  // Tally call — the same summary, ActivityOf and touched_channels(), and
  // the same draws from every fault stream, one CD flip per non-idle
  // action included — so it serves rounds with an active injector too. It
  // clears the previous round's fault marks exactly as Tally does.
  //
  // Without an active injector a judgement is a pure function of the
  // activity and the jam list, so Tally and Retally keep their summary.
  // When no injector is active, neither now nor at the kept judgement, no
  // Resolve came in between, and `adversary_jams` equals the previous
  // list element by element, Retally returns the kept summary and leaves
  // the marks as they are. An echo train jammed on the same channel every
  // round then costs a compare per echo: that path is defined here, so it
  // inlines into the round loop.
  RoundSummary Retally(FaultInjector* faults = nullptr,
                       std::span<const ChannelId> adversary_jams = {}) {
    const bool clean = faults == nullptr || !faults->active();
    if (clean && judged_clean_ &&
        adversary_jams.size() == fault_marked_.size()) {
      // With no injector the marks are exactly the previous jam list, so an
      // equal list judges the same activity to the same summary (and
      // already passed the range and "jammed twice" checks when it was
      // marked). A plain loop: std::equal compiles to a libc memcmp call,
      // too heavy for a list of one or two channels.
      std::size_t i = 0;
      while (i < adversary_jams.size() &&
             adversary_jams[i] == fault_marked_[i]) {
        ++i;
      }
      if (i == adversary_jams.size()) return judged_;
    }
    return Rejudge(faults, adversary_jams);
  }

  // Activity of a single channel in the most recent round (Resolve or
  // Tally; Retally leaves it as it was). Intended
  // for tests and tracing.
  const ChannelActivity& ActivityOf(ChannelId ch) const;

  // Channels with at least one participant in the most recent round,
  // in first-touched order. Intended for tracing.
  const std::vector<ChannelId>& touched_channels() const {
    return touched_channels_;
  }

 private:
  enum class ChannelFault : std::uint8_t { kClean = 0, kJammed, kErased };

  // Every round is accumulate, then judge. Accumulate resets the previous
  // round's activity and counts this round's transmitters and listeners per
  // channel, the totals and the primary count (counts_). Judge clears the
  // previous fault marks, applies the adversary's jams and the oblivious
  // jam/erasure draws in first-touched order, counts lone deliveries, and
  // makes the CD-flip draws — writing `feedback` iff kWriteFeedback.
  // Retally is Judge alone, or nothing when the kept judgement still
  // holds.
  void Accumulate(std::span<const Action> actions);
  // Retally's judgement when the kept one does not apply.
  RoundSummary Rejudge(FaultInjector* faults,
                       std::span<const ChannelId> adversary_jams);
  template <bool kWriteFeedback>
  RoundSummary Judge(std::span<const Action> actions,
                     std::vector<Feedback>* feedback, FaultInjector* faults,
                     std::span<const ChannelId> adversary_jams);

  std::int32_t num_channels_;
  CdModel cd_model_;
  std::vector<ChannelActivity> activity_;    // index 0 unused, 1..C
  std::vector<ChannelFault> channel_fault_;  // parallel to activity_
  std::vector<ChannelId> touched_channels_;  // channels dirtied this round
  // Channels the last judgement marked jammed or erased. Tracked apart
  // from touched_channels_ because the adversary may jam a channel no node
  // touched, and because Retally judges again without a new accumulate.
  std::vector<ChannelId> fault_marked_;
  // The accumulated half of the most recent round's summary.
  RoundSummary counts_;
  // The summary of the latest Tally or Retally, and whether it was judged
  // without an active injector (so fault_marked_ is its jam list and
  // nothing else). Resolve clears the flag: the kept summary no longer
  // describes the current activity.
  RoundSummary judged_;
  bool judged_clean_ = false;
};

}  // namespace crmc::mac
