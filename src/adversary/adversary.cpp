#include "adversary/adversary.h"

#include <algorithm>
#include <cmath>

namespace crmc::adversary {
namespace {

// Mixing constant for the adversary's master seed — distinct from the fault
// layer's (mac/faults.cpp) so the jamming schedule and the oblivious fault
// draws are independent even when adv_seed == fault_seed.
constexpr std::uint64_t kAdvSeedSalt = 0xAD7E25A12B0B57ULL;
// Stream selector for the planning RNG within the adversary's master seed.
constexpr std::uint64_t kPlanStream = 0x7A3B17;

std::uint64_t AdvMasterSeed(std::uint64_t run_seed, std::uint64_t adv_seed) {
  return support::SplitMix64(run_seed ^ (kAdvSeedSalt * (adv_seed + 1)))
      .Next();
}

class PrimaryCamper final : public Adversary {
 public:
  void Reset(const AdversarySpec&) override {}
  void PlanJams(const PlanContext&,
                std::vector<mac::ChannelId>& out) override {
    out.push_back(mac::kPrimaryChannel);
  }
};

class GreedyReactive final : public Adversary {
 public:
  bool needs_observation() const override { return true; }
  void Reset(const AdversarySpec&) override {}

  void PlanJams(const PlanContext& ctx,
                std::vector<mac::ChannelId>& out) override {
    if (ctx.last == nullptr) {
      // Nothing observed yet (round 0, or total silence so far): the only
      // channel known to matter is the solve channel.
      out.push_back(mac::kPrimaryChannel);
      return;
    }
    // Score each sighted channel by how close last round's activity was to
    // a lone delivery: a lone transmitter is the jackpot (the protocol may
    // be converging there), two transmitters are one elimination away,
    // anything denser — or a censored activity-only sighting — is a weak
    // signal. The solve channel gets a bump (only lone deliveries *there*
    // end the run) and is always in the candidate set.
    scored_.clear();
    bool primary_sighted = false;
    for (const ChannelSighting& s : ctx.last->sightings) {
      int score = 1;
      if (s.transmitters == 1) {
        score = 3;
      } else if (s.transmitters == 2) {
        score = 2;
      }
      if (s.channel == mac::kPrimaryChannel) {
        ++score;
        primary_sighted = true;
      }
      scored_.push_back({score, s.channel});
    }
    if (!primary_sighted) scored_.push_back({1, mac::kPrimaryChannel});
    // Deterministic order: best score first, channel id breaking ties.
    std::sort(scored_.begin(), scored_.end(),
              [](const Scored& a, const Scored& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.channel < b.channel;
              });
    const auto take = std::min<std::size_t>(scored_.size(),
                                            static_cast<std::size_t>(
                                                ctx.allowance));
    for (std::size_t i = 0; i < take; ++i) {
      out.push_back(scored_[i].channel);
    }
  }

 private:
  struct Scored {
    int score;
    mac::ChannelId channel;
  };
  std::vector<Scored> scored_;
};

class RandomBudgeted final : public Adversary {
 public:
  void Reset(const AdversarySpec&) override {}
  void PlanJams(const PlanContext& ctx,
                std::vector<mac::ChannelId>& out) override {
    // SampleWithoutReplacement returns distinct 1-based values — exactly
    // the legal channel-id range.
    support::SampleWithoutReplacement(ctx.channels, ctx.allowance, *ctx.rng,
                                      scratch_, picks_);
    for (const std::int64_t ch : picks_) {
      out.push_back(static_cast<mac::ChannelId>(ch));
    }
  }

 private:
  support::SampleScratch scratch_;
  std::vector<std::int64_t> picks_;
};

// Shared endgame logic for the stage-aware strategies: given last round's
// sightings, jam the primary channel (plus the sparsest side channels, up
// to the allowance) unless the primary was dense. Hoisted out of
// PhaseTracking so the wrapper-aware strategies below differ from it only
// in how they read *silence*. Returns false when the round was read as a
// dense broadcast stage (hold).
bool PlanEndgameJams(const PlanContext& ctx,
                     std::vector<std::pair<std::int32_t, mac::ChannelId>>&
                         side_scratch,
                     std::vector<mac::ChannelId>& out) {
  std::int32_t primary_tx = 0;  // 0: primary not sighted (all-listen)
  side_scratch.clear();
  for (const ChannelSighting& s : ctx.last->sightings) {
    if (s.channel == mac::kPrimaryChannel) {
      primary_tx = s.transmitters;
    } else if (s.transmitters < 0 || s.transmitters <= 2) {
      side_scratch.push_back({s.transmitters, s.channel});
    }
  }
  if (primary_tx >= 3) return false;  // dense broadcast stage: conserve
  out.push_back(mac::kPrimaryChannel);
  if (static_cast<std::int32_t>(out.size()) >= ctx.allowance) return true;
  // Sparsest side channels next (censored counts after known-sparse ones),
  // channel id breaking ties — deterministic across executors.
  std::sort(side_scratch.begin(), side_scratch.end(),
            [](const std::pair<std::int32_t, mac::ChannelId>& a,
               const std::pair<std::int32_t, mac::ChannelId>& b) {
              const std::int32_t ka = a.first < 0 ? 3 : a.first;
              const std::int32_t kb = b.first < 0 ? 3 : b.first;
              if (ka != kb) return ka < kb;
              return a.second < b.second;
            });
  for (const auto& [tx, ch] : side_scratch) {
    if (static_cast<std::int32_t>(out.size()) >= ctx.allowance) break;
    out.push_back(ch);
  }
  return true;
}

// Infers the general algorithm's pipeline stage from last round's activity
// pattern and concentrates budget where one jam flips the outcome (the
// ROADMAP's phase-tracking adversary, minimal version):
//   - Silence — nothing sighted, or nothing observed yet — reads as an
//     all-listen feedback round (Reduce's verdict rounds, the single most
//     fragile rounds E23 found) or as a robust-layer backoff pause. Either
//     way only the primary channel matters: jam it.
//   - A sparse primary channel (1–2 transmitters, or censored counts under
//     ObsMode::kActivity) reads as the endgame, where a lone delivery may
//     be imminent: jam primary first, then the sparsest side channels.
//   - A dense primary channel (3+ transmitters) reads as the early
//     broadcast stages, where no lone primary delivery can land and a jam
//     is wasted: spend nothing. This patience is what distinguishes
//     tracking from camping — against the general pipeline it holds its
//     budget through Reduce's dense rounds and lands it on the sparse
//     endgame the camper may already be too broke to reach.
// Deterministic: never touches ctx.rng.
class PhaseTracking final : public Adversary {
 public:
  bool needs_observation() const override { return true; }
  void Reset(const AdversarySpec&) override {}

  void PlanJams(const PlanContext& ctx,
                std::vector<mac::ChannelId>& out) override {
    if (ctx.last == nullptr || ctx.last->sightings.empty()) {
      out.push_back(mac::kPrimaryChannel);
      return;
    }
    PlanEndgameJams(ctx, side_, out);
  }

 private:
  std::vector<std::pair<std::int32_t, mac::ChannelId>> side_;
};

// Models the robust wrapper's epoch/backoff state machine from the
// observation stream (robust/robust.h) and refuses to feed its honeypots:
//   - *Sustained* silence — two or more consecutive sighting-free observed
//     rounds — reads as a between-epoch backoff pause. HOLD: jamming an
//     idle network buys nothing, and the pause exists precisely to drain
//     reactive budgets (PhaseTracking camps the primary channel through
//     every silent round and pays the full honeypot schedule).
//   - The *first* silent round after activity still gets jammed: a single
//     silent round is indistinguishable from Reduce's all-listen verdict
//     round, the most fragile round E23 found, and the wrapper's backoff
//     pauses are never that short once epochs retry.
//   - Activity is read exactly like PhaseTracking: a sparse primary
//     sighting (1-2 transmitters, or censored) is the endgame — or a
//     confirmation echo in flight, a lone transmitter repeating after a
//     suppressed claim, each of which must be met or the claim confirms —
//     so jam primary first, then the sparsest side channels; a dense
//     primary (3+) is a broadcast stage: hold.
// Deterministic: never touches ctx.rng.
class Lookahead final : public Adversary {
 public:
  bool needs_observation() const override { return true; }
  void Reset(const AdversarySpec&) override { silence_streak_ = 0; }

  void PlanJams(const PlanContext& ctx,
                std::vector<mac::ChannelId>& out) override {
    if (ctx.last == nullptr) {
      out.push_back(mac::kPrimaryChannel);
      return;
    }
    if (ctx.last->sightings.empty()) {
      ++silence_streak_;
      if (silence_streak_ >= 2) return;  // honeypot: hold the budget
      out.push_back(mac::kPrimaryChannel);  // lone verdict-round strike
      return;
    }
    silence_streak_ = 0;
    PlanEndgameJams(ctx, side_, out);
  }

 private:
  std::int64_t silence_streak_ = 0;
  std::vector<std::pair<std::int32_t, mac::ChannelId>> side_;
};

// Lookahead still donates one jam to every backoff pause (the verdict-round
// strike on the first silent round). Learning *estimates the wrapper's
// backoff schedule* instead: every completed silence run of length >= 2
// bounded by activity on both sides is an inter-epoch gap sample, and the
// longest sample banked so far estimates the backoff cap. Once one gap is
// banked it stops paying the silence toll entirely — it holds from the very
// first silent round — and resumes striking only when a silence run exceeds
// twice the longest banked gap (the next pause of a doubling schedule):
// silence the learned schedule cannot explain reads as a stalled all-listen
// stage, not a honeypot.
//
// Round-3 extension (the gap-banking blind spot): the adaptive policy trims
// its honeypots to a single round from epoch 2 once it sees no backoff
// spend, and a 1-round pause is invisible to gap banking — it is never a
// sample (>= 2 required) and, once any gap is banked, it is held as
// "explained". The trimmed schedule still leaves a tell: a *run* of
// isolated 1-round silences, which the full exponential schedule never
// produces. After kTrimSignals of them Learning flips back to striking
// every isolated silent round — the trim traded honeypot rounds away, so
// those strikes land on verdict rounds and epoch restarts, not decoys.
// Deterministic: never touches ctx.rng.
class Learning final : public Adversary {
 public:
  static constexpr std::int64_t kTrimSignals = 3;

  bool needs_observation() const override { return true; }
  void Reset(const AdversarySpec&) override {
    silence_streak_ = 0;
    longest_gap_ = 0;
    isolated_silences_ = 0;
  }

  void PlanJams(const PlanContext& ctx,
                std::vector<mac::ChannelId>& out) override {
    if (ctx.last == nullptr) {
      out.push_back(mac::kPrimaryChannel);
      return;
    }
    if (ctx.last->sightings.empty()) {
      ++silence_streak_;
      if (longest_gap_ == 0) {
        // No schedule banked yet: behave like Lookahead (strike the first
        // silent round, hold from the second).
        if (silence_streak_ == 1) out.push_back(mac::kPrimaryChannel);
        return;
      }
      if (silence_streak_ == 1 && isolated_silences_ >= kTrimSignals) {
        out.push_back(mac::kPrimaryChannel);  // trimmed schedule detected
        return;
      }
      if (silence_streak_ <= 2 * longest_gap_) return;  // explained: hold
      out.push_back(mac::kPrimaryChannel);  // beyond the learned cap
      return;
    }
    if (silence_streak_ >= 2) {
      longest_gap_ = std::max(longest_gap_, silence_streak_);
      isolated_silences_ = 0;  // the full schedule is back: no trim signal
    } else if (silence_streak_ == 1 && longest_gap_ > 0) {
      ++isolated_silences_;
    }
    silence_streak_ = 0;
    PlanEndgameJams(ctx, side_, out);
  }

 private:
  std::int64_t silence_streak_ = 0;
  std::int64_t longest_gap_ = 0;  // largest completed inter-epoch gap
  std::int64_t isolated_silences_ = 0;  // 1-round silences since a real gap
  std::vector<std::pair<std::int32_t, mac::ChannelId>> side_;
};

// Generation three of the arms race (ROADMAP round 3). The reactive
// strategies above read *silence* as the wrapper's state — and pay for it:
// their first-silent-round strikes land on honeypots, and their endgame
// engagement feeds the adaptive policy's escalating confirm quorum
// (robust/robust.h), the drain that bankrupts Lookahead. Probing instead
// keys everything off the one signal the wrapper cannot fake away: the
// protocol's own contention. A healthy epoch of the general pipeline is
// silent (all-listen) until its first transmission round, which with many
// contenders is a primary-channel collision w.h.p.; the fragile all-listen
// verdict rounds E23 found sit right behind it.
//   - Trigger: any sighting that is not a lone primary transmitter — a
//     primary collision, a side-channel game — marks a live epoch in its
//     contention phase. Probing holds through all silence (honeypots,
//     backoff pauses, all-listen stages) and never spends a jam before the
//     trigger.
//   - Strike: camp the primary channel for a bounded window of rounds right
//     behind the trigger. The first strike of the run is the *calibration*
//     strike, window capped by probe_budget: the jams spent until the epoch
//     dies (a sustained >= 2 round silence) measure the kill depth, and
//     every later strike retargets that depth (+ kStrikeMargin) instead of
//     the full cap.
//   - Finish what you start: an undelivered lone primary transmitter in a
//     continuing run is a live claim — the suppressed candidate, its
//     confirmation echoes, or its post-exchange retries. Leaving any of
//     them alone concedes the run to the first unjammed repeat, so a
//     lone-primary sighting always puts the striker in *fight* mode: jam
//     the primary until the claim dies (silence). Against the static
//     policy that costs the fixed quorum; against the adaptive policy the
//     escalating quorum makes each fight cost up to kMaxConfirmQuorum.
//     And a fight does not end while the epoch lives: if the claim
//     survives the echo train and the protocol moves on to visible
//     coordination, the fight converts into a fresh strike on that
//     activity — no re-arming silence required mid-engagement.
//   - Linger: when an engagement goes quiet, camp the primary for
//     kLingerRounds more rounds. A claim that survived the jams can
//     resurface with a solving retransmission two or three silent rounds
//     later — in real time indistinguishable from an epoch death — and the
//     linger is what catches it; a real death just costs the linger.
//   - Re-arm: after a kill (or an absorbed strike — the window exhausted
//     with no death, which is what the hardened policy's chaff forces) the
//     striker stays disarmed until the world goes quiet again (>= 2 silent
//     rounds), so fabricated collisions cannot bait a second strike inside
//     the same engagement.
// Against the adaptive policy this kills gap epochs for a few jams each and
// pays the quorum drain only on the gapless ones, spending nothing on
// honeypots — the budget that first breaks the adaptive wrapper drops by an
// order of magnitude relative to Lookahead. Under ObsMode::kActivity the
// censored counts make every primary-channel sighting look like a lone
// claim, so Probing fights them all: against sustained primary collisions
// it jams every round after its blind opening one, where full observation
// would calibrate once and then hold.
// Deterministic: never touches ctx.rng.
class Probing final : public Adversary {
 public:
  // Extra strike rounds beyond the measured kill depth: the measurement
  // includes the detection lag (two silent rounds), the margin covers
  // epoch-to-epoch variance in the verdict offset.
  static constexpr std::int64_t kStrikeMargin = 2;
  // Rounds to keep camping the primary after an engagement goes quiet
  // (PlanJams' linger branch). Sized past the re-arm threshold so a claim
  // resurfacing a few rounds into the silence still meets a jam.
  static constexpr std::int64_t kLingerRounds = 6;

  explicit Probing(std::int64_t probe_budget)
      : probe_budget_(probe_budget > 0 ? probe_budget : kDefaultProbeBudget) {}

  bool needs_observation() const override { return true; }
  // No scratch to keep: a fresh value is the freshly built state.
  void Reset(const AdversarySpec& spec) override {
    *this = Probing(spec.probe_budget);
  }

  // A repeated observation in a fight (an echo train of the claim it saw)
  // or in an open strike after activity (a chaff burst's collisions)
  // leaves Digest nothing to do but spend the window, and PlanJams plans
  // the primary channel again: a fight holds as long as the repeats last,
  // a strike for the window it has left. After silence a strike grants
  // none: the second silent round is the kill it waits for. The linger
  // needs no refresh: it only counts down while no fight or strike is
  // live, and the full Digest that ends a fight or strike resets it before
  // anything reads it.
  std::int64_t lease() const override {
    if (fighting_) return kUnboundedLease;
    return striking_ && silence_streak_ == 0 ? strike_window_ : 0;
  }

  void PlanJams(const PlanContext& ctx,
                std::vector<mac::ChannelId>& out) override {
    // Settle the kept rounds as each would have planned: a strike spends
    // its window, and each digested the observation after the one before.
    // A fight touches neither strike counter, but no strike is open during
    // a fight, and the next one (OpenStrike) resets both.
    strike_window_ -= ctx.kept;
    strike_jams_ += ctx.kept;
    last_digested_ += ctx.kept;
    Digest(ctx);
    if (fighting_) {
      // An exchange this striker opened: jam every echo until the claim
      // dies. No window — walking away mid-train concedes the run.
      out.push_back(mac::kPrimaryChannel);
      return;
    }
    if (striking_) {
      if (strike_window_ <= 0) {
        // Window exhausted without a kill: the strike was absorbed (the
        // hardened policy's chaff, or a mis-measured depth). Stand down;
        // Digest re-arms only after sustained silence.
        striking_ = false;
      } else {
        --strike_window_;
        ++strike_jams_;
        out.push_back(mac::kPrimaryChannel);
        return;
      }
    }
    if (linger_ > 0) {
      // Post-engagement linger: a claim that survived jams can resurface
      // with a solving retransmission two or three silent rounds after
      // its echo train ends — indistinguishable, in real time, from an
      // epoch death. Camp the primary a few rounds into the quiet to
      // catch exactly that; a real death just costs the linger.
      --linger_;
      out.push_back(mac::kPrimaryChannel);
    }
  }

 private:
  // Folds the newest observation (exactly once) into the striker state:
  // silence streaks (kill detection + re-arming), fight engagement on live
  // claims, and the trigger itself.
  void Digest(const PlanContext& ctx) {
    if (ctx.last == nullptr || ctx.last->round == last_digested_) return;
    last_digested_ = ctx.last->round;
    // Refresh the post-engagement linger while a strike or fight is live.
    if (striking_ || fighting_) linger_ = kLingerRounds;
    if (ctx.last->sightings.empty()) {
      ++silence_streak_;
      // A fought exchange never goes silent mid-train: silence means the
      // claim died under the jams. The *engagement* outlives the fight —
      // a single-round gap before the epoch's next visible move must not
      // read as a finished epoch.
      fighting_ = false;
      if (silence_streak_ >= 2) {
        if (striking_) {
          // The epoch died under the strike. The first kill of the run
          // calibrates the depth every later strike retargets.
          if (kill_depth_ < 0) kill_depth_ = strike_jams_;
          striking_ = false;
        }
        engaged_ = false;
        armed_ = true;  // quiet world: the next contention is a fresh epoch
      }
      return;
    }
    silence_streak_ = 0;
    const bool lone_primary =
        ctx.last->sightings.size() == 1 &&
        ctx.last->sightings[0].channel == mac::kPrimaryChannel &&
        (ctx.last->sightings[0].transmitters == 1 ||
         ctx.last->sightings[0].transmitters < 0);
    if (lone_primary) {
      // An undelivered lone primary in a continuing run is a live claim
      // (candidate, echo, or post-exchange retry). Always engage: fight
      // until the claim dies. Sparing it concedes the run to the first
      // unjammed repeat.
      striking_ = false;
      fighting_ = true;
      engaged_ = true;
      armed_ = false;
      return;
    }
    if (fighting_ || (engaged_ && !striking_)) {
      // The claim survived the echo train (or resurfaced after a one-round
      // gap) and the epoch moved on to visible coordination. The
      // engagement is not over: convert straight into a fresh strike on
      // the new activity — no re-arming silence required.
      fighting_ = false;
      OpenStrike();
      return;
    }
    if (armed_ && !striking_) {
      armed_ = false;
      OpenStrike();
    }
  }

  void OpenStrike() {
    striking_ = true;
    strike_jams_ = 0;
    strike_window_ =
        kill_depth_ > 0 ? kill_depth_ + kStrikeMargin : probe_budget_;
  }

  std::int64_t probe_budget_ = kDefaultProbeBudget;
  bool armed_ = true;       // ready to open a strike on the next trigger
  bool striking_ = false;   // camping the primary behind a trigger
  bool fighting_ = false;   // jamming out an exchange this striker opened
  bool engaged_ = false;    // a fight happened and the world has not yet
                            // gone quiet: triggers re-strike without arming
  std::int64_t linger_ = 0;  // post-engagement camp rounds left
  std::int64_t strike_window_ = 0;  // rounds left in the open strike
  std::int64_t strike_jams_ = 0;    // jams spent by the open strike
  std::int64_t kill_depth_ = -1;    // calibrated jams-to-kill; -1 unmeasured
  std::int64_t silence_streak_ = 0;
  std::int64_t last_digested_ = -1;
};

class ScriptedAdversary final : public Adversary {
 public:
  explicit ScriptedAdversary(const std::vector<ScriptEntry>& script) {
    Load(script);
  }

  void Reset(const AdversarySpec& spec) override { Load(spec.script); }

  void PlanJams(const PlanContext& ctx,
                std::vector<mac::ChannelId>& out) override {
    // Skip entries for rounds already past (e.g. scheduled under a round in
    // which the budget was exhausted).
    while (cursor_ < script_.size() && script_[cursor_].round < ctx.round) {
      ++cursor_;
    }
    while (cursor_ < script_.size() && script_[cursor_].round == ctx.round &&
           static_cast<std::int32_t>(out.size()) < ctx.allowance) {
      const mac::ChannelId ch = script_[cursor_].channel;
      ++cursor_;
      if (ch > ctx.channels) continue;  // script written for a wider config
      if (std::find(out.begin(), out.end(), ch) != out.end()) continue;
      out.push_back(ch);
    }
  }

 private:
  void Load(const std::vector<ScriptEntry>& script) {
    script_.assign(script.begin(), script.end());
    // Stable sort: entries for the same round keep their authored order.
    std::stable_sort(script_.begin(), script_.end(),
                     [](const ScriptEntry& a, const ScriptEntry& b) {
                       return a.round < b.round;
                     });
    cursor_ = 0;
  }

  std::vector<ScriptEntry> script_;
  std::size_t cursor_ = 0;
};

}  // namespace

const char* ToString(Kind kind) {
  switch (kind) {
    case Kind::kNone:
      return "none";
    case Kind::kObliviousRate:
      return "oblivious_rate";
    case Kind::kPrimaryCamper:
      return "primary_camper";
    case Kind::kGreedyReactive:
      return "greedy_reactive";
    case Kind::kRandomBudgeted:
      return "random_budgeted";
    case Kind::kScripted:
      return "scripted";
    case Kind::kPhaseTracking:
      return "phase_tracking";
    case Kind::kLookahead:
      return "lookahead";
    case Kind::kLearning:
      return "learning";
    case Kind::kProbing:
      return "probing";
  }
  return "unknown";
}

std::optional<Kind> ParseAdversaryKind(std::string_view name) {
  if (name == "none") return Kind::kNone;
  if (name == "oblivious_rate") return Kind::kObliviousRate;
  if (name == "primary_camper") return Kind::kPrimaryCamper;
  if (name == "greedy_reactive") return Kind::kGreedyReactive;
  if (name == "random_budgeted") return Kind::kRandomBudgeted;
  if (name == "scripted") return Kind::kScripted;
  if (name == "phase_tracking") return Kind::kPhaseTracking;
  if (name == "lookahead") return Kind::kLookahead;
  if (name == "learning") return Kind::kLearning;
  if (name == "probing") return Kind::kProbing;
  return std::nullopt;
}

void AdversarySpec::Validate() const {
  CRMC_REQUIRE_MSG(std::isfinite(rate) && rate >= 0.0 && rate <= 1.0,
                   "adversary rate must be in [0, 1], got " << rate);
  CRMC_REQUIRE_MSG(rate == 0.0 || kind == Kind::kObliviousRate,
                   "adversary rate only applies to --adversary "
                   "oblivious_rate, got kind "
                       << ToString(kind));
  CRMC_REQUIRE_MSG(budget >= 0,
                   "adversary budget must be >= 0, got " << budget);
  CRMC_REQUIRE_MSG(
      budget == 0 || Budgeted(),
      "adversary budget only applies to budgeted strategies; "
          << ToString(kind) << " ignores it — leave --adversary-budget unset");
  CRMC_REQUIRE_MSG(per_round_cap >= 1,
                   "adversary per-round cap must be >= 1, got "
                       << per_round_cap);
  CRMC_REQUIRE_MSG(probe_budget >= 0,
                   "adversary probe budget must be >= 0, got "
                       << probe_budget);
  CRMC_REQUIRE_MSG(
      probe_budget == 0 || kind == Kind::kProbing,
      "a probe budget only applies to the probing adversary; "
          << ToString(kind) << " ignores it — leave --probe-budget unset");
  CRMC_REQUIRE_MSG(script.empty() || kind == Kind::kScripted,
                   "a jam script only applies to the scripted adversary, "
                   "got kind "
                       << ToString(kind));
  if (kind == Kind::kScripted) {
    CRMC_REQUIRE_MSG(!script.empty(),
                     "scripted adversary requires a non-empty script");
    for (const ScriptEntry& e : script) {
      CRMC_REQUIRE_MSG(e.round >= 0 && e.channel >= 1,
                       "scripted adversary entries need round >= 0 and "
                       "channel >= 1, got round "
                           << e.round << " channel " << e.channel);
    }
  }
}

std::unique_ptr<Adversary> MakeAdversary(const AdversarySpec& spec) {
  switch (spec.kind) {
    case Kind::kNone:
    case Kind::kObliviousRate:
      return nullptr;
    case Kind::kPrimaryCamper:
      return std::make_unique<PrimaryCamper>();
    case Kind::kGreedyReactive:
      return std::make_unique<GreedyReactive>();
    case Kind::kRandomBudgeted:
      return std::make_unique<RandomBudgeted>();
    case Kind::kScripted:
      return std::make_unique<ScriptedAdversary>(spec.script);
    case Kind::kPhaseTracking:
      return std::make_unique<PhaseTracking>();
    case Kind::kLookahead:
      return std::make_unique<Lookahead>();
    case Kind::kLearning:
      return std::make_unique<Learning>();
    case Kind::kProbing:
      return std::make_unique<Probing>(spec.probe_budget);
  }
  return nullptr;
}

AdversaryRun::AdversaryRun(const AdversarySpec& spec, std::uint64_t run_seed) {
  Reset(spec, run_seed);
}

void AdversaryRun::Reset(const AdversarySpec& spec, std::uint64_t run_seed) {
  active_ = spec.Budgeted();
  needs_observation_ = false;
  ledger_ = BudgetLedger();
  last_obs_.Clear();
  jams_.clear();
  rounds_held_ = 0;
  repeat_ = false;
  lease_ = 0;
  kept_ = 0;
  planned_from_ = -1;
  if (!active_) return;
  if (strategy_ != nullptr && kind_ == spec.kind) {
    strategy_->Reset(spec);
  } else {
    strategy_ = MakeAdversary(spec);
    kind_ = spec.kind;
  }
  needs_observation_ = strategy_->needs_observation();
  obs_ = spec.obs;
  ledger_ = BudgetLedger(spec.budget, spec.per_round_cap);
  rng_ = support::RandomSource::ForStream(
      AdvMasterSeed(run_seed, spec.adv_seed), kPlanStream);
}

std::span<const mac::ChannelId> AdversaryRun::Plan(std::int64_t round,
                                                   std::int32_t channels,
                                                   std::int32_t allowance) {
  if (allowance <= 0) {
    // An allowance never grows back: nothing planned later can be kept.
    jams_.clear();
    lease_ = 0;
    return {};
  }
  PlanContext ctx;
  ctx.round = round;
  ctx.channels = channels;
  ctx.allowance = allowance;
  ctx.remaining = ledger_.remaining();
  ctx.last = last_obs_.valid() ? &last_obs_ : nullptr;
  ctx.rng = &rng_;
  ctx.kept = kept_;
  jams_.clear();
  strategy_->PlanJams(ctx, jams_);
  for (std::size_t i = 0; i < jams_.size(); ++i) {
    CRMC_CHECK_MSG(jams_[i] >= 1 && jams_[i] <= channels,
                   "strategy " << ToString(kind_)
                             << " planned out-of-range channel " << jams_[i]
                             << " of " << channels);
    for (std::size_t j = 0; j < i; ++j) {
      CRMC_CHECK_MSG(jams_[i] != jams_[j],
                     "strategy " << ToString(kind_)
                               << " planned duplicate channel " << jams_[i]);
    }
  }
  kept_ = 0;
  lease_ = strategy_->lease();
  planned_from_ = last_obs_.round;
  return Commit(allowance);
}

void AdversaryRun::RecordSightings(const mac::Resolver& resolver) {
  last_obs_.sightings.clear();
  for (const mac::ChannelId ch : resolver.touched_channels()) {
    const std::int32_t tx = resolver.ActivityOf(ch).transmitters;
    if (tx <= 0) continue;  // listener-only channels radiate nothing
    last_obs_.sightings.push_back(
        {ch, obs_ == ObsMode::kFull ? tx : -1});
  }
}

}  // namespace crmc::adversary
