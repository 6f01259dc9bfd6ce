// Budgeted adaptive adversaries for the MAC substrate.
//
// PR 2's fault layer is *oblivious*: jam/erasure draws are i.i.d. per round
// and never look at the execution. The resource-competitive contention-
// resolution model (Jiang & Zheng, arXiv:2111.06650; Chen, Jiang & Zheng,
// arXiv:2102.09716) studies a strictly stronger opponent — a *reactive*
// jammer that watches channel activity and spends a bounded budget where it
// hurts most. This subsystem realises that opponent:
//
//   - An Adversary strategy plans, each round, which channels to jam given
//     last round's RoundObservation (observation.h) and the round allowance
//     its BudgetLedger (budget.h) grants.
//   - AdversaryRun is the driver the round loop owns, one per engine and
//     reset in place for every run: it derives a dedicated RNG stream
//     (independent of protocol and fault streams), enforces the budget/
//     cap/validity contract on whatever the strategy returns, and records
//     observations after each resolved round.
//
// Determinism contract: the planned jam set for round R is a pure function
// of (engine seed, adv_seed, strategy, observations of rounds < R). The one
// round loop (sim::BatchEngine::Run) calls PlanRound / ObserveRound at the
// same points for every round, protocol or fabricated, and runs coroutine
// protocols and their columnar step programs alike, so strategy state — and
// therefore the whole RunResult — is identical between the two forms.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "adversary/budget.h"
#include "adversary/observation.h"
#include "mac/channel.h"
#include "mac/resolver.h"
#include "support/assert.h"
#include "support/rng.h"

namespace crmc::adversary {

enum class Kind : std::uint8_t {
  kNone = 0,
  // PR 2's oblivious i.i.d. jamming, expressed in adversary terms. Not
  // driven by AdversaryRun: the engines lower it onto the fault injector's
  // jam stream (sim::EffectiveFaultSpec) so configs stay bit-identical to
  // the equivalent --jam-rate runs.
  kObliviousRate,
  kPrimaryCamper,    // always spends on channel 1, the solve channel
  kGreedyReactive,   // targets likely lone deliveries from last round's view
  kRandomBudgeted,   // spends uniformly at random — the fairness baseline
  kScripted,         // replays a fixed (round, channel) script — for tests
  kPhaseTracking,    // infers the protocol stage, strikes all-listen rounds
  kLookahead,        // models the robust wrapper: holds through honeypots,
                     // strikes confirmation echoes
  kLearning,         // lookahead that estimates the backoff schedule from
                     // observed inter-epoch silence gaps
  kProbing,          // holds through all silence, calibrates the epoch kill
                     // depth with one capped strike behind the first
                     // observed contention, retargets that depth at every
                     // later epoch, and fights self-caused exchanges until
                     // the claim dies
};

const char* ToString(Kind kind);
std::optional<Kind> ParseAdversaryKind(std::string_view name);

// Calibration spend ceiling used by kProbing when the spec leaves
// probe_budget at 0 (see AdversarySpec::probe_budget).
inline constexpr std::int64_t kDefaultProbeBudget = 24;

// One scripted jam: jam `channel` in round `round` (0-based).
struct ScriptEntry {
  std::int64_t round = 0;
  mac::ChannelId channel = mac::kPrimaryChannel;
};

// Engine-facing adversary configuration (embedded in sim::EngineConfig).
struct AdversarySpec {
  Kind kind = Kind::kNone;
  // Jam probability per touched channel per round — kObliviousRate only.
  double rate = 0.0;
  // Total jamming budget in channel-rounds (T) — budgeted kinds only.
  std::int64_t budget = 0;
  // At most this many channels jammed in any single round (K).
  std::int32_t per_round_cap = 1;
  // Eavesdropping strength (observation.h).
  ObsMode obs = ObsMode::kFull;
  // kProbing only: calibration strike window — the jam ceiling on the first
  // strike of the run, which measures the wrapper's epoch kill depth.
  // 0 means "use the built-in default" (kDefaultProbeBudget).
  std::int64_t probe_budget = 0;
  // Selects the adversary's dedicated RNG stream: same engine seed,
  // different adv_seed ⇒ a different jamming schedule over the same
  // protocol randomness.
  std::uint64_t adv_seed = 0;
  // kScripted only: the jams to replay, (round, channel) pairs.
  std::vector<ScriptEntry> script;

  bool Active() const { return kind != Kind::kNone; }
  // Kinds realised by an engine-side AdversaryRun; kObliviousRate instead
  // lowers onto the oblivious fault injector (see Kind comment).
  bool Budgeted() const {
    return kind != Kind::kNone && kind != Kind::kObliviousRate;
  }

  // Throws std::invalid_argument (distinct message per violated constraint).
  // Cross-field checks against the rest of the engine config — including
  // the adversary-vs-jam-rate conflict — live in sim::ValidateEngineConfig.
  void Validate() const;
};

// Per-round planning inputs handed to a strategy.
struct PlanContext {
  std::int64_t round = 0;     // the round being planned (0-based)
  std::int32_t channels = 0;  // C: legal channels are [1, channels]
  // min(per-round cap, remaining budget, channels) — the hard size limit
  // on the planned jam set. Always >= 1 when PlanJams is called.
  std::int32_t allowance = 0;
  // Unspent budget in channel-rounds (before this round's jams). Strategies
  // that ration spend across the run read this instead of duplicating the
  // ledger's arithmetic.
  std::int64_t remaining = 0;
  // Most recent observation (strictly earlier round), or nullptr before the
  // first observed round. Null for strategies with needs_observation()
  // false — they never get one.
  const RoundObservation* last = nullptr;
  // The adversary's dedicated RNG stream. Strategies that don't draw must
  // not touch it (determinism contract).
  support::RandomSource* rng = nullptr;
  // Repeated rounds the driver kept the strategy's previous plan for,
  // under the lease that plan granted (Adversary::lease), since PlanJams
  // last ran. PlanJams settles them before it plans. Always 0 for a
  // strategy that grants no lease.
  std::int64_t kept = 0;
};

// Strategy interface. PlanJams appends up to ctx.allowance distinct
// channels in [1, ctx.channels] to `out` (pre-cleared by the driver); the
// driver CRMC_CHECKs those bounds and charges the ledger.
//
// Kept plans: an echo train, a chaff burst or a backoff pause re-judges
// one round's activity round after round, so each of its observations
// repeats the one before. A strategy that can tell its plan comes out
// unchanged on such repeats grants a lease when it plans (lease()): the
// number of consecutive repeated rounds the plan holds for. While the
// newest observation repeats the one the latest plan (or kept round) was
// made from, and lease is left, the driver reuses the list without asking
// the strategy, and counts the round. The next PlanJams gets the count
// (PlanContext::kept) and settles it first: the strategy's state must
// come out exactly as if it had planned each kept round itself.
class Adversary {
 public:
  virtual ~Adversary() = default;
  // Whether the strategy reads RoundObservations. Observation-free
  // strategies let the batch engine keep its fused SIMD round loop alive
  // whenever the planned jam set is empty (e.g. after budget exhaustion).
  virtual bool needs_observation() const { return false; }
  virtual void PlanJams(const PlanContext& ctx,
                        std::vector<mac::ChannelId>& out) = 0;
  // The lease the latest PlanJams granted: for how many consecutive
  // repeated rounds right after it its plan holds (kUnboundedLease: until
  // the observations change). The default grants none.
  virtual std::int64_t lease() const { return 0; }
  // Returns the strategy to the state MakeAdversary(spec) builds, for a
  // `spec` of its own kind, keeping the capacity of its scratch buffers.
  virtual void Reset(const AdversarySpec& spec) = 0;
};

// A lease that lasts as long as the observations repeat.
inline constexpr std::int64_t kUnboundedLease =
    std::numeric_limits<std::int64_t>::max();

// Builds the strategy for `spec.kind`. Returns nullptr for kNone and
// kObliviousRate (not driver-backed; see Kind). `spec` must validate.
std::unique_ptr<Adversary> MakeAdversary(const AdversarySpec& spec);

// The driver of one run at a time. The round loop keeps one per engine and
// resets it for every run, calls PlanRound before resolving each round and
// ObserveRound after, and feeds the returned jam span to
// mac::Resolver::Resolve (or Tally, or Retally).
class AdversaryRun {
 public:
  // Inactive driver: PlanRound always returns an empty span.
  AdversaryRun() = default;

  // Same as a default driver followed by Reset(spec, run_seed).
  AdversaryRun(const AdversarySpec& spec, std::uint64_t run_seed);

  // Starts a run of `spec`: active iff spec.Budgeted(), with a full
  // ledger, no observation and no holds. The dedicated RNG stream is
  // derived from (run_seed, spec.adv_seed) and is always xoshiro-backed,
  // like the fault streams: the adversary draws O(cap) values per round,
  // so counter-based batching buys nothing, and this keeps schedules
  // identical across EngineConfig::rng kinds. A strategy of the same kind
  // as the previous run's is reset in place (Adversary::Reset), so a
  // warmed driver allocates nothing; another kind is built anew.
  void Reset(const AdversarySpec& spec, std::uint64_t run_seed);

  bool active() const { return active_; }
  // Cached at Reset: the round loop asks every round.
  bool needs_observation() const { return needs_observation_; }

  // Plans round `round`'s jam set: asks the strategy (if the allowance is
  // nonzero), enforces size/range/distinctness, charges the ledger. The
  // span stays valid until the next PlanRound call. While the strategy's
  // lease holds (see Adversary), the previous list is kept without asking
  // it: the size check, the hold count and the ledger charge still run,
  // while the range and distinctness checks, which held when the list was
  // planned, are not repeated. That kept path is defined here and forced
  // inline, so a kept round of an echo train costs the round loop no call.
  [[gnu::always_inline]] std::span<const mac::ChannelId> PlanRound(
      std::int64_t round, std::int32_t channels) {
    if (!active_) return {};
    const std::int32_t allowance = ledger_.RoundAllowance(channels);
    if (allowance > 0 && repeat_ && lease_ > 0 &&
        last_obs_.round == planned_from_ + 1) {
      --lease_;
      ++kept_;
      planned_from_ = last_obs_.round;
      return Commit(allowance);
    }
    return Plan(round, channels, allowance);
  }

  // Records what the adversary saw in the round just resolved (channels
  // with at least one transmitter, in the resolver's first-touched order;
  // counts censored under ObsMode::kActivity). No-op unless the strategy
  // needs observations. It reads only the resolver's channel activity, so
  // a tallied or re-judged round is observed exactly like a resolved one.
  // `repeat` says the round was re-judged (mac::Resolver::Retally) right
  // after the round this driver observed last: the activity, and so the
  // sightings, are unchanged, and only the observation's round is stamped.
  // Defined here: on a repeated round it is one store.
  void ObserveRound(const mac::Resolver& resolver, std::int64_t round,
                    bool repeat = false) {
    if (!needs_observation_) return;
    last_obs_.round = round;
    repeat_ = repeat;
    if (!repeat) RecordSightings(resolver);
  }

  const BudgetLedger& ledger() const { return ledger_; }

  // Rounds in which the ledger granted a positive allowance but the
  // strategy planned no jam — a deliberate *hold*. The lookahead/learning
  // strategies' honeypot evasion shows up here; a camper never holds.
  std::int64_t rounds_held() const { return rounds_held_; }

  // Repeated rounds the latest plan may still be kept for (0: the next
  // round asks the strategy).
  std::int64_t lease() const { return lease_; }

 private:
  // PlanRound without a lease to apply: settles the kept rounds and asks
  // the strategy (or plans nothing when the allowance is 0).
  std::span<const mac::ChannelId> Plan(std::int64_t round,
                                       std::int32_t channels,
                                       std::int32_t allowance);
  // The checks and accounting every planned or kept list passes.
  [[gnu::always_inline]] std::span<const mac::ChannelId> Commit(
      std::int32_t allowance) {
    if (jams_.empty()) ++rounds_held_;  // had allowance, chose not to spend
    CRMC_CHECK_MSG(static_cast<std::int32_t>(jams_.size()) <= allowance,
                   "strategy " << ToString(kind_) << " planned "
                             << jams_.size() << " jams, allowance "
                             << allowance);
    ledger_.Charge(static_cast<std::int32_t>(jams_.size()));
    return jams_;
  }
  // Rebuilds last_obs_'s sightings from the resolver's channel activity.
  void RecordSightings(const mac::Resolver& resolver);

  // Kept across runs, also inactive ones, for the next run of its kind.
  std::unique_ptr<Adversary> strategy_;
  Kind kind_ = Kind::kNone;  // strategy_'s kind
  bool active_ = false;
  bool needs_observation_ = false;
  BudgetLedger ledger_;
  support::RandomSource rng_;
  RoundObservation last_obs_;
  std::vector<mac::ChannelId> jams_;
  ObsMode obs_ = ObsMode::kFull;
  std::int64_t rounds_held_ = 0;
  // The newest observation repeats the one before it (ObserveRound).
  bool repeat_ = false;
  // The strategy's lease: repeated rounds left to keep jams_ for, kept
  // rounds not yet settled, and the observation round the latest plan or
  // kept round was made from (-1: none).
  std::int64_t lease_ = 0;
  std::int64_t kept_ = 0;
  std::int64_t planned_from_ = -1;
};

}  // namespace crmc::adversary
