// Robust execution layer: delivery confirmation, epoch retry with bounded
// exponential backoff, and phase watchdogs.
//
// E22/E23 (EXPERIMENTS.md) showed the paper's algorithms are brittle in
// exactly the way the model permits: a single reactive jam on Reduce's
// all-listen round makes every node terminate *deluded* — convinced the
// problem is solved when no lone primary delivery ever landed. The
// robustness literature (Jiang & Zheng, arXiv:2111.06650; Bender et al.,
// arXiv:2408.11275) shows jamming-robustness is bought by trading rounds
// for confirmation. This subsystem realises that trade as an engine-level
// wrapper that composes over ANY registered protocol:
//
//   1. Delivery confirmation. A round with exactly one primary-channel
//      transmitter is a *candidate*. If the transmission was delivered,
//      strong CD already acks it (the winner observes kMessage). If it was
//      suppressed (jammed/erased), the engine inserts up to
//      `confirm_attempts` echo/verify rounds: the candidate winner
//      retransmits on the primary channel while every other live node
//      listens there. An unsuppressed echo both *solves* the run (it is a
//      lone primary delivery) and *confirms* it (the winner observes
//      kMessage; the quiesced listeners witness the delivery). The
//      adversary must spend budget on every echo to keep the claim open.
//
//   2. Epoch retry with bounded exponential backoff. When an epoch fails —
//      every node terminated without a confirmed delivery (the deluded
//      exit), a watchdog expired, or a protocol assumption was violated —
//      the engine re-enters the protocol in a fresh epoch: all non-crashed
//      nodes restart with RNG streams re-salted by the epoch index, after
//      an exponentially growing pause of all-idle backoff rounds. The
//      pause is a honeypot: silence is indistinguishable from an all-listen
//      round, so reactive jammers keep spending budget on it.
//
//   3. Phase watchdogs. Per-stage round budgets derived from the w.h.p.
//      bounds of the general algorithm's pipeline (Reduce / IDReduction /
//      LeafElection) sum into a per-epoch budget; a separate stall budget
//      bounds rounds without observable progress. A jammed stage restarts
//      the epoch instead of stalling to max_rounds.
//
// The one round loop (sim::BatchEngine::Run, which also runs the coroutine
// protocols through an adapter program) drives the layer through the
// EpochDriver below, so wrapped runs are bit-exact whichever form the
// protocol takes; with the layer disabled — or enabled over a pristine,
// unjammed run — execution is bit-identical to an unwrapped run (epoch 0
// uses the unsalted seed, and the confirmation path inserts zero rounds
// when the candidate delivers).
// The *adaptive* policy (PolicyKind::kAdaptive, PR 7) closes the arms-race
// loop the static constants leave open: a wrapper-aware jammer (the
// lookahead/learning strategies) holds its budget through the honeypot and
// outlasts any fixed schedule. The adaptive policy instead sizes the
// defenses online from the adversary's *observed spend*, reusing the E20
// estimation discipline (core/estimation.h: noisy per-round signals are
// combined by a median over a fixed number of independent samples):
//
//   a. Fault-aware confirmation quorum. The per-epoch echo-suppression
//      rate — jams and erasures alike, the wrapper cannot tell and does
//      not care — is estimated as a median over the last
//      kEstimatorSamples per-epoch samples (Laplace-smoothed), and the
//      confirmation loop runs until the w.h.p. quorum ConfirmQuorum(p, n)
//      is met: the smallest k with p^k <= 1/n, capped at
//      kMaxConfirmQuorum and never below spec.confirm_attempts (the floor
//      wins over the cap). Under erasure/flaky-CD
//      a dropped echo no longer burns the whole epoch (the quorum grows
//      just enough to push the failure probability back below 1/n); under
//      a reactive jammer every suppressed echo *raises* the estimate,
//      which lengthens the exchange — one suppressed candidate can force
//      the jammer to spend up to kMaxConfirmQuorum budget or lose the
//      claim, which is what drains a honeypot-evading adversary.
//   b. Epoch budgets. Every adaptive echo round extends the epoch's
//      watchdog budget by one: the quorum exchange is the wrapper's own
//      spend-forcing and must not trip the restart watchdog.
//   c. Honeypot sizing. The backoff pause is a drain for adversaries that
//      spend on silence; one that holds through it makes the pause pure
//      overhead. Pauses after the first retry are trimmed to a single
//      probe round while the observed honeypot yield (jams landing on
//      backoff rounds) is zero, and restored to the full schedule the
//      moment the adversary is seen spending there.
//
// With PolicyKind::kStatic every knob keeps its spec value and the driver
// is bit-identical to the PR 5 wrapper; an adaptive wrapper over a
// pristine run never observes a suppression and is likewise bit-identical
// to the bare run.
//
// The *hardened* policy (PolicyKind::kHardened, arms-race round 3) is the
// adaptive policy plus timing obfuscation. The adaptive defenses all react
// to spend, so a probing adversary that calibrates in epoch 0 — mapping the
// epoch-relative offset of the fragile all-listen verdict round — can kill
// every retry epoch with one predictively placed jam and never feed the
// quorum drain. Hardened makes that calibration read nothing stable, at
// zero cost to a pristine run (both knobs act only from the first retry
// epoch, so epoch 0 stays bit-identical to static and to the bare run):
//
//   d. Jittered honeypots. Where adaptive trims an unyielding pause to a
//      constant single round (itself a learnable tell: a run of isolated
//      1-round silences), hardened draws the trimmed pause uniformly from
//      [1, min(schedule, kHardenedPauseSpan)] per epoch, from a dedicated
//      salted stream of the run seed. Spend on backoff rounds still
//      restores the full drain schedule.
//   e. Quorum-obfuscating dummy confirm rounds (reactive chaff). A probing
//      striker's tell is the protocol's own visible contention: it waits
//      for any sighting that is not a lone primary transmission — a
//      collision, or side-channel coordination traffic — and then jams the
//      rounds right behind it, where the fragile all-listen verdict rounds
//      (or the solving delivery itself) sit. Hardened answers on exactly
//      that trigger: after any retry-epoch protocol round with non-lone
//      observable activity it inserts a burst of fabricated confirm rounds
//      (burst length drawn kHardenedDummyMin..kHardenedDummyMax per epoch
//      from the same salted stream) in which the two lowest-index alive
//      nodes transmit together on the primary channel — a guaranteed
//      collision that can never deliver, indistinguishable from the
//      contention that triggered it. While the adversary keeps jamming the
//      chaff the burst extends, one round per jammed dummy, up to
//      kHardenedDummyWindow rounds per epoch: the strike window exhausts
//      itself on chaff and the true fragile rounds behind it run unjammed.
//      Jams landing on chaff (or on backoff honeypots) are counted as
//      detected probe rounds.
//   f. Jam credit. The cheapest way to beat any retry wrapper is not to
//      outwit it but to outlast it: saturation jamming stalls every epoch
//      into the watchdog until max_epochs is spent, at budget ~ max_epochs
//      x stall budget. The resource-competitive answer is that a jammed
//      round is time the adversary *bought with budget*, not protocol
//      stagnation: under the hardened policy a protocol round the
//      adversary jammed earns the epoch watchdog one round of credit and
//      holds the stall clock. Epochs then survive any coverage the budget
//      can pay for, the budget drains, and the epoch completes once the
//      jamming stops — the wrapper trades rounds for the adversary's
//      budget at par instead of trading retries. The credit extends to the
//      retry allowance: an epoch that fails with adversary jams on record
//      was beaten by spend, not by bad luck, and is not charged against
//      max_epochs — only unexplained (jam-free) failures consume retries,
//      so the adversary's budget and max_rounds, never the retry counter,
//      bound how long a saturating jammer holds the run down. (This reads
//      the engine's per-round jam count, the same observability
//      NoteBackoffRound and NoteDummyRound already rely on; a
//      stealth-jammer model that hides jams inside ordinary collisions is
//      the round-4 question.)
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "mac/channel.h"

namespace crmc::robust {

// How the wrapper's tuning knobs evolve at runtime (RobustSpec::policy).
enum class PolicyKind : std::uint8_t {
  kStatic = 0,  // PR 5 behaviour: every knob is a constant from the spec
  kAdaptive,    // knobs sized online from observed adversary spend
  kHardened,    // adaptive + jittered honeypots and dummy confirm rounds
                // (timing obfuscation against calibrating adversaries)
};

const char* ToString(PolicyKind policy);
std::optional<PolicyKind> ParsePolicyKind(std::string_view name);

// Hard ceiling on the adaptive confirmation quorum (echo rounds per
// suppressed candidate). Bounds one exchange's round cost and, dually, the
// budget an adversary can be forced to spend per candidate. Must stay
// within RobustSpec::confirm_attempts' validated range.
inline constexpr std::int32_t kMaxConfirmQuorum = 512;

// Samples in the suppression-rate median estimator (matches the E20
// estimators' default sample count; odd to avoid median ties).
inline constexpr std::int32_t kEstimatorSamples = 5;

// Hardened-policy obfuscation constants (file comment, items d/e). The
// pause span bounds the jittered honeypot draw; the dummy min/max bound the
// initial chaff burst a non-lone sighting triggers, and the window caps the
// total chaff rounds one retry epoch may insert. The window is sized to
// absorb two full kDefaultProbeBudget calibration strikes per epoch; the
// jam-extension rule stops there, so a striker with a deeper window than
// kHardenedDummyWindow + the verdict depth still gets through — that is
// the knob round 4 of the arms race will fight over.
inline constexpr std::int64_t kHardenedPauseSpan = 8;
inline constexpr std::int32_t kHardenedDummyMin = 2;
inline constexpr std::int32_t kHardenedDummyMax = 4;
inline constexpr std::int32_t kHardenedDummyWindow = 48;

// Engine-facing robust-execution configuration (embedded in
// sim::EngineConfig and harness::TrialSpec). Defaults are inert: enabled
// == false inserts no round and leaves the round loop unwrapped.
struct RobustSpec {
  bool enabled = false;
  // Static: PR 5 constants. Adaptive: confirmation quorum, epoch budgets
  // and backoff honeypots are sized online (see file comment).
  PolicyKind policy = PolicyKind::kStatic;
  // Maximum epochs (protocol restarts count from 1). The final epoch runs
  // to its natural end — timeout, termination, or abort — with no retry.
  std::int32_t max_epochs = 8;
  // Echo/verify rounds inserted per suppressed candidate (0 disables the
  // confirmation exchange; epoch retry still applies).
  std::int32_t confirm_attempts = 3;
  // Backoff pause before epoch e (e >= 1, 0-based): min(backoff_cap,
  // backoff_base << (e - 1)) all-idle rounds. backoff_base 0 disables the
  // pause entirely.
  std::int64_t backoff_base = 2;
  std::int64_t backoff_cap = 256;
  // Per-epoch round budget for the watchdog; 0 derives it from the w.h.p.
  // stage bounds (EpochRoundBudget below).
  std::int64_t epoch_round_budget = 0;
  // Rounds without observable progress before the stall watchdog restarts
  // the epoch; 0 derives it (StallRoundBudget below).
  std::int64_t stall_round_budget = 0;

  bool Active() const { return enabled; }
  // Hardened is adaptive-plus: every adaptive defense (estimator-sized
  // quorum, budget credit, honeypot sizing) applies to both policies.
  bool Adaptive() const {
    return enabled && policy != PolicyKind::kStatic;
  }
  bool Hardened() const {
    return enabled && policy == PolicyKind::kHardened;
  }

  // Throws std::invalid_argument, distinct message per violated
  // constraint (unit-tested). Robust tuning fields require enabled ==
  // true; the CLI surfaces these as flag errors.
  void Validate() const;
};

// Deterministic per-epoch seed: epoch 0 returns `seed` unchanged (epoch 0
// of a wrapped run is bit-identical to the unwrapped run), later epochs
// SplitMix64-mix the epoch index in, giving every restart fresh but
// reproducible per-node streams.
std::uint64_t EpochSeed(std::uint64_t seed, std::int32_t epoch);

// Backoff pause (in all-idle rounds) inserted before epoch `epoch`
// (0-based; epoch 0 has no pause).
std::int64_t BackoffRounds(const RobustSpec& spec, std::int32_t epoch);

// Per-stage w.h.p. round budgets for the general algorithm's pipeline,
// with generous constant slack (a pristine stage finishes far inside its
// budget; the watchdog only ever fires on runs an adversary has already
// derailed). Population is n, the w.h.p. parameter.
std::int64_t ReduceRoundBudget(std::int64_t population);
std::int64_t RenameRoundBudget(std::int64_t population, std::int32_t channels);
std::int64_t ElectRoundBudget(std::int64_t population, std::int32_t channels);

// The per-epoch watchdog budget: spec.epoch_round_budget when set,
// otherwise a slack multiple of the summed stage budgets.
std::int64_t EpochRoundBudget(const RobustSpec& spec, std::int64_t population,
                              std::int32_t channels);

// The stall watchdog budget: spec.stall_round_budget when set, otherwise
// O(log population) with slack — long enough that any healthy stage makes
// observable progress first.
std::int64_t StallRoundBudget(const RobustSpec& spec, std::int64_t population);

// W.h.p.-derived confirmation quorum for one population n and floor: the
// smallest number of echo attempts k with suppress_rate^k <= 1/n, clamped to
// max(floor_attempts, min(k, kMaxConfirmQuorum)) — the floor wins even over
// the cap, so the quorum never decreases in the rate. floor_attempts == 0
// disables confirmation outright (an explicit spec choice the adaptive
// policy respects) and returns 0. This is the one quorum formula: ln n and
// the rate at which the cap binds are computed once, at construction, so
// EpochDriver can hold a model for its run and refresh its quorum after
// every echo without a log in the common, capped case.
class QuorumModel {
 public:
  QuorumModel() = default;  // confirmation disabled: Quorum returns 0
  QuorumModel(std::int64_t population, std::int32_t floor_attempts);

  std::int32_t Quorum(double suppress_rate) const;
  // True iff `suppress_rate` is at or above p*, where Quorum is constant.
  bool AtCap(double suppress_rate) const {
    return suppress_rate >= cap_rate_;
  }

 private:
  double log_n_ = 0.0;
  // p* = exp(-ln n / (kMaxConfirmQuorum + 1)): at or above it the formula
  // always reaches the cap (see Quorum).
  double cap_rate_ = 1.0;
  std::int32_t floor_ = 0;
};

// QuorumModel(population, floor_attempts).Quorum(suppress_rate).
std::int32_t ConfirmQuorum(double suppress_rate, std::int64_t population,
                           std::int32_t floor_attempts);

// Index (into `actions`) of the round's lone primary-channel transmitter,
// or -1 if there is none. The round loop calls this on a candidate round
// to pick the echo-round winner; it passes its dense alive-ordered action
// array, so the result is the winner's alive slot.
std::int32_t FindPrimaryWinner(std::span<const mac::Action> actions);

// Per-run robust bookkeeping, owned once per run by the round loop
// (sim::BatchEngine::Run), which drives it at these points:
//
//   - CountRound() after every protocol, echo or chaff round of the epoch;
//   - ChaffTriggered(total_transmissions, primary_transmitters) after each
//     protocol round, then
//     TakeChaffBurst() / ExtendChaff() around NoteDummyRound(adv_jams) for
//     each fabricated dummy confirm round the trigger inserts;
//   - NoteCandidate() when a suppressed candidate opens a confirmation
//     exchange, then NoteEchoRound(delivered, adv_jams) after each echo;
//   - NoteBackoffRound(adv_jams) after each backoff honeypot round;
//   - WatchdogExpired(stall) at the end of each full round cycle;
//   - CanRetry() / BeginNextEpoch() when an epoch fails;
//   - SeedFor(run_seed) when (re)building node state for the epoch;
//   - PauseRounds() for the backoff pause before the current epoch.
//
// Under PolicyKind::kStatic the Note* calls only record accounting and
// every knob keeps its spec value — bit-identical to the PR 5 driver.
// Under kAdaptive they feed the estimators that size confirm_attempts(),
// PauseRounds() and the watchdog budget (see file comment). Under
// kHardened the retry-epoch schedule additionally carries the jitter and
// dummy-round obfuscation, drawn from a dedicated salted stream of
// `run_seed` at BeginNextEpoch, so the schedule is a pure function of the
// run seed and the epoch index.
//
// With spec.enabled == false the driver is inert: WatchdogExpired and
// CanRetry are always false, and the round loop never reaches the other
// calls.
class EpochDriver {
 public:
  EpochDriver(const RobustSpec& spec, std::int64_t population,
              std::int32_t channels, std::uint64_t run_seed)
      : spec_(spec),
        run_seed_(run_seed),
        epoch_budget_(spec.enabled ? EpochRoundBudget(spec, population,
                                                      channels)
                                   : 0),
        stall_budget_(spec.enabled ? StallRoundBudget(spec, population) : 0),
        // Only the adaptive policies read the model; the others skip its
        // log and exp.
        quorum_model_(spec.Adaptive()
                          ? QuorumModel(population, spec.confirm_attempts)
                          : QuorumModel()) {
    RefreshQuorum();
  }

  bool enabled() const { return spec_.enabled; }
  bool adaptive() const { return spec_.Adaptive(); }
  bool hardened() const { return spec_.Hardened(); }
  std::int32_t epoch() const { return epoch_; }
  // Static: the spec constant. Adaptive: the w.h.p. quorum for the current
  // suppression-rate estimate. The round loop's confirmation exchange
  // re-reads this bound after every echo, so an exchange escalates *while
  // it runs*: each suppressed echo raises the estimate, which raises the
  // quorum, until an echo delivers or kMaxConfirmQuorum caps the exchange.
  // A cached read: RefreshQuorum recomputes it wherever the estimator's
  // inputs change.
  std::int32_t confirm_attempts() const { return quorum_; }
  std::int64_t epoch_budget() const { return epoch_budget_; }
  std::int64_t stall_budget() const { return stall_budget_; }

  void CountRound() { ++epoch_rounds_; }

  // Hardened chaff hooks (file comment, item e). ChaffTriggered is asked
  // after every protocol round with that round's transmission counts: true
  // iff the round showed observable activity that was not a lone primary
  // transmission — exactly the probing striker's trigger — in a retry epoch
  // with chaff window to spare (always false for the other policies and in
  // epoch 0, so unconditional call sites cost nothing).
  bool ChaffTriggered(std::int64_t total_transmissions,
                      std::int32_t primary_transmitters) const {
    const bool non_lone =
        total_transmissions >= 1 &&
        !(total_transmissions == 1 && primary_transmitters == 1);
    return hardened() && epoch_ >= 1 && non_lone &&
           chaff_spent_ < kHardenedDummyWindow;
  }
  // Initial burst length for a triggered chaff insertion (the per-epoch
  // draw, clamped to the window's remainder).
  std::int32_t TakeChaffBurst() const {
    return std::min(chaff_burst_, kHardenedDummyWindow - chaff_spent_);
  }
  // One extra chaff round granted because the adversary jammed the last one
  // (0 once the epoch's window is spent).
  std::int32_t ExtendChaff() const {
    return chaff_spent_ < kHardenedDummyWindow ? 1 : 0;
  }

  // Hardened jam credit (file comment, item f): a protocol round the
  // adversary jammed is time bought with budget, not stagnation. It earns
  // the epoch watchdog one round of credit, and the returned flag tells
  // the engine to hold the stall clock for the round. Always false (and
  // a no-op) for the other policies, so the call site costs nothing.
  bool NoteProtocolRound(std::int32_t adv_jams) {
    if (!hardened() || adv_jams <= 0) return false;
    ++budget_extension_;
    epoch_jams_seen_ = true;
    return true;
  }

  // One fabricated dummy confirm round resolved; `adv_jams` is the bait
  // yield. Like an echo round, the dummy is the wrapper's own insertion —
  // it earns the epoch watchdog a round of credit.
  void NoteDummyRound(std::int32_t adv_jams) {
    ++chaff_spent_;
    ++obfuscation_rounds_;
    ++budget_extension_;
    if (adv_jams > 0) {
      ++probe_rounds_detected_;
      epoch_jams_seen_ = true;
    }
  }

  // A suppressed lone primary candidate opened a confirmation exchange.
  void NoteCandidate() { exchange_echoes_ = 0; }

  // One confirmation echo resolved. Always updates the hold/spend
  // accounting; under the adaptive policy also feeds the suppression
  // estimator, extends the epoch watchdog budget (the exchange is the
  // wrapper's own spend-forcing, not protocol stagnation) and tracks the
  // quorum escalation accounting.
  void NoteEchoRound(bool delivered, std::int32_t adv_jams) {
    if (hardened() && adv_jams > 0) epoch_jams_seen_ = true;
    ++exchange_echoes_;
    if (!adaptive()) return;
    ++epoch_echo_rounds_;
    if (!delivered) ++epoch_echo_failures_;
    ++budget_extension_;
    if (exchange_echoes_ > spec_.confirm_attempts) ++adaptive_confirm_extra_;
    // A suppressed echo raises the running sample (f + 1) / (r + 2)
    // (f <= r), so the estimate, the sample clamped between two banked
    // ones, cannot fall; and the quorum is constant from the cap rate up.
    // So once an echo of this epoch has put the estimate there, the next
    // suppressed one leaves the quorum as it is, without the division.
    if (delivered || !estimate_capped_) RefreshQuorum();
    confirm_quorum_peak_ = std::max(confirm_quorum_peak_, quorum_);
  }

  // One backoff honeypot round resolved; `adv_jams` is the observed yield.
  // A jam landing on a honeypot is a detected probe: the adversary read
  // the silence as worth spending on.
  void NoteBackoffRound(std::int32_t adv_jams) {
    ++backoff_rounds_seen_;
    backoff_jams_seen_ += adv_jams;
    if (adaptive() && adv_jams > 0) ++probe_rounds_detected_;
    if (hardened() && adv_jams > 0) epoch_jams_seen_ = true;
  }

  bool WatchdogExpired(std::int64_t stall_streak) const {
    return spec_.enabled &&
           (epoch_rounds_ >= epoch_budget_ + budget_extension_ ||
            stall_streak >= stall_budget_);
  }

  // Hardened jam credit, retry side (file comment, item f): an epoch that
  // failed with adversary jams on record does not consume a retry — only
  // jam-free failures count against max_epochs. free_retries_ tracks the
  // uncharged ones, so the charged count is epoch_ + 1 - free_retries_.
  bool CanRetry() const {
    if (!spec_.enabled) return false;
    if (hardened() && epoch_jams_seen_) return true;
    return epoch_ + 1 - free_retries_ < spec_.max_epochs;
  }

  void BeginNextEpoch();

  // Static: the spec's exponential schedule. Adaptive: trimmed to one
  // probe round (from the second retry on) while the observed honeypot
  // yield is zero — an adversary that holds through silence makes the
  // pause pure overhead. Hardened: the same trim, but jittered over
  // [1, min(schedule, kHardenedPauseSpan)] so the trimmed schedule is not
  // a learnable constant.
  std::int64_t PauseRounds() const;
  std::uint64_t SeedFor(std::uint64_t run_seed) const {
    return EpochSeed(run_seed, epoch_);
  }

  // ---- Adaptive-policy accounting (all zero under kStatic) ----
  // Echo rounds run beyond the static confirm_attempts schedule.
  std::int64_t adaptive_confirm_extra() const {
    return adaptive_confirm_extra_;
  }
  // Backoff honeypot rounds trimmed relative to the static schedule.
  std::int64_t adaptive_backoff_trimmed() const {
    return adaptive_backoff_trimmed_;
  }
  // Largest confirmation quorum that was in force during any exchange.
  std::int32_t confirm_quorum_peak() const { return confirm_quorum_peak_; }
  // Bait rounds (backoff honeypots or hardened dummy confirm rounds) the
  // adversary was seen jamming.
  std::int64_t probe_rounds_detected() const { return probe_rounds_detected_; }
  // Dummy confirm rounds the hardened policy actually inserted.
  std::int64_t obfuscation_rounds() const { return obfuscation_rounds_; }

 private:
  // Median-of-samples estimate of the probability that an echo round is
  // suppressed (jammed or erased — the wrapper cannot tell and does not
  // care): the upper median of the banked samples and the running epoch's.
  // O(1): the banked samples are kept sorted in sorted_ring_, so the median
  // is the running sample clamped between two of them. See robust.cpp.
  double SuppressionEstimate() const;
  // Recomputes quorum_ from the current estimate through quorum_model_.
  // Called where the estimator's inputs change: construction,
  // NoteEchoRound and BeginNextEpoch's ring bank. Costs no sort, and no log
  // once the estimate reaches the cap.
  void RefreshQuorum();

  RobustSpec spec_;
  std::uint64_t run_seed_ = 0;
  std::int32_t epoch_ = 0;
  std::int64_t epoch_rounds_ = 0;
  std::int64_t epoch_budget_ = 0;
  std::int64_t stall_budget_ = 0;
  // Adaptive state. epoch_echo_* are the running epoch's sample; completed
  // epochs' suppression ratios live in sample_ring_ (last kEstimatorSamples
  // epochs that ran any echo).
  std::int64_t budget_extension_ = 0;   // epoch-budget credit, resets per epoch
  std::int64_t exchange_echoes_ = 0;    // echoes in the open exchange
  std::int64_t epoch_echo_rounds_ = 0;
  std::int64_t epoch_echo_failures_ = 0;
  double sample_ring_[kEstimatorSamples] = {};
  // The first sample_count_ entries: sample_ring_'s samples in ascending
  // order, re-sorted only when BeginNextEpoch banks a sample.
  double sorted_ring_[kEstimatorSamples] = {};
  std::int32_t sample_count_ = 0;
  std::int32_t sample_next_ = 0;
  std::int64_t backoff_rounds_seen_ = 0;
  std::int64_t backoff_jams_seen_ = 0;
  std::int64_t adaptive_confirm_extra_ = 0;
  std::int64_t adaptive_backoff_trimmed_ = 0;
  std::int32_t confirm_quorum_peak_ = 0;
  QuorumModel quorum_model_;
  std::int32_t quorum_ = 0;  // confirm_attempts(), refreshed by RefreshQuorum
  // The last refresh included the running epoch's sample and put the
  // estimate at the model's cap rate (see NoteEchoRound).
  bool estimate_capped_ = false;
  // Hardened obfuscation state, redrawn per retry epoch (BeginNextEpoch).
  std::int64_t jittered_pause_ = 1;
  std::int32_t chaff_burst_ = 0;  // initial burst per trigger, drawn per epoch
  std::int32_t chaff_spent_ = 0;  // chaff rounds inserted this epoch
  bool epoch_jams_seen_ = false;  // adversary jam observed this epoch
  std::int64_t free_retries_ = 0;  // jam-covered retries, not charged
  std::int64_t probe_rounds_detected_ = 0;
  std::int64_t obfuscation_rounds_ = 0;
};

}  // namespace crmc::robust
