#include "robust/robust.h"

#include <algorithm>
#include <cmath>

#include "support/assert.h"
#include "support/rng.h"

namespace crmc::robust {
namespace {

// Mixing constant for epoch re-salting — distinct from the fault layer's
// (mac/faults.cpp) and the adversary's (adversary/adversary.cpp) so epoch
// streams are independent of both even for colliding seeds.
constexpr std::uint64_t kEpochSeedSalt = 0xE90C4B0FF5A1D3ULL;

// Mixing constant for the hardened policy's obfuscation stream — distinct
// from the epoch, fault and adversary salts, so the jitter/dummy draws are
// independent of every other stream even for colliding seeds. Stream id is
// the epoch index: the per-epoch schedule is a pure function of
// (run seed, epoch).
constexpr std::uint64_t kHardenedSeedSalt = 0x8A11D5EEDB0B5ULL;

std::int64_t CeilLg(std::int64_t x) {
  std::int64_t bits = 0;
  std::int64_t v = 1;
  while (v < x) {
    v <<= 1;
    ++bits;
  }
  return bits;
}

std::int64_t CeilLgLg(std::int64_t x) { return CeilLg(CeilLg(x) + 1); }

}  // namespace

const char* ToString(PolicyKind policy) {
  switch (policy) {
    case PolicyKind::kStatic:
      return "static";
    case PolicyKind::kAdaptive:
      return "adaptive";
    case PolicyKind::kHardened:
      return "hardened";
  }
  return "unknown";
}

std::optional<PolicyKind> ParsePolicyKind(std::string_view name) {
  if (name == "static") return PolicyKind::kStatic;
  if (name == "adaptive") return PolicyKind::kAdaptive;
  if (name == "hardened") return PolicyKind::kHardened;
  return std::nullopt;
}

void RobustSpec::Validate() const {
  if (!enabled) {
    const RobustSpec defaults;
    CRMC_REQUIRE_MSG(max_epochs == defaults.max_epochs &&
                         policy == defaults.policy &&
                         confirm_attempts == defaults.confirm_attempts &&
                         backoff_base == defaults.backoff_base &&
                         backoff_cap == defaults.backoff_cap &&
                         epoch_round_budget == defaults.epoch_round_budget &&
                         stall_round_budget == defaults.stall_round_budget,
                     "robust tuning options (--robust-policy, --max-epochs, "
                     "--confirm-attempts, --backoff, --backoff-cap, "
                     "--epoch-budget, --stall-budget) require --robust");
    return;
  }
  CRMC_REQUIRE_MSG(max_epochs >= 1,
                   "robust max_epochs must be >= 1, got " << max_epochs);
  CRMC_REQUIRE_MSG(confirm_attempts >= 0 && confirm_attempts <= 1024,
                   "robust confirm_attempts must be in [0, 1024], got "
                       << confirm_attempts);
  CRMC_REQUIRE_MSG(backoff_base >= 0,
                   "robust backoff base must be >= 0, got " << backoff_base);
  // Distinct from the base check above: a cap below the base would not
  // just be unusual, it silently degenerates the whole honeypot schedule
  // to a constant cap-length pause (BackoffRounds clamps every epoch).
  CRMC_REQUIRE_MSG(backoff_cap >= backoff_base,
                   "robust backoff cap (--backoff-cap) must be >= the "
                   "backoff base (--backoff) — a smaller cap degenerates "
                   "the honeypot schedule to a constant pause, got cap "
                       << backoff_cap << " base " << backoff_base);
  CRMC_REQUIRE_MSG(epoch_round_budget >= 0,
                   "robust epoch round budget must be >= 0 (0 derives it), "
                   "got "
                       << epoch_round_budget);
  CRMC_REQUIRE_MSG(stall_round_budget >= 0,
                   "robust stall round budget must be >= 0 (0 derives it), "
                   "got "
                       << stall_round_budget);
}

std::uint64_t EpochSeed(std::uint64_t seed, std::int32_t epoch) {
  if (epoch == 0) return seed;
  return support::SplitMix64(
             seed ^ (kEpochSeedSalt * static_cast<std::uint64_t>(epoch)))
      .Next();
}

std::int64_t BackoffRounds(const RobustSpec& spec, std::int32_t epoch) {
  if (epoch <= 0 || spec.backoff_base <= 0) return 0;
  // min(cap, base << (epoch - 1)) without shift overflow: once the shifted
  // value clears the cap the cap binds for every later epoch.
  std::int64_t pause = spec.backoff_base;
  for (std::int32_t e = 1; e < epoch && pause < spec.backoff_cap; ++e) {
    pause <<= 1;
  }
  return pause < spec.backoff_cap ? pause : spec.backoff_cap;
}

std::int64_t ReduceRoundBudget(std::int64_t population) {
  // Reduce runs 2*ceil(lglg n) iterations of 2 reps, one round per rep.
  return 4 * CeilLgLg(population);
}

std::int64_t RenameRoundBudget(std::int64_t population,
                               std::int32_t channels) {
  // IDReduction contracts the ID space by a log C' factor per iteration:
  // O(log n / log C') iterations, constant rounds each.
  const std::int64_t lg_c = CeilLg(channels) > 0 ? CeilLg(channels) : 1;
  return 16 + 8 * CeilLg(population) / lg_c;
}

std::int64_t ElectRoundBudget(std::int64_t population,
                              std::int32_t channels) {
  // LeafElection walks O(log h) tree levels, O(loglog x) rounds per level
  // (h <= C leaves, x <= n contenders).
  return 16 + 4 * (CeilLg(channels) + 1) * CeilLgLg(population);
}

std::int64_t EpochRoundBudget(const RobustSpec& spec, std::int64_t population,
                              std::int32_t channels) {
  if (spec.epoch_round_budget > 0) return spec.epoch_round_budget;
  const std::int64_t stages = ReduceRoundBudget(population) +
                              RenameRoundBudget(population, channels) +
                              ElectRoundBudget(population, channels);
  // 8x slack over the summed w.h.p. stage budgets: far beyond any pristine
  // execution, tight enough that a jammed epoch restarts long before
  // max_rounds.
  return 64 + 8 * stages;
}

std::int64_t StallRoundBudget(const RobustSpec& spec,
                              std::int64_t population) {
  if (spec.stall_round_budget > 0) return spec.stall_round_budget;
  return 32 + 4 * CeilLg(population);
}

std::int32_t ConfirmQuorum(double suppress_rate, std::int64_t population,
                           std::int32_t floor_attempts) {
  if (floor_attempts <= 0) return 0;  // confirmation explicitly disabled
  if (suppress_rate <= 0.0) return floor_attempts;
  if (suppress_rate >= 1.0) return kMaxConfirmQuorum;
  // Smallest k with p^k <= 1/n  ⇔  k >= ln(n) / -ln(p). This is the one
  // quorum formula: EpochDriver caches its result rather than re-deriving
  // it, so a run's quorum sequence is a pure function of the echo outcomes.
  const double n = static_cast<double>(population < 2 ? 2 : population);
  const double k = std::ceil(std::log(n) / -std::log(suppress_rate));
  if (k >= static_cast<double>(kMaxConfirmQuorum)) return kMaxConfirmQuorum;
  const auto quorum = static_cast<std::int32_t>(k);
  return std::max(quorum, floor_attempts);
}

double EpochDriver::SuppressionEstimate() const {
  // E20 estimation discipline (core/estimation.h): one noisy sample per
  // epoch, combined by a median over the last kEstimatorSamples samples.
  // Each sample is the epoch's Laplace-smoothed echo-suppression ratio
  // (failures + 1) / (echoes + 2); the running epoch contributes its
  // in-flight sample so an exchange under attack escalates immediately.
  double samples[kEstimatorSamples + 1];
  std::int32_t count = 0;
  for (std::int32_t i = 0; i < sample_count_; ++i) {
    samples[count++] = sample_ring_[i];
  }
  if (epoch_echo_rounds_ > 0) {
    samples[count++] =
        static_cast<double>(epoch_echo_failures_ + 1) /
        static_cast<double>(epoch_echo_rounds_ + 2);
  }
  if (count == 0) return 0.0;
  std::sort(samples, samples + count);
  return samples[count / 2];  // upper median for even counts
}

void EpochDriver::NoteEchoRound(bool delivered, std::int32_t adv_jams) {
  if (hardened() && adv_jams > 0) epoch_jams_seen_ = true;
  ++exchange_echoes_;
  if (!adaptive()) return;
  ++epoch_echo_rounds_;
  if (!delivered) ++epoch_echo_failures_;
  // The exchange is the wrapper's own spend-forcing: give the epoch
  // watchdog one round of credit per echo so a long quorum cannot trip it.
  ++budget_extension_;
  if (exchange_echoes_ > spec_.confirm_attempts) ++adaptive_confirm_extra_;
  RefreshQuorum();
  confirm_quorum_peak_ = std::max(confirm_quorum_peak_, quorum_);
}

void EpochDriver::RefreshQuorum() {
  quorum_ = adaptive() ? ConfirmQuorum(SuppressionEstimate(), population_,
                                       spec_.confirm_attempts)
                       : spec_.confirm_attempts;
}

void EpochDriver::BeginNextEpoch() {
  ++epoch_;
  // Retry-side jam credit (robust.h item f): the epoch that just failed is
  // not charged against max_epochs if the adversary spent into it.
  if (hardened() && epoch_jams_seen_) ++free_retries_;
  epoch_jams_seen_ = false;
  epoch_rounds_ = 0;
  budget_extension_ = 0;
  chaff_burst_ = 0;
  chaff_spent_ = 0;
  if (!adaptive()) return;
  if (hardened()) {
    // Redraw the epoch's obfuscation parameters from the dedicated salted
    // stream: a jittered honeypot length and the initial chaff burst a
    // primary collision triggers this epoch. The draws are unconditional
    // (PauseRounds and the trigger decide whether they apply) so the stream
    // stays in lockstep with the epoch index.
    support::RandomSource rng = support::RandomSource::ForStream(
        support::SplitMix64(run_seed_ ^ kHardenedSeedSalt).Next(),
        static_cast<std::uint64_t>(epoch_));
    jittered_pause_ = 1 + rng.UniformInt(0, kHardenedPauseSpan - 1);
    chaff_burst_ = static_cast<std::int32_t>(
        rng.UniformInt(kHardenedDummyMin, kHardenedDummyMax));
  }
  // Bank the finished epoch's suppression sample (only epochs that ran an
  // echo carry signal) into the median ring.
  if (epoch_echo_rounds_ > 0) {
    const double sample =
        static_cast<double>(epoch_echo_failures_ + 1) /
        static_cast<double>(epoch_echo_rounds_ + 2);
    sample_ring_[sample_next_] = sample;
    sample_next_ = (sample_next_ + 1) % kEstimatorSamples;
    sample_count_ = std::min(sample_count_ + 1, kEstimatorSamples);
    epoch_echo_rounds_ = 0;
    epoch_echo_failures_ = 0;
    RefreshQuorum();  // the in-flight sample moved into the ring
  }
  // Honeypot-trim accounting: PauseRounds() below is what the engine will
  // actually schedule for this epoch.
  adaptive_backoff_trimmed_ += BackoffRounds(spec_, epoch_) - PauseRounds();
}

std::int64_t EpochDriver::PauseRounds() const {
  const std::int64_t statically = BackoffRounds(spec_, epoch_);
  if (!adaptive() || epoch_ <= 1) return statically;
  // Honeypot sizing from observed spend: an adversary that holds through
  // silence makes the pause pure overhead — trim it to a single probe
  // round (enough to keep observing). One that spends on silence gets the
  // full drain schedule. The hardened policy jitters the trimmed length so
  // the schedule is not a learnable constant (a run of isolated 1-round
  // silences is exactly the tell the extended learning strategy banks on).
  if (backoff_jams_seen_ == 0 && statically > 1) {
    if (hardened()) return std::min(statically, jittered_pause_);
    return 1;
  }
  return statically;
}

std::int32_t FindPrimaryWinner(std::span<const mac::Action> actions) {
  for (std::size_t i = 0; i < actions.size(); ++i) {
    if (actions[i].transmit && actions[i].channel == mac::kPrimaryChannel) {
      return static_cast<std::int32_t>(i);
    }
  }
  return -1;
}

}  // namespace crmc::robust
