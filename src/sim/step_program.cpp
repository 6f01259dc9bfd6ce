// The columnar step programs. Each stage of the general algorithm is
// written once, as stage code that keeps its own per-node columns and
// shared step: KnockoutStage (Reduce's coin rounds, or the fair-coin CD
// knockout), IdrCycle (IDReduction's spread / confirm / knock cycle) and
// LeafMachine (LeafElection). Each exposes a per-node materialized round
// (emit an action, advance on feedback) and, where the stage has one, a
// whole fused round. The standalone programs run one stage over every
// alive node; GeneralProgram runs them in sequence, dispatching each node
// to its stage. The stages leave what a node does when its stage ends to
// the program: a survivor of Reduce's schedule finishes alone and enters
// IDReduction in General, and a node renamed by IDReduction finishes alone
// and enters LeafElection in General.
#include "sim/step_program.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <optional>
#include <utility>

#include "core/channel_budget.h"
#include "simd/kernels.h"
#include "support/assert.h"
#include "support/bits.h"
#include "tree/channel_tree.h"

namespace crmc::sim {
namespace {

using mac::Action;
using mac::Feedback;
using mac::kPrimaryChannel;
using support::AssumptionBreach;
using support::BatchBernoulli;
using support::BatchUniformInt;
using tree::ChannelTree;

// ---------------------------------------------------------------------------
// Fused-round helpers. FastRound implementations below execute a whole
// pristine strong-CD round — draws, resolution, transitions — without
// materializing Action/Feedback arrays; the SIMD kernels (src/simd/) do the
// per-lane loops. Draw order per lane is identical to EmitActions, so the
// fused and generic paths are bit-exact (the engine parity suite runs both).

// One all-on-primary coin round: mask[k] = coin.Draw(rng[alive[k]]),
// transmitters charged to node_tx, channel effects recorded. Returns the
// number of transmitters.
std::int64_t PrimaryCoinRound(const BatchBernoulli& coin,
                              const BatchContext& ctx,
                              std::span<const NodeId> alive,
                              std::span<std::int64_t> node_tx,
                              std::vector<std::uint8_t>& mask,
                              FastRoundEffects* fx) {
  const std::size_t m = alive.size();
  mask.resize(m);
  const std::int64_t tx = simd::CoinMask(coin, ctx.rng, alive, mask);
  // Charge only the transmitters. They are few (Reduce's coins are about
  // 1/n, and a p = 1/n round usually has none), so the mask is read eight
  // bytes at a time, all-zero words are skipped, and the scan stops once
  // every transmitter is charged. Mask bytes are 0 or 1, so a word's
  // popcount is its transmitter count.
  std::int64_t left = tx;
  std::size_t k = 0;
  for (; left > 0 && k + 8 <= m; k += 8) {
    std::uint64_t word;
    std::memcpy(&word, mask.data() + k, sizeof(word));
    if (word == 0) continue;
    for (std::size_t j = k; j < k + 8; ++j) {
      node_tx[static_cast<std::size_t>(alive[j])] += mask[j];
    }
    left -= std::popcount(word);
  }
  for (; left > 0 && k < m; ++k) {
    node_tx[static_cast<std::size_t>(alive[k])] += mask[k];
    left -= mask[k];
  }
  fx->transmissions += tx;
  if (tx == 1) {
    fx->lone_deliveries += 1;
    fx->primary_lone_delivered = true;
  }
  return tx;
}

// One fused knockout coin round (the CD knockout, a Reduce round,
// IDReduction's knock round): PrimaryCoinRound, then the strong-CD finish
// rule. One transmitter ends everyone (the lone leader plus every listener
// that heard it), two or more end the listeners only, zero end no one.
// Returns true when every alive node finished, so callers can skip their
// survivor transitions.
bool FusedKnockout(const BatchBernoulli& coin, const BatchContext& ctx,
                   std::span<const NodeId> alive,
                   std::span<std::int64_t> node_tx,
                   std::vector<std::uint8_t>& mask,
                   std::span<std::uint8_t> finished, FastRoundEffects* fx) {
  const std::int64_t tx =
      PrimaryCoinRound(coin, ctx, alive, node_tx, mask, fx);
  if (tx == 1) {
    std::fill(finished.begin(), finished.end(), std::uint8_t{1});
    return true;
  }
  if (tx >= 2) {
    // Through a span: a byte store could alias the vector's own fields.
    const std::span<const std::uint8_t> sent = mask;
    for (std::size_t k = 0; k < sent.size(); ++k) {
      finished[k] = static_cast<std::uint8_t>(!sent[k]);
    }
  }
  return false;
}

// The same round for one node, materialized. Its action: transmit on the
// primary channel with the coin's probability, else listen there.
Action CoinAction(const BatchBernoulli& coin, support::StreamRef rng) {
  return coin.Draw(rng) ? Action::Transmit(kPrimaryChannel)
                        : Action::Listen(kPrimaryChannel);
}

// Its finish rule: a lone transmitter is the leader, a listener that heard
// anyone is knocked out, and either one finishes (sets `finished`). A
// transmitter never hears silence.
AssumptionBreach KnockoutFinished(const Action& action, const Feedback& fb,
                                  std::uint8_t& finished) {
  if (action.transmit) {
    CRMC_STEP_CHECK(!fb.Silence());
    if (fb.MessageHeard()) finished = 1;
  } else if (!fb.Silence()) {
    finished = 1;
  }
  return {};
}

// ---------------------------------------------------------------------------
// TwoActive (core/two_active.cpp flattened). Phase tags mirror the
// coroutine's control flow: uniform renaming, SplitCheck binary search,
// final primary-channel round — or the single-channel coin-flip duel.

class TwoActiveProgram final : public StepProgram {
 public:
  explicit TwoActiveProgram(core::TwoActiveParams params) : params_(params) {}

  std::string_view name() const override { return "two_active"; }

  void Reset(const BatchContext& ctx) override {
    channels_ = core::TwoActiveChannels(ctx.channels, ctx.population, params_);
    duel_ = channels_ < 2;
    if (!duel_) {
      tree_.emplace(channels_);
      rename_draw_.emplace(1, channels_);
    }
    const auto n = static_cast<std::size_t>(ctx.num_active);
    phase_.assign(n, duel_ ? kDuel : kRename);
    id_.assign(n, 0);
    lo_.assign(n, 0);
    hi_.assign(n, 0);
  }

  void EmitActions(const BatchContext& ctx, std::span<const NodeId> alive,
                   std::span<Action> actions) override {
    for (std::size_t k = 0; k < alive.size(); ++k) {
      const auto s = static_cast<std::size_t>(alive[k]);
      support::StreamRef rng = ctx.rng[s];
      switch (phase_[s]) {
        case kDuel:
          actions[k] = CoinAction(coin_, rng);
          break;
        case kRename:
          id_[s] = static_cast<std::int32_t>(rename_draw_->Draw(rng));
          actions[k] = Action::Transmit(static_cast<mac::ChannelId>(id_[s]));
          break;
        case kSearch: {
          const std::int32_t mid = (lo_[s] + hi_[s]) / 2;
          actions[k] = Action::Transmit(static_cast<mac::ChannelId>(
              tree_->IndexWithinLevel(id_[s], mid)));
          break;
        }
        case kFinalTx:
          actions[k] = Action::Transmit(kPrimaryChannel);
          break;
        case kFinalListen:
          actions[k] = Action::Listen(kPrimaryChannel);
          break;
      }
    }
  }

  AssumptionBreach Advance(const BatchContext&, std::span<const NodeId> alive,
                           std::span<const Action>,
                           std::span<const Feedback> feedback,
                           std::span<std::uint8_t> finished) override {
    for (std::size_t k = 0; k < alive.size(); ++k) {
      const auto s = static_cast<std::size_t>(alive[k]);
      const Feedback& fb = feedback[k];
      switch (phase_[s]) {
        case kDuel:
          // Winner hears itself alone; loser hears the winner's message.
          if (fb.MessageHeard()) finished[k] = 1;
          break;
        case kRename:
          CRMC_STEP_CHECK(!fb.Silence());
          if (fb.MessageHeard()) {  // alone: channel label becomes the ID
            phase_[s] = kSearch;
            lo_[s] = 0;
            hi_[s] = tree_->height();
          }
          break;
        case kSearch: {
          CRMC_STEP_CHECK(!fb.Silence());
          const std::int32_t mid = (lo_[s] + hi_[s]) / 2;
          if (fb.Collision()) {
            lo_[s] = mid + 1;  // still shared at `mid`: divergence is deeper
          } else {
            hi_[s] = mid;
          }
          if (lo_[s] >= hi_[s]) {
            const std::int32_t split = lo_[s];
            CRMC_STEP_CHECK_MSG(split >= 1, "paths cannot diverge at the root");
            phase_[s] = tree_->AncestorIsLeftChild(id_[s], split)
                            ? kFinalTx
                            : kFinalListen;
          }
          break;
        }
        case kFinalTx:
          CRMC_STEP_CHECK_MSG(
              fb.MessageHeard(),
              "two-active winner was not alone on the primary channel");
          finished[k] = 1;
          break;
        case kFinalListen:
          finished[k] = 1;
          break;
      }
    }
    return {};
  }

  // The two-active run is fully lockstep: in duel mode every round is a
  // primary-channel coin round; otherwise the two nodes share lo/hi bounds
  // and move through kRename -> kSearch together (they either both rename
  // or both stay; every search round updates both bounds identically), and
  // the run ends on a {kFinalTx, kFinalListen} pair. Anything else — more
  // or fewer than two nodes outside duel mode, or a same-final-phase pair,
  // which the generic path reports as a breach — declines.
  bool FastRound(const BatchContext& ctx, std::span<const NodeId> alive,
                 std::span<std::int64_t> node_tx,
                 std::span<std::uint8_t> finished,
                 FastRoundEffects* fx) override {
    if (duel_) {
      const std::int64_t tx =
          PrimaryCoinRound(coin_, ctx, alive, node_tx, mask_, fx);
      if (tx == 1) {  // everyone heard the lone duel winner
        std::fill(finished.begin(), finished.end(), std::uint8_t{1});
      }
      return true;
    }
    if (alive.size() != 2) return false;
    const auto s0 = static_cast<std::size_t>(alive[0]);
    const auto s1 = static_cast<std::size_t>(alive[1]);
    if (phase_[s0] != phase_[s1]) {
      const bool final_pair =
          (phase_[s0] == kFinalTx && phase_[s1] == kFinalListen) ||
          (phase_[s0] == kFinalListen && phase_[s1] == kFinalTx);
      if (!final_pair) return false;
      ++node_tx[phase_[s0] == kFinalTx ? s0 : s1];
      fx->transmissions += 1;
      fx->lone_deliveries += 1;
      fx->primary_lone_delivered = true;
      finished[0] = 1;
      finished[1] = 1;
      return true;
    }
    switch (phase_[s0]) {
      case kRename: {
        const auto id0 =
            static_cast<std::int32_t>(rename_draw_->Draw(ctx.rng[s0]));
        const auto id1 =
            static_cast<std::int32_t>(rename_draw_->Draw(ctx.rng[s1]));
        id_[s0] = id0;
        id_[s1] = id1;
        ++node_tx[s0];
        ++node_tx[s1];
        fx->transmissions += 2;
        if (id0 != id1) {  // both alone: renamed, and maybe solved outright
          fx->lone_deliveries += 2;
          fx->primary_lone_delivered =
              id0 == kPrimaryChannel || id1 == kPrimaryChannel;
          for (const std::size_t s : {s0, s1}) {
            phase_[s] = kSearch;
            lo_[s] = 0;
            hi_[s] = tree_->height();
          }
        }
        return true;
      }
      case kSearch: {
        const std::int32_t mid = (lo_[s0] + hi_[s0]) / 2;
        const std::int32_t ch0 = tree_->IndexWithinLevel(id_[s0], mid);
        const std::int32_t ch1 = tree_->IndexWithinLevel(id_[s1], mid);
        ++node_tx[s0];
        ++node_tx[s1];
        fx->transmissions += 2;
        if (ch0 == ch1) {  // still shared at `mid`: divergence is deeper
          lo_[s0] = lo_[s1] = mid + 1;
        } else {
          fx->lone_deliveries += 2;
          fx->primary_lone_delivered =
              ch0 == kPrimaryChannel || ch1 == kPrimaryChannel;
          hi_[s0] = hi_[s1] = mid;
        }
        if (lo_[s0] >= hi_[s0]) {
          const std::int32_t split = lo_[s0];
          CRMC_PROTO_CHECK_MSG(split >= 1, "paths cannot diverge at the root");
          for (const std::size_t s : {s0, s1}) {
            phase_[s] = tree_->AncestorIsLeftChild(id_[s], split)
                            ? kFinalTx
                            : kFinalListen;
          }
        }
        return true;
      }
      default:
        return false;  // same-phase final pair: let the generic check fire
    }
  }

  // Duel rounds have no cross-node invariant (any number of nodes flip
  // independent coins), so a jammed duel re-fuses immediately. Otherwise
  // FastRound needs exactly the two-node lockstep it documents above: a
  // shared non-final phase with shared search bounds, or the terminal
  // {kFinalTx, kFinalListen} pair. A same-phase final pair also reports
  // restored — FastRound declines it side-effect-free and the generic
  // path's Advance reports the breach exactly as it would have unfused.
  bool LockstepRestored(const BatchContext&,
                        std::span<const NodeId> alive) override {
    if (duel_) return true;
    if (alive.size() != 2) return false;
    const auto s0 = static_cast<std::size_t>(alive[0]);
    const auto s1 = static_cast<std::size_t>(alive[1]);
    if (phase_[s0] != phase_[s1]) {
      return (phase_[s0] == kFinalTx && phase_[s1] == kFinalListen) ||
             (phase_[s0] == kFinalListen && phase_[s1] == kFinalTx);
    }
    if (phase_[s0] == kSearch) return lo_[s0] == lo_[s1] && hi_[s0] == hi_[s1];
    return true;
  }

  const core::TwoActiveParams& params() const { return params_; }

 private:
  enum Phase : std::uint8_t { kDuel, kRename, kSearch, kFinalTx, kFinalListen };

  core::TwoActiveParams params_;
  std::int32_t channels_ = 0;
  bool duel_ = false;
  std::optional<ChannelTree> tree_;
  std::optional<BatchUniformInt> rename_draw_;
  BatchBernoulli coin_{0.5};

  std::vector<std::uint8_t> phase_;
  std::vector<std::int32_t> id_;  // renamed channel label / duel unused
  std::vector<std::int32_t> lo_;
  std::vector<std::int32_t> hi_;
  std::vector<std::uint8_t> mask_;  // FastRound coin-mask scratch
};

// ---------------------------------------------------------------------------
// Knockout coin rounds on the primary channel: the whole of the classic
// single-channel CD knockout (core/reduce.cpp, RunKnockoutCd: a fair coin
// every round until someone wins, also the general algorithm's C = O(1)
// fallback) and of Reduce (core/reduce.cpp: the schedule of Figure 2, two
// rounds per iteration at probability 1/n_hat, n_hat square-rooted between
// iterations). The prepared Bernoullis amortize the threshold computation
// across all nodes of a round. The schedule is a pure function of the
// population (the params are fixed per program), so it is rebuilt only
// when the population changes: the per-trial Resets of a sweep reuse it and
// allocate nothing.
//
// Every alive node is at the same step: all start at step 0, and in every
// round each survivor either finishes or takes the next step, whatever its
// feedback says (a jam, an erasure or a flipped detector only decides
// which), and a crash only removes nodes. So the step is kept once for all
// of them. What a survivor of Reduce's schedule does next is the caller's:
// it finishes when Reduce runs alone, and starts IDReduction in the
// general algorithm.

class KnockoutStage {
 public:
  explicit KnockoutStage(core::ReduceParams params) : params_(params) {}

  // Starts Reduce's schedule for `population`, or the fair-coin knockout.
  void Start(bool fair, std::int64_t population) {
    fair_ = fair;
    step_ = 0;
    if (fair || population == population_) return;
    population_ = population;
    const std::int32_t iterations =
        support::CeilLgLg(
            static_cast<std::uint64_t>(population < 2 ? 2 : population)) +
        params_.extra_iterations;
    coins_.clear();
    double n_hat = static_cast<double>(population);
    for (std::int32_t iter = 0; iter < iterations; ++iter) {
      const BatchBernoulli b(1.0 / n_hat);
      coins_.push_back(b);
      coins_.push_back(b);
      n_hat = std::sqrt(n_hat);
      if (n_hat < 2.0) n_hat = 2.0;
    }
  }

  const BatchBernoulli& coin() const {
    return fair_ ? fair_coin_ : coins_[step_];
  }

  // Moves the survivors of a round to the next step. Returns true when
  // Reduce's schedule is over; the fair knockout never ends.
  bool Next() { return !fair_ && ++step_ == coins_.size(); }

 private:
  core::ReduceParams params_;
  bool fair_ = false;
  BatchBernoulli fair_coin_{0.5};
  std::int64_t population_ = -1;  // the population coins_ was built for
  std::vector<BatchBernoulli> coins_;
  std::size_t step_ = 0;  // index into coins_, shared
};

// Reduce alone, or the CD knockout alone: every alive node is in the stage.
class KnockoutProgram final : public StepProgram {
 public:
  KnockoutProgram(core::ReduceParams params, bool fair)
      : fair_(fair), stage_(params) {}

  std::string_view name() const override {
    return fair_ ? "knockout_cd" : "reduce";
  }

  void Reset(const BatchContext& ctx) override {
    stage_.Start(fair_, ctx.population);
  }

  void EmitActions(const BatchContext& ctx, std::span<const NodeId> alive,
                   std::span<Action> actions) override {
    for (std::size_t k = 0; k < alive.size(); ++k) {
      actions[k] = CoinAction(stage_.coin(),
                              ctx.rng[static_cast<std::size_t>(alive[k])]);
    }
  }

  AssumptionBreach Advance(const BatchContext&, std::span<const NodeId>,
                           std::span<const Action> actions,
                           std::span<const Feedback> feedback,
                           std::span<std::uint8_t> finished) override {
    for (std::size_t k = 0; k < finished.size(); ++k) {
      if (const AssumptionBreach breach =
              KnockoutFinished(actions[k], feedback[k], finished[k])) {
        return breach;
      }
    }
    if (stage_.Next()) {  // Reduce's survivors end with its schedule
      std::fill(finished.begin(), finished.end(), std::uint8_t{1});
    }
    return {};
  }

  bool FastRound(const BatchContext& ctx, std::span<const NodeId> alive,
                 std::span<std::int64_t> node_tx,
                 std::span<std::uint8_t> finished,
                 FastRoundEffects* fx) override {
    if (!FusedKnockout(stage_.coin(), ctx, alive, node_tx, mask_, finished,
                       fx) &&
        stage_.Next()) {
      std::fill(finished.begin(), finished.end(), std::uint8_t{1});
    }
    return true;
  }

  // FastRound's only cross-node assumption is the shared step, and no
  // feedback can split it: a jammed run re-fuses at once.
  bool LockstepRestored(const BatchContext&,
                        std::span<const NodeId>) override {
    return true;
  }

 private:
  bool fair_;
  KnockoutStage stage_;
  std::vector<std::uint8_t> mask_;  // FastRound coin-mask scratch
};

// ---------------------------------------------------------------------------
// IDReduction (core/id_reduction.cpp flattened): a three-round cycle of
// spread / confirm / knockout until renaming succeeds. Alive nodes move
// through the cycle in lockstep: in every round each survivor either
// leaves the cycle or takes the next position, whatever its feedback says,
// so the cycle position and the pair count are kept once for all of them.
//
// A node renamed at the confirm round leaves the cycle with its spread
// channel as its new ID (chan). The caller's `renamed(finished, s)` says
// what it does next: it finishes when IDReduction runs alone, and enters
// LeafElection in the general algorithm.

class IdrCycle {
 public:
  explicit IdrCycle(core::IdReductionParams params) : params_(params) {}

  // Starts the cycle over `eff` effective channels for `n` node slots. The
  // columns are only sized: the spread round, the cycle's first, writes a
  // node's chan and rename bit before any round reads them.
  void Reset(std::int32_t eff, std::size_t n) {
    CRMC_REQUIRE_MSG(eff >= 4,
                     "IDReduction needs at least 4 effective channels, got "
                         << eff);
    spread_.emplace(1, eff / 2);
    const double knock_k =
        std::max(2.0, std::sqrt(static_cast<double>(eff)) /
                          params_.knock_divisor);
    knock_.emplace(1.0 / knock_k);
    pos_ = 0;
    pairs_ = 0;
    chan_.resize(n);
    renamed_.resize(n);
    // ClassifyChannels scratch: spread channels lie in [1, eff/2], the +3
    // covers the gather padding; must start (and is kept) all-zero.
    counts_.assign(static_cast<std::size_t>(eff / 2) + 3, 0);
  }

  std::int32_t chan(std::size_t s) const { return chan_[s]; }

  Action Emit(std::size_t s, support::StreamRef rng) {
    switch (pos_) {
      case 0:  // spread over [C'/2]
        CheckPairs();
        chan_[s] = static_cast<std::int32_t>(spread_->Draw(rng));
        return Action::Transmit(static_cast<mac::ChannelId>(chan_[s]));
      case 1:  // confirm on the primary channel
        return renamed_[s] ? Action::Transmit(kPrimaryChannel)
                           : Action::Listen(kPrimaryChannel);
      default:  // knockout with probability 1/k
        return CoinAction(*knock_, rng);
    }
  }

  template <class Renamed>
  AssumptionBreach Advance(std::size_t s, const Action& action,
                           const Feedback& fb, std::uint8_t& finished,
                           Renamed&& renamed) {
    switch (pos_) {
      case 0:
        CRMC_STEP_CHECK(!fb.Silence());
        renamed_[s] = fb.MessageHeard() ? 1 : 0;  // alone on the channel
        return {};
      case 1:
        if (renamed_[s]) {
          renamed(finished, s);  // kActive with new_id = chan_[s]
        } else if (!fb.Silence()) {
          finished = 1;  // someone renamed and we did not
        }
        return {};
      default:  // solved outright, or knocked out
        return KnockoutFinished(action, fb, finished);
    }
  }

  // Moves the survivors of a round to the next cycle position.
  void Next() {
    if (pos_ == 2) {
      pos_ = 0;
      ++pairs_;
    } else {
      ++pos_;
    }
  }

  // The whole round fused, Next included.
  template <class Renamed>
  void FastRound(const BatchContext& ctx, std::span<const NodeId> alive,
                 std::span<std::int64_t> node_tx,
                 std::span<std::uint8_t> finished, FastRoundEffects* fx,
                 Renamed&& renamed) {
    const std::size_t m = alive.size();
    switch (pos_) {
      case 0: {  // spread over [C'/2]: everyone transmits on its pick
        CheckPairs();
        chan_scratch_.resize(m);
        simd::UniformFill(*spread_, ctx.rng, alive, chan_scratch_);
        lone_scratch_.resize(m);
        const simd::Occupancy occ = simd::ClassifyChannels(
            chan_scratch_, kPrimaryChannel, counts_, touched_, lone_scratch_);
        for (std::size_t k = 0; k < m; ++k) {
          const auto s = static_cast<std::size_t>(alive[k]);
          ++node_tx[s];
          chan_[s] = chan_scratch_[k];
          renamed_[s] = lone_scratch_[k];
        }
        fx->transmissions += static_cast<std::int64_t>(m);
        fx->lone_deliveries += occ.lone_channels;
        fx->primary_lone_delivered = occ.primary_lone;
        break;
      }
      case 1: {  // confirm: renamed nodes transmit on the primary channel
        std::int64_t r = 0;
        for (std::size_t k = 0; k < m; ++k) {
          const auto s = static_cast<std::size_t>(alive[k]);
          r += renamed_[s];
          node_tx[s] += renamed_[s];
        }
        fx->transmissions += r;
        if (r == 1) {
          fx->lone_deliveries += 1;
          fx->primary_lone_delivered = true;
        }
        if (r == 0) break;
        for (std::size_t k = 0; k < m; ++k) {
          const auto s = static_cast<std::size_t>(alive[k]);
          if (renamed_[s]) {
            renamed(finished[k], s);
          } else {
            finished[k] = 1;  // heard the renamed nodes
          }
        }
        break;
      }
      default:
        FusedKnockout(*knock_, ctx, alive, node_tx, mask_, finished, fx);
        break;
    }
    Next();
  }

 private:
  void CheckPairs() const {
    CRMC_CHECK_MSG(pairs_ < params_.max_pairs,
                   "IDReduction exceeded max_pairs — probability of this "
                   "is superpolynomially small; check parameters");
  }

  core::IdReductionParams params_;
  std::optional<BatchUniformInt> spread_;
  std::optional<BatchBernoulli> knock_;
  std::uint8_t pos_ = 0;    // 0 spread, 1 confirm, 2 knock; shared
  std::int64_t pairs_ = 0;  // completed cycles, shared
  std::vector<std::int32_t> chan_;  // channel picked in the spread round
  std::vector<std::uint8_t> renamed_;
  // FastRound scratch: coin mask, channel picks, per-lane lone flags, and
  // the ClassifyChannels histogram (all-zero between rounds) + dirty list.
  std::vector<std::uint8_t> mask_;
  std::vector<std::int32_t> chan_scratch_;
  std::vector<std::uint8_t> lone_scratch_;
  std::vector<std::uint16_t> counts_;
  std::vector<std::int32_t> touched_;
};

class IdReductionProgram final : public StepProgram {
 public:
  explicit IdReductionProgram(core::IdReductionParams params)
      : idr_(params) {}

  std::string_view name() const override { return "id_reduction"; }

  void Reset(const BatchContext& ctx) override {
    idr_.Reset(core::EffectiveChannels(ctx.channels, ctx.population),
               static_cast<std::size_t>(ctx.num_active));
  }

  void EmitActions(const BatchContext& ctx, std::span<const NodeId> alive,
                   std::span<Action> actions) override {
    for (std::size_t k = 0; k < alive.size(); ++k) {
      const auto s = static_cast<std::size_t>(alive[k]);
      actions[k] = idr_.Emit(s, ctx.rng[s]);
    }
  }

  AssumptionBreach Advance(const BatchContext&, std::span<const NodeId> alive,
                           std::span<const Action> actions,
                           std::span<const Feedback> feedback,
                           std::span<std::uint8_t> finished) override {
    for (std::size_t k = 0; k < alive.size(); ++k) {
      if (const AssumptionBreach breach =
              idr_.Advance(static_cast<std::size_t>(alive[k]), actions[k],
                           feedback[k], finished[k], Finish)) {
        return breach;
      }
    }
    idr_.Next();
    return {};
  }

  bool FastRound(const BatchContext& ctx, std::span<const NodeId> alive,
                 std::span<std::int64_t> node_tx,
                 std::span<std::uint8_t> finished,
                 FastRoundEffects* fx) override {
    idr_.FastRound(ctx, alive, node_tx, finished, fx, Finish);
    return true;
  }

 private:
  // A renamed node ends the run as kActive.
  static void Finish(std::uint8_t& finished, std::size_t) { finished = 1; }

  IdrCycle idr_;
};

// ---------------------------------------------------------------------------
// LeafElection (core/leaf_election.cpp + core/split_primitives.cpp
// flattened). The per-node micro program counter walks root check ->
// SplitSearch refinements (CheckLevel pairs + announce) -> pairing, with
// the zero-round refinement bookkeeping folded into Advance. Shared
// between the standalone program and the composed general program.

struct LeafMachine {
  enum Pc : std::uint8_t { kRoot, kProbe, kVerdict, kIdleRounds, kAnnounce,
                           kPair };

  std::optional<ChannelTree> tree;
  bool force_binary = false;

  // Columns, indexed by node slot.
  std::vector<std::int32_t> leaf, cid, csize, cnode_heap, cnode_level;
  std::vector<std::int32_t> l_min, l_max, probe_dist, k_bound;
  std::vector<std::uint8_t> pc, which, probe_collided, first_res, second_res,
      idle_left;

  // Sizes the columns for n slots without clearing them: a slot's state is
  // set by Enter when its node joins the election, and in the general
  // algorithm only the few IDReduction winners ever do.
  void Init(std::int32_t num_leaves, bool force_binary_in, std::size_t n) {
    tree.emplace(num_leaves);
    force_binary = force_binary_in;
    for (auto* col : {&leaf, &cid, &csize, &cnode_heap, &cnode_level, &l_min,
                      &l_max, &probe_dist, &k_bound}) {
      col->resize(n);
    }
    for (auto* col : {&pc, &which, &probe_collided, &first_res, &second_res,
                      &idle_left}) {
      col->resize(n);
    }
  }

  // Place node slot `s` on `leaf_label` as a singleton cohort; its next
  // round is the phase-1 root check. These are the columns the machine
  // reads before it writes them; every path writes the others (bounds,
  // probe state, idle count) first, so a reused program never sees a value
  // an earlier run left there.
  void Enter(std::size_t s, std::int32_t leaf_label) {
    leaf[s] = leaf_label;
    cid[s] = 1;
    csize[s] = 1;
    cnode_heap[s] = tree->LeafHeapIndex(leaf_label);
    cnode_level[s] = tree->height();
    pc[s] = kRoot;
  }

  // Boundary level l_i of the current refinement (SplitSearch).
  std::int32_t Boundary(std::size_t s, std::int32_t i) const {
    return i >= k_bound[s] ? l_max[s] : l_min[s] + i * probe_dist[s];
  }

  // Zero-round transition after the root check or an announce: either set
  // up the next (p+1)-ary refinement or conclude SplitSearch and move to
  // pairing at split_level == l_max.
  AssumptionBreach EnterRefinementOrPair(std::size_t s) {
    if (l_max[s] > l_min[s] + 1) {
      const std::int32_t range = l_max[s] - l_min[s];
      const std::int32_t arity = force_binary ? 2 : csize[s] + 1;
      probe_dist[s] =
          static_cast<std::int32_t>(support::CeilDiv(range, arity));
      k_bound[s] =
          static_cast<std::int32_t>(support::CeilDiv(range, probe_dist[s]));
      CRMC_CHECK(k_bound[s] >= 2 && k_bound[s] <= arity);
      if (cid[s] < k_bound[s]) {
        pc[s] = kProbe;  // this member probes levels l_cid and l_(cid+1)
        which[s] = 0;
      } else {
        pc[s] = kIdleRounds;  // idle through the 4 CheckLevel rounds
        idle_left[s] = 4;
      }
    } else {
      CRMC_STEP_CHECK(l_max[s] >= 1 && l_max[s] <= cnode_level[s]);
      pc[s] = kPair;
    }
    return {};
  }

  Action Emit(std::size_t s) const {
    const ChannelTree& tr = *tree;
    switch (pc[s]) {
      case kRoot:
        return cid[s] == 1 ? Action::Transmit(kPrimaryChannel)
                           : Action::Listen(kPrimaryChannel);
      case kProbe: {
        const std::int32_t lvl =
            Boundary(s, which[s] == 0 ? cid[s] : cid[s] + 1);
        return Action::Transmit(
            tr.ChannelOf(tr.AncestorAtLevel(leaf[s], lvl)));
      }
      case kVerdict: {
        const std::int32_t lvl =
            Boundary(s, which[s] == 0 ? cid[s] : cid[s] + 1);
        return probe_collided[s] ? Action::Transmit(tr.RowChannel(lvl))
                                 : Action::Listen(tr.RowChannel(lvl));
      }
      case kIdleRounds:
        return Action::Idle();
      case kAnnounce: {
        const mac::ChannelId ch = tr.ChannelOf(cnode_heap[s]);
        if (cid[s] < k_bound[s] && cid[s] == 1 && !first_res[s]) {
          return Action::Transmit(ch, mac::Message{0});
        }
        if (cid[s] < k_bound[s] && first_res[s] && !second_res[s]) {
          return Action::Transmit(
              ch, mac::Message{static_cast<std::uint64_t>(cid[s])});
        }
        return Action::Listen(ch);
      }
      case kPair: {
        const std::int32_t parent =
            tr.AncestorAtLevel(leaf[s], l_max[s] - 1);
        return cid[s] == 1 ? Action::Transmit(tr.ChannelOf(parent))
                           : Action::Listen(tr.ChannelOf(parent));
      }
    }
    CRMC_CHECK(false);  // unreachable
    return Action::Idle();
  }

  // Sets `leaves` when node slot `s` leaves the election this round (as the
  // leader or as a partner-less cohort going inactive).
  AssumptionBreach Advance(std::size_t s, const Action& action,
                           const Feedback& fb, std::uint8_t& leaves) {
    switch (pc[s]) {
      case kRoot:
        CRMC_STEP_CHECK(!fb.Silence());  // every cohort has a master
        if (fb.MessageHeard()) {  // lone master broadcast: done
          leaves = 1;
          return {};
        }
        l_min[s] = 0;
        l_max[s] = cnode_level[s];
        return EnterRefinementOrPair(s);
      case kProbe:
        CRMC_STEP_CHECK(!fb.Silence());
        probe_collided[s] = fb.Collision() ? 1 : 0;
        pc[s] = kVerdict;
        return {};
      case kVerdict: {
        // CheckLevel verdict: a collided probe already decided "shared";
        // otherwise the row channel spreads the other probers' verdict.
        const std::uint8_t result =
            probe_collided[s] ? 1 : (fb.Silence() ? 0 : 1);
        if (which[s] == 0) {
          first_res[s] = result;
          which[s] = 1;
          pc[s] = kProbe;
        } else {
          second_res[s] = result;
          pc[s] = kAnnounce;
        }
        return {};
      }
      case kIdleRounds:
        if (--idle_left[s] == 0) pc[s] = kAnnounce;
        return {};
      case kAnnounce: {
        std::int32_t subrange;
        if (action.transmit) {
          CRMC_STEP_CHECK_VALUE(fb.MessageHeard(),
                                "two announcers in one cohort (subrange %lld)",
                                action.message.payload);
          subrange = static_cast<std::int32_t>(action.message.payload);
        } else {
          CRMC_STEP_CHECK_VALUE(fb.MessageHeard(),
                                "cohort announcement missing on channel %lld",
                                tree->ChannelOf(cnode_heap[s]));
          subrange = static_cast<std::int32_t>(fb.message.payload);
        }
        CRMC_STEP_CHECK(subrange >= 0 && subrange < k_bound[s]);
        // Compute both bounds before assigning: Boundary reads l_min.
        const std::int32_t new_min = Boundary(s, subrange);
        const std::int32_t new_max = Boundary(s, subrange + 1);
        l_min[s] = new_min;
        l_max[s] = new_max;
        return EnterRefinementOrPair(s);
      }
      case kPair: {
        CRMC_STEP_CHECK(!fb.Silence());  // our own master transmitted
        if (!fb.Collision()) {  // no partner cohort: inactive
          leaves = 1;
          return {};
        }
        const std::int32_t split = l_max[s];
        if (!tree->AncestorIsLeftChild(leaf[s], split)) {
          cid[s] += csize[s];  // right-subtree cohort shifts its IDs up
        }
        csize[s] *= 2;
        cnode_heap[s] = tree->AncestorAtLevel(leaf[s], split - 1);
        cnode_level[s] = split - 1;
        pc[s] = kRoot;
        return {};
      }
    }
    CRMC_CHECK(false);  // unreachable
    return {};
  }
};

class LeafElectionProgram final : public StepProgram {
 public:
  LeafElectionProgram(std::vector<std::int32_t> leaves,
                      std::int32_t num_leaves,
                      core::LeafElectionParams params)
      : leaves_(std::move(leaves)), num_leaves_(num_leaves), params_(params) {}

  std::string_view name() const override { return "leaf_election"; }

  void Reset(const BatchContext& ctx) override {
    CRMC_REQUIRE(static_cast<std::size_t>(ctx.num_active) == leaves_.size());
    CRMC_REQUIRE_MSG(2 * num_leaves_ - 1 <= ctx.channels,
                     "tree with " << num_leaves_ << " leaves needs "
                                  << 2 * num_leaves_ - 1
                                  << " channels, have " << ctx.channels);
    machine_.Init(num_leaves_, params_.force_binary_search, leaves_.size());
    for (std::size_t s = 0; s < leaves_.size(); ++s) {
      machine_.Enter(s, leaves_[s]);
    }
  }

  void EmitActions(const BatchContext&, std::span<const NodeId> alive,
                   std::span<Action> actions) override {
    for (std::size_t k = 0; k < alive.size(); ++k) {
      actions[k] = machine_.Emit(static_cast<std::size_t>(alive[k]));
    }
  }

  AssumptionBreach Advance(const BatchContext&, std::span<const NodeId> alive,
                           std::span<const Action> actions,
                           std::span<const Feedback> feedback,
                           std::span<std::uint8_t> finished) override {
    for (std::size_t k = 0; k < alive.size(); ++k) {
      if (const AssumptionBreach breach =
              machine_.Advance(static_cast<std::size_t>(alive[k]), actions[k],
                               feedback[k], finished[k])) {
        return breach;
      }
    }
    return {};
  }

 private:
  std::vector<std::int32_t> leaves_;
  std::int32_t num_leaves_;
  core::LeafElectionParams params_;
  LeafMachine machine_;
};

// ---------------------------------------------------------------------------
// The composed general algorithm (core/general.cpp): Reduce -> IDReduction
// -> LeafElection, with the single-channel knockout fallback for C = O(1),
// run on the shared stage code above. Stage transitions replicate the
// coroutine step composition: Reduce survivors all enter IDReduction in
// the same round, and the nodes renamed by IDReduction all enter
// LeafElection (on leaf = new ID) in the same round.
//
// Every node outside LeafElection is at the same stage: all nodes start
// Reduce (or the fallback) together, and the stages keep their step once
// for all their nodes, so a fused round costs its draws, not a per-node
// write of the next step. Per node there is only a LeafElection flag,
// IDReduction's channel pick and rename bit, and the LeafElection machine.

class GeneralProgram final : public StepProgram {
 public:
  explicit GeneralProgram(core::GeneralParams params)
      : params_(params), knock_(params.reduce), idr_(params.id_reduction) {}

  std::string_view name() const override { return "general"; }

  void Reset(const BatchContext& ctx) override {
    const std::int32_t eff =
        core::EffectiveChannels(ctx.channels, ctx.population);
    const bool fallback = eff < params_.min_channels;
    stage_ = kKnockout;
    const auto n = static_cast<std::size_t>(ctx.num_active);
    in_leaf_.assign(n, 0);
    if (!fallback) {
      // The IDReduction and LeafElection columns are only sized: a node's
      // values there are set when it reaches that stage, and few of the
      // |A| nodes get that far.
      idr_.Reset(eff, n);
      leaf_.Init(eff / 2, params_.leaf_election.force_binary_search, n);
    }
    knock_.Start(fallback, ctx.population);
  }

  void EmitActions(const BatchContext& ctx, std::span<const NodeId> alive,
                   std::span<Action> actions) override {
    for (std::size_t k = 0; k < alive.size(); ++k) {
      const auto s = static_cast<std::size_t>(alive[k]);
      if (in_leaf_[s]) {
        actions[k] = leaf_.Emit(s);
      } else if (stage_ == kIdr) {
        actions[k] = idr_.Emit(s, ctx.rng[s]);
      } else {
        actions[k] = CoinAction(knock_.coin(), ctx.rng[s]);
      }
    }
  }

  AssumptionBreach Advance(const BatchContext&, std::span<const NodeId> alive,
                           std::span<const Action> actions,
                           std::span<const Feedback> feedback,
                           std::span<std::uint8_t> finished) override {
    for (std::size_t k = 0; k < alive.size(); ++k) {
      const auto s = static_cast<std::size_t>(alive[k]);
      AssumptionBreach breach;
      if (in_leaf_[s]) {
        breach = leaf_.Advance(s, actions[k], feedback[k], finished[k]);
      } else if (stage_ == kIdr) {
        breach = idr_.Advance(
            s, actions[k], feedback[k], finished[k],
            [this](std::uint8_t&, std::size_t r) { EnterLeaf(r); });
      } else {
        breach = KnockoutFinished(actions[k], feedback[k], finished[k]);
      }
      if (breach) return breach;
    }
    NextStep();
    return {};
  }

  // The shared stage holds for every alive node until the renamed nodes
  // enter LeafElection, and on a fused run the rest finish in that same
  // round. The LeafElection rounds decline: their per-cohort control flow
  // has no batched win, and the engine takes the generic path for the
  // remainder of the run's rounds.
  bool FastRound(const BatchContext& ctx, std::span<const NodeId> alive,
                 std::span<std::int64_t> node_tx,
                 std::span<std::uint8_t> finished,
                 FastRoundEffects* fx) override {
    if (in_leaf_[static_cast<std::size_t>(alive[0])]) return false;
    if (stage_ == kIdr) {
      idr_.FastRound(ctx, alive, node_tx, finished, fx,
                     [this](std::uint8_t&, std::size_t s) { EnterLeaf(s); });
    } else {
      FusedKnockout(knock_.coin(), ctx, alive, node_tx, mask_, finished, fx);
      NextStep();
    }
    return true;
  }

 private:
  enum Stage : std::uint8_t { kKnockout, kIdr };

  // Moves the nodes outside LeafElection one step on, after a round in
  // which each of them either finished or took that step.
  void NextStep() {
    if (stage_ == kIdr) {
      idr_.Next();
    } else if (knock_.Next()) {
      stage_ = kIdr;  // survivors: IDReduction starts next round
    }
  }

  // An IDReduction renamed node elects over leaf = new ID.
  void EnterLeaf(std::size_t s) {
    in_leaf_[s] = 1;
    leaf_.Enter(s, idr_.chan(s));
  }

  core::GeneralParams params_;
  KnockoutStage knock_;  // Reduce, or the fallback
  IdrCycle idr_;
  LeafMachine leaf_;
  Stage stage_ = kKnockout;  // shared by every node outside LeafElection
  std::vector<std::uint8_t> in_leaf_;
  std::vector<std::uint8_t> mask_;  // FastRound coin-mask scratch
};

}  // namespace

std::unique_ptr<StepProgram> MakeTwoActiveProgram(
    core::TwoActiveParams params) {
  return std::make_unique<TwoActiveProgram>(params);
}

std::optional<core::TwoActiveParams> TwoActiveParamsOf(
    const StepProgram& program) {
  const auto* two_active = dynamic_cast<const TwoActiveProgram*>(&program);
  if (two_active == nullptr) return std::nullopt;
  return two_active->params();
}

std::unique_ptr<StepProgram> MakeReduceProgram(core::ReduceParams params) {
  return std::make_unique<KnockoutProgram>(params, /*fair=*/false);
}

std::unique_ptr<StepProgram> MakeIdReductionProgram(
    core::IdReductionParams params) {
  return std::make_unique<IdReductionProgram>(params);
}

std::unique_ptr<StepProgram> MakeLeafElectionProgram(
    std::vector<std::int32_t> leaves, std::int32_t num_leaves,
    core::LeafElectionParams params) {
  return std::make_unique<LeafElectionProgram>(std::move(leaves), num_leaves,
                                               params);
}

std::unique_ptr<StepProgram> MakeKnockoutCdProgram() {
  return std::make_unique<KnockoutProgram>(core::ReduceParams{},
                                           /*fair=*/true);
}

std::unique_ptr<StepProgram> MakeGeneralProgram(core::GeneralParams params) {
  return std::make_unique<GeneralProgram>(params);
}

}  // namespace crmc::sim
