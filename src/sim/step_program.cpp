#include "sim/step_program.h"

#include <algorithm>
#include <cmath>
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
using mac::kIdleChannel;
using mac::kPrimaryChannel;
using mac::Message;
using mac::Observation;
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
  mask.resize(alive.size());
  const std::int64_t tx = simd::CoinMask(coin, ctx.rng, alive, mask);
  // No transmitter means every mask byte is 0: nothing to charge. Reduce's
  // p = 1/n rounds land here in nearly every trial.
  if (tx != 0) {
    for (std::size_t k = 0; k < alive.size(); ++k) {
      node_tx[static_cast<std::size_t>(alive[k])] += mask[k];
    }
  }
  fx->transmissions += tx;
  if (tx == 1) {
    fx->lone_deliveries += 1;
    fx->primary_lone_delivered = true;
  }
  return tx;
}

// Strong-CD knockout finish rule (CD knockout, Reduce rounds, IDReduction
// knock round): one transmitter ends everyone (the lone leader plus every
// listener that heard it), two or more end the listeners only, zero end no
// one. Returns true when every alive node finished — callers can skip their
// survivor transitions.
bool KnockoutFinish(std::int64_t tx, std::span<const std::uint8_t> mask,
                    std::span<std::uint8_t> finished) {
  if (tx == 1) {
    std::fill(finished.begin(), finished.end(), std::uint8_t{1});
    return true;
  }
  if (tx >= 2) {
    for (std::size_t k = 0; k < mask.size(); ++k) {
      finished[k] = static_cast<std::uint8_t>(!mask[k]);
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Shared plumbing for the trial-parallel twins whose knockout rounds retire
// individual nodes while their lane continues (Reduce, IDReduction, the CD
// knockout, and the composed general program — unlike two_active, where a
// lane finishes all-or-nothing): per-lane alive sets live in one flat
// [lane * num_active + node] plane and are gathered each round into a
// lane-major slot list with per-lane segment bounds, so one kernel call
// covers every lane's draws while the knockout rule stays lane-local.

struct LaneAliveSet {
  std::int32_t n = 0;               // nodes per lane
  std::vector<std::uint8_t> alive;  // [lane * n + node]
  std::vector<std::int32_t> count;  // alive nodes per lane

  void Reset(std::int32_t lanes, std::int32_t nodes) {
    n = nodes;
    alive.assign(static_cast<std::size_t>(lanes) * nodes, 1);
    count.assign(static_cast<std::size_t>(lanes), nodes);
  }

  void Retire(std::int32_t lane, std::int32_t slot) {
    alive[static_cast<std::size_t>(slot)] = 0;
    --count[static_cast<std::size_t>(lane)];
  }
};

// Gathers the alive slots of every lane in `lanes` into `slots` (lane-major,
// node-ascending within a lane — the order the per-trial alive list keeps,
// so per-stream draw order is preserved) and records per-lane segment
// bounds: lane lanes[k] owns slots [seg[k], seg[k+1]).
void GatherAliveSlots(const LaneAliveSet& set,
                      std::span<const std::int32_t> lanes,
                      std::vector<std::int32_t>& slots,
                      std::vector<std::int32_t>& seg) {
  slots.clear();
  seg.clear();
  seg.push_back(0);
  for (const std::int32_t lane : lanes) {
    const std::int32_t base = lane * set.n;
    for (std::int32_t j = 0; j < set.n; ++j) {
      if (set.alive[static_cast<std::size_t>(base + j)]) {
        slots.push_back(base + j);
      }
    }
    seg.push_back(static_cast<std::int32_t>(slots.size()));
  }
}

// Applies the strong-CD knockout rule to one lane's segment of an
// already-evaluated coin mask: charges transmissions, retires silent
// listeners on a 2+ round, and ends the whole lane on a lone transmission
// (the lone leader solved the problem and every listener heard it).
// Returns true when the lane fully ended.
bool LaneKnockoutRound(LaneAliveSet& set, std::int32_t lane,
                       std::span<const std::int32_t> slots,
                       std::span<const std::uint8_t> mask,
                       std::span<std::int64_t> node_tx, LaneEffects& fx) {
  std::int64_t tx = 0;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    node_tx[static_cast<std::size_t>(slots[i])] += mask[i];
    tx += mask[i];
  }
  fx.transmissions = tx;
  if (tx == 1) {
    fx.lone_deliveries = 1;
    fx.primary_lone_delivered = true;
    fx.finished = true;
    for (const std::int32_t slot : slots) set.Retire(lane, slot);
    return true;
  }
  if (tx >= 2) {
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (!mask[i]) {
        set.Retire(lane, slots[i]);
        fx.nodes_retired = true;
      }
    }
  }
  return false;
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
    channels_ = core::EffectiveChannels(ctx.channels, ctx.population);
    if (params_.channel_cap > 0) {
      channels_ = std::min(
          channels_, static_cast<std::int32_t>(support::FloorPow2(
                         static_cast<std::uint64_t>(params_.channel_cap))));
    }
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
      support::RandomSource& rng = ctx.rng[s];
      switch (phase_[s]) {
        case kDuel:
          actions[k] = coin_.Draw(rng) ? Action::Transmit(kPrimaryChannel)
                                       : Action::Listen(kPrimaryChannel);
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

  void Advance(const BatchContext&, std::span<const NodeId> alive,
               std::span<const Action> actions,
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
          CRMC_PROTO_CHECK(!fb.Silence());
          if (fb.MessageHeard()) {  // alone: channel label becomes the ID
            phase_[s] = kSearch;
            lo_[s] = 0;
            hi_[s] = tree_->height();
          }
          break;
        case kSearch: {
          CRMC_PROTO_CHECK(!fb.Silence());
          const std::int32_t mid = (lo_[s] + hi_[s]) / 2;
          if (fb.Collision()) {
            lo_[s] = mid + 1;  // still shared at `mid`: divergence is deeper
          } else {
            hi_[s] = mid;
          }
          if (lo_[s] >= hi_[s]) {
            const std::int32_t split = lo_[s];
            CRMC_PROTO_CHECK_MSG(split >= 1,
                                 "paths cannot diverge at the root");
            phase_[s] = tree_->AncestorIsLeftChild(id_[s], split)
                            ? kFinalTx
                            : kFinalListen;
          }
          break;
        }
        case kFinalTx:
          CRMC_PROTO_CHECK_MSG(
              fb.MessageHeard(),
              "two-active winner was not alone on the primary channel");
          finished[k] = 1;
          break;
        case kFinalListen:
          finished[k] = 1;
          break;
      }
      (void)actions;
    }
  }

  // The two-active run is fully lockstep: in duel mode every round is a
  // primary-channel coin round; otherwise the two nodes share lo/hi bounds
  // and move through kRename -> kSearch together (they either both rename
  // or both stay; every search round updates both bounds identically), and
  // the run ends on a {kFinalTx, kFinalListen} pair. Anything else — more
  // or fewer than two nodes outside duel mode, or a same-final-phase pair,
  // which the generic path rejects with a CRMC_PROTO_CHECK — declines.
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
  // path's CRMC_PROTO_CHECK fires exactly as it would have unfused.
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

  std::unique_ptr<TrialProgram> MakeTrialProgram() const override;

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
// TwoActive's trial-parallel twin: W independent trials ("lanes") in
// lockstep, per-lane state in flat planes, per-round draws batched across
// lanes into one slot list per draw kind and evaluated by the simd::
// kernels in a single vectorized pass. The per-(lane, node) streams sit in
// the ctx.rng[lane * num_active + node] plane, so a lane's draw order is
// exactly the per-trial FastRound's — lanes touch disjoint slots and each
// stream is drawn at most once per round, making every lane bit-exact
// against a solo run of its seed.
//
// The run is fully lockstep per lane (see TwoActiveProgram::FastRound), so
// a pristine lane never diverges; the `diverged` escape hatch only fires on
// states the per-trial path would reject with a CRMC_PROTO_CHECK, and the
// trial engine's fallback rerun reproduces that exception bit-exactly.

class TwoActiveTrialProgram final : public TrialProgram {
 public:
  explicit TwoActiveTrialProgram(core::TwoActiveParams params)
      : params_(params) {}

  std::string_view name() const override { return "two_active"; }

  bool Reset(const TrialContext& ctx, std::int32_t lanes) override {
    channels_ = core::EffectiveChannels(ctx.channels, ctx.population);
    if (params_.channel_cap > 0) {
      channels_ = std::min(
          channels_, static_cast<std::int32_t>(support::FloorPow2(
                         static_cast<std::uint64_t>(params_.channel_cap))));
    }
    duel_ = channels_ < 2;
    num_active_ = ctx.num_active;
    if (!duel_) {
      // The tree walk is only lockstep-representable for the paper's
      // |A| = 2 shape (the per-trial FastRound declines anything else).
      if (ctx.num_active != 2) return false;
      tree_.emplace(channels_);
      rename_draw_.emplace(1, channels_);
    }
    const auto w = static_cast<std::size_t>(lanes);
    phase_.assign(w, duel_ ? kDuel : kRename);
    id0_.assign(w, 0);
    id1_.assign(w, 0);
    lo_.assign(w, 0);
    hi_.assign(w, 0);
    tx0_.assign(w, 0);
    return true;
  }

  void Round(const TrialContext& ctx, std::span<const std::int32_t> lanes,
             std::span<std::int64_t> node_tx,
             std::span<LaneEffects> effects) override {
    if (duel_) {
      DuelRound(ctx, lanes, node_tx, effects);
      return;
    }
    // Pass 1: gather the stream slots of every lane that draws this round
    // (only renaming lanes do; search and final rounds are pure bit math).
    rename_slots_.clear();
    for (const std::int32_t lane : lanes) {
      if (phase_[static_cast<std::size_t>(lane)] == kRename) {
        rename_slots_.push_back(lane * 2);
        rename_slots_.push_back(lane * 2 + 1);
      }
    }
    rename_out_.resize(rename_slots_.size());
    simd::UniformFill(*rename_draw_, ctx.rng, rename_slots_, rename_out_);

    // Pass 2: per-lane transitions off the batched draws.
    std::size_t rj = 0;  // read cursor into rename_out_ (pairs, lane order)
    for (std::size_t k = 0; k < lanes.size(); ++k) {
      const auto lane = static_cast<std::size_t>(lanes[k]);
      const std::size_t base = lane * 2;
      LaneEffects& fx = effects[k];
      switch (phase_[lane]) {
        case kRename: {
          const std::int32_t id0 = rename_out_[rj];
          const std::int32_t id1 = rename_out_[rj + 1];
          rj += 2;
          id0_[lane] = id0;
          id1_[lane] = id1;
          ++node_tx[base];
          ++node_tx[base + 1];
          fx.transmissions = 2;
          if (id0 != id1) {  // both alone: renamed, and maybe solved outright
            fx.lone_deliveries = 2;
            fx.primary_lone_delivered =
                id0 == kPrimaryChannel || id1 == kPrimaryChannel;
            phase_[lane] = kSearch;
            lo_[lane] = 0;
            hi_[lane] = tree_->height();
          }
          break;
        }
        case kSearch: {
          const std::int32_t mid = (lo_[lane] + hi_[lane]) / 2;
          const std::int32_t ch0 = tree_->IndexWithinLevel(id0_[lane], mid);
          const std::int32_t ch1 = tree_->IndexWithinLevel(id1_[lane], mid);
          ++node_tx[base];
          ++node_tx[base + 1];
          fx.transmissions = 2;
          if (ch0 == ch1) {  // still shared at `mid`: divergence is deeper
            lo_[lane] = mid + 1;
          } else {
            fx.lone_deliveries = 2;
            fx.primary_lone_delivered =
                ch0 == kPrimaryChannel || ch1 == kPrimaryChannel;
            hi_[lane] = mid;
          }
          if (lo_[lane] >= hi_[lane]) {
            const std::int32_t split = lo_[lane];
            if (split < 1) {  // per-trial path: "cannot diverge at the root"
              fx.diverged = true;
              break;
            }
            const bool t0 = tree_->AncestorIsLeftChild(id0_[lane], split);
            const bool t1 = tree_->AncestorIsLeftChild(id1_[lane], split);
            if (t0 == t1) {  // same-final pair: generic-path check territory
              fx.diverged = true;
              break;
            }
            phase_[lane] = kFinalPair;
            tx0_[lane] = static_cast<std::uint8_t>(t0);
          }
          break;
        }
        case kFinalPair:
          ++node_tx[base + (tx0_[lane] ? 0 : 1)];
          fx.transmissions = 1;
          fx.lone_deliveries = 1;
          fx.primary_lone_delivered = true;
          fx.finished = true;
          break;
        default:
          fx.diverged = true;
          break;
      }
    }
  }

 private:
  enum Phase : std::uint8_t { kDuel, kRename, kSearch, kFinalPair };

  // All-on-primary coin rounds for every lane at once: one CoinMask call
  // over the concatenated per-lane slot segments, then a per-lane popcount
  // of its segment. A lone transmitter ends the lane (everyone heard it).
  void DuelRound(const TrialContext& ctx, std::span<const std::int32_t> lanes,
                 std::span<std::int64_t> node_tx,
                 std::span<LaneEffects> effects) {
    const auto n = static_cast<std::size_t>(num_active_);
    duel_slots_.clear();
    for (const std::int32_t lane : lanes) {
      for (std::int32_t j = 0; j < num_active_; ++j) {
        duel_slots_.push_back(lane * num_active_ + j);
      }
    }
    mask_.resize(duel_slots_.size());
    simd::CoinMask(coin_, ctx.rng, duel_slots_, mask_);
    std::size_t base = 0;
    for (std::size_t k = 0; k < lanes.size(); ++k, base += n) {
      std::int64_t tx = 0;
      for (std::size_t j = 0; j < n; ++j) {
        node_tx[static_cast<std::size_t>(duel_slots_[base + j])] +=
            mask_[base + j];
        tx += mask_[base + j];
      }
      LaneEffects& fx = effects[k];
      fx.transmissions = tx;
      if (tx == 1) {  // everyone heard the lone duel winner
        fx.lone_deliveries = 1;
        fx.primary_lone_delivered = true;
        fx.finished = true;
      }
    }
  }

  core::TwoActiveParams params_;
  std::int32_t channels_ = 0;
  std::int32_t num_active_ = 0;
  bool duel_ = false;
  std::optional<ChannelTree> tree_;
  std::optional<BatchUniformInt> rename_draw_;
  BatchBernoulli coin_{0.5};

  // Per-lane state planes, indexed by lane id.
  std::vector<std::uint8_t> phase_;
  std::vector<std::int32_t> id0_;  // renamed labels of the lane's two nodes
  std::vector<std::int32_t> id1_;
  std::vector<std::int32_t> lo_;  // shared SplitCheck bounds
  std::vector<std::int32_t> hi_;
  std::vector<std::uint8_t> tx0_;  // final round: node 0 is the transmitter

  // Per-round gather scratch, reused across rounds.
  std::vector<std::int32_t> rename_slots_;
  std::vector<std::int32_t> rename_out_;
  std::vector<std::int32_t> duel_slots_;
  std::vector<std::uint8_t> mask_;
};

std::unique_ptr<TrialProgram> TwoActiveProgram::MakeTrialProgram() const {
  return std::make_unique<TwoActiveTrialProgram>(params_);
}

// ---------------------------------------------------------------------------
// The Reduce knockout schedule (Figure 2): two rounds per iteration at
// probability 1/n_hat, n_hat square-rooted between iterations. Shared by
// the standalone Reduce program and the composed general program; the
// prepared Bernoullis amortize the threshold computation across all nodes
// of a round.

std::vector<BatchBernoulli> BuildReduceSchedule(std::int64_t population,
                                                core::ReduceParams params) {
  const std::int32_t iterations =
      support::CeilLgLg(
          static_cast<std::uint64_t>(population < 2 ? 2 : population)) +
      params.extra_iterations;
  std::vector<BatchBernoulli> sched;
  sched.reserve(static_cast<std::size_t>(iterations) * 2);
  double n_hat = static_cast<double>(population);
  for (std::int32_t iter = 0; iter < iterations; ++iter) {
    const BatchBernoulli b(1.0 / n_hat);
    sched.push_back(b);
    sched.push_back(b);
    n_hat = std::sqrt(n_hat);
    if (n_hat < 2.0) n_hat = 2.0;
  }
  return sched;
}

class ReduceProgram final : public StepProgram {
 public:
  explicit ReduceProgram(core::ReduceParams params) : params_(params) {}

  std::string_view name() const override { return "reduce"; }

  void Reset(const BatchContext& ctx) override {
    sched_ = BuildReduceSchedule(ctx.population, params_);
    step_.assign(static_cast<std::size_t>(ctx.num_active), 0);
  }

  void EmitActions(const BatchContext& ctx, std::span<const NodeId> alive,
                   std::span<Action> actions) override {
    for (std::size_t k = 0; k < alive.size(); ++k) {
      const auto s = static_cast<std::size_t>(alive[k]);
      const bool tx =
          sched_[static_cast<std::size_t>(step_[s])].Draw(ctx.rng[s]);
      actions[k] = tx ? Action::Transmit(kPrimaryChannel)
                      : Action::Listen(kPrimaryChannel);
    }
  }

  void Advance(const BatchContext&, std::span<const NodeId> alive,
               std::span<const Action> actions,
               std::span<const Feedback> feedback,
               std::span<std::uint8_t> finished) override {
    for (std::size_t k = 0; k < alive.size(); ++k) {
      const auto s = static_cast<std::size_t>(alive[k]);
      const Feedback& fb = feedback[k];
      if (actions[k].transmit) {
        CRMC_PROTO_CHECK(!fb.Silence());
        if (fb.MessageHeard()) {  // alone: leader, problem solved
          finished[k] = 1;
          continue;
        }
      } else if (!fb.Silence()) {  // heard a survivor: knocked out
        finished[k] = 1;
        continue;
      }
      if (static_cast<std::size_t>(++step_[s]) == sched_.size()) {
        finished[k] = 1;  // schedule over: survivor terminates
      }
    }
  }

  // Every alive node is at the same schedule step (survivors advance one
  // step per round in lockstep), so one coin round covers them all.
  bool FastRound(const BatchContext& ctx, std::span<const NodeId> alive,
                 std::span<std::int64_t> node_tx,
                 std::span<std::uint8_t> finished,
                 FastRoundEffects* fx) override {
    const auto step =
        static_cast<std::size_t>(step_[static_cast<std::size_t>(alive[0])]);
    const std::int64_t tx =
        PrimaryCoinRound(sched_[step], ctx, alive, node_tx, mask_, fx);
    if (KnockoutFinish(tx, mask_, finished)) return true;
    const auto next = static_cast<std::int32_t>(step + 1);
    if (static_cast<std::size_t>(next) == sched_.size()) {
      std::fill(finished.begin(), finished.end(), std::uint8_t{1});
    }
    for (std::size_t k = 0; k < alive.size(); ++k) {
      step_[static_cast<std::size_t>(alive[k])] = next;
    }
    return true;
  }

  // FastRound's only cross-node assumption is the shared schedule step. A
  // jam can break it (a knocked-out-looking survivor keeps stepping while
  // an erased one repeats), so verify it directly over the survivors.
  bool LockstepRestored(const BatchContext&,
                        std::span<const NodeId> alive) override {
    const std::int32_t step = step_[static_cast<std::size_t>(alive[0])];
    for (const NodeId s : alive.subspan(1)) {
      if (step_[static_cast<std::size_t>(s)] != step) return false;
    }
    return true;
  }

  std::unique_ptr<TrialProgram> MakeTrialProgram() const override;

 private:
  core::ReduceParams params_;
  std::vector<BatchBernoulli> sched_;
  std::vector<std::int32_t> step_;  // index into sched_
  std::vector<std::uint8_t> mask_;  // FastRound coin-mask scratch
};

// Reduce's trial-parallel twin. Every survivor of a pristine lane sits at
// schedule step == lockstep round (steps start at 0 and advance exactly
// once per surviving round, and the schedule length is a pure function of
// the shared population), so one shared sched_[round] coin covers every
// lane's alive slots in a single CoinMask call.
class ReduceTrialProgram final : public TrialProgram {
 public:
  explicit ReduceTrialProgram(core::ReduceParams params) : params_(params) {}

  std::string_view name() const override { return "reduce"; }

  bool Reset(const TrialContext& ctx, std::int32_t lanes) override {
    sched_ = BuildReduceSchedule(ctx.population, params_);
    set_.Reset(lanes, ctx.num_active);
    return true;
  }

  void Round(const TrialContext& ctx, std::span<const std::int32_t> lanes,
             std::span<std::int64_t> node_tx,
             std::span<LaneEffects> effects) override {
    const auto step = static_cast<std::size_t>(ctx.round);
    if (step >= sched_.size()) {  // unreachable: every lane ends in time
      for (LaneEffects& fx : effects) fx.diverged = true;
      return;
    }
    GatherAliveSlots(set_, lanes, slots_, seg_);
    mask_.resize(slots_.size());
    simd::CoinMask(sched_[step], ctx.rng, slots_, mask_);
    const bool last = step + 1 == sched_.size();
    for (std::size_t k = 0; k < lanes.size(); ++k) {
      const auto lo = static_cast<std::size_t>(seg_[k]);
      const std::size_t len = static_cast<std::size_t>(seg_[k + 1]) - lo;
      const auto lane_slots =
          std::span<const std::int32_t>(slots_).subspan(lo, len);
      if (!LaneKnockoutRound(set_, lanes[k], lane_slots,
                             std::span<const std::uint8_t>(mask_).subspan(
                                 lo, len),
                             node_tx, effects[k]) &&
          last) {
        // Schedule over: the lane's survivors terminate kActive.
        effects[k].finished = true;
        for (const std::int32_t slot : lane_slots) {
          if (set_.alive[static_cast<std::size_t>(slot)]) {
            set_.Retire(lanes[k], slot);
          }
        }
      }
    }
  }

 private:
  core::ReduceParams params_;
  std::vector<BatchBernoulli> sched_;
  LaneAliveSet set_;
  std::vector<std::int32_t> slots_, seg_;
  std::vector<std::uint8_t> mask_;
};

std::unique_ptr<TrialProgram> ReduceProgram::MakeTrialProgram() const {
  return std::make_unique<ReduceTrialProgram>(params_);
}

// ---------------------------------------------------------------------------
// IDReduction (core/id_reduction.cpp flattened): a three-round cycle of
// spread / confirm / knockout until renaming succeeds.

class IdReductionProgram final : public StepProgram {
 public:
  explicit IdReductionProgram(core::IdReductionParams params)
      : params_(params) {}

  std::string_view name() const override { return "id_reduction"; }

  void Reset(const BatchContext& ctx) override {
    const std::int32_t eff =
        core::EffectiveChannels(ctx.channels, ctx.population);
    CRMC_REQUIRE_MSG(eff >= 4,
                     "IDReduction needs at least 4 effective channels, got "
                         << eff);
    spread_.emplace(1, eff / 2);
    const double knock_k =
        std::max(2.0, std::sqrt(static_cast<double>(eff)) /
                          params_.knock_divisor);
    knock_.emplace(1.0 / knock_k);
    const auto n = static_cast<std::size_t>(ctx.num_active);
    cycle_.assign(n, 0);
    chan_.assign(n, 0);
    renamed_.assign(n, 0);
    pairs_.assign(n, 0);
    // ClassifyChannels scratch: spread channels lie in [1, eff/2], the +3
    // covers the gather padding; must start (and is kept) all-zero.
    counts_.assign(static_cast<std::size_t>(eff / 2) + 3, 0);
  }

  void EmitActions(const BatchContext& ctx, std::span<const NodeId> alive,
                   std::span<Action> actions) override {
    for (std::size_t k = 0; k < alive.size(); ++k) {
      const auto s = static_cast<std::size_t>(alive[k]);
      switch (cycle_[s]) {
        case 0:  // spread over [C'/2]
          CRMC_CHECK_MSG(pairs_[s] < params_.max_pairs,
                         "IDReduction exceeded max_pairs — probability of "
                         "this is superpolynomially small; check parameters");
          chan_[s] = static_cast<std::int32_t>(spread_->Draw(ctx.rng[s]));
          actions[k] = Action::Transmit(static_cast<mac::ChannelId>(chan_[s]));
          break;
        case 1:  // confirm on the primary channel
          actions[k] = renamed_[s] ? Action::Transmit(kPrimaryChannel)
                                   : Action::Listen(kPrimaryChannel);
          break;
        default:  // knockout with probability 1/k
          actions[k] = knock_->Draw(ctx.rng[s])
                           ? Action::Transmit(kPrimaryChannel)
                           : Action::Listen(kPrimaryChannel);
          break;
      }
    }
  }

  void Advance(const BatchContext&, std::span<const NodeId> alive,
               std::span<const Action> actions,
               std::span<const Feedback> feedback,
               std::span<std::uint8_t> finished) override {
    for (std::size_t k = 0; k < alive.size(); ++k) {
      const auto s = static_cast<std::size_t>(alive[k]);
      const Feedback& fb = feedback[k];
      switch (cycle_[s]) {
        case 0:
          CRMC_PROTO_CHECK(!fb.Silence());
          renamed_[s] = fb.MessageHeard() ? 1 : 0;  // alone on the channel
          cycle_[s] = 1;
          break;
        case 1:
          if (renamed_[s]) {
            finished[k] = 1;  // kActive with new_id = chan_[s]
          } else if (!fb.Silence()) {
            finished[k] = 1;  // someone renamed and we did not
          } else {
            cycle_[s] = 2;
          }
          break;
        default:
          if (actions[k].transmit) {
            CRMC_PROTO_CHECK(!fb.Silence());
            if (fb.MessageHeard()) {  // alone on primary: solved outright
              finished[k] = 1;
              break;
            }
          } else if (!fb.Silence()) {
            finished[k] = 1;
            break;
          }
          cycle_[s] = 0;
          ++pairs_[s];
          break;
      }
    }
  }

  // Alive nodes move through the spread/confirm/knock cycle in lockstep
  // (every transition in Advance applies to all survivors of a round), so
  // the first lane's cycle position is everyone's. pairs_ is uniform for
  // the same reason, so the max_pairs check needs only one lane.
  bool FastRound(const BatchContext& ctx, std::span<const NodeId> alive,
                 std::span<std::int64_t> node_tx,
                 std::span<std::uint8_t> finished,
                 FastRoundEffects* fx) override {
    const std::size_t m = alive.size();
    const auto s0 = static_cast<std::size_t>(alive[0]);
    switch (cycle_[s0]) {
      case 0: {  // spread over [C'/2]: everyone transmits on its pick
        CRMC_CHECK_MSG(pairs_[s0] < params_.max_pairs,
                       "IDReduction exceeded max_pairs — probability of "
                       "this is superpolynomially small; check parameters");
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
          cycle_[s] = 1;
        }
        fx->transmissions += static_cast<std::int64_t>(m);
        fx->lone_deliveries += occ.lone_channels;
        fx->primary_lone_delivered = occ.primary_lone;
        return true;
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
        if (r >= 1) {
          // Renamed nodes finish as kActive; everyone else heard them.
          std::fill(finished.begin(), finished.end(), std::uint8_t{1});
        } else {
          for (std::size_t k = 0; k < m; ++k) {
            cycle_[static_cast<std::size_t>(alive[k])] = 2;
          }
        }
        return true;
      }
      default: {  // knockout with probability 1/k
        const std::int64_t tx =
            PrimaryCoinRound(*knock_, ctx, alive, node_tx, mask_, fx);
        if (KnockoutFinish(tx, mask_, finished)) return true;
        for (std::size_t k = 0; k < m; ++k) {
          const auto s = static_cast<std::size_t>(alive[k]);
          cycle_[s] = 0;
          ++pairs_[s];
        }
        return true;
      }
    }
  }

  std::unique_ptr<TrialProgram> MakeTrialProgram() const override;

 private:
  core::IdReductionParams params_;
  std::optional<BatchUniformInt> spread_;
  std::optional<BatchBernoulli> knock_;
  std::vector<std::uint8_t> cycle_;  // 0 spread, 1 confirm, 2 knock
  std::vector<std::int32_t> chan_;   // channel picked in the spread round
  std::vector<std::uint8_t> renamed_;
  std::vector<std::int64_t> pairs_;
  // FastRound scratch: coin mask, channel picks, per-lane lone flags, and
  // the ClassifyChannels histogram (all-zero between rounds) + dirty list.
  std::vector<std::uint8_t> mask_;
  std::vector<std::int32_t> chan_scratch_;
  std::vector<std::uint8_t> lone_scratch_;
  std::vector<std::uint16_t> counts_;
  std::vector<std::int32_t> touched_;
};

// IDReduction's trial-parallel twin. Alive nodes of a pristine lane walk
// the spread/confirm/knock cycle in lockstep and every lane starts at
// cycle 0 on round 0, so cycle == round % 3 and pairs == round / 3 hold
// across all live lanes — no per-lane cycle state is needed; the RNG-
// drawing rounds (spread, knock) batch into one kernel call each while
// channel classification stays lane-local.
class IdReductionTrialProgram final : public TrialProgram {
 public:
  explicit IdReductionTrialProgram(core::IdReductionParams params)
      : params_(params) {}

  std::string_view name() const override { return "id_reduction"; }

  bool Reset(const TrialContext& ctx, std::int32_t lanes) override {
    const std::int32_t eff =
        core::EffectiveChannels(ctx.channels, ctx.population);
    if (eff < 4) return false;  // per-trial path throws; fall back wholesale
    spread_.emplace(1, eff / 2);
    const double knock_k =
        std::max(2.0, std::sqrt(static_cast<double>(eff)) /
                          params_.knock_divisor);
    knock_.emplace(1.0 / knock_k);
    counts_.assign(static_cast<std::size_t>(eff / 2) + 3, 0);
    set_.Reset(lanes, ctx.num_active);
    renamed_.assign(set_.alive.size(), 0);
    return true;
  }

  void Round(const TrialContext& ctx, std::span<const std::int32_t> lanes,
             std::span<std::int64_t> node_tx,
             std::span<LaneEffects> effects) override {
    switch (ctx.round % 3) {
      case 0: {  // spread over [C'/2]: everyone transmits on its pick
        if (ctx.round / 3 >= params_.max_pairs) {
          // The per-trial path CRMC_CHECK-aborts here; diverge so the
          // fallback rerun reproduces the abort.
          for (LaneEffects& fx : effects) fx.diverged = true;
          return;
        }
        GatherAliveSlots(set_, lanes, slots_, seg_);
        chan_scratch_.resize(slots_.size());
        lone_scratch_.resize(slots_.size());
        simd::UniformFill(*spread_, ctx.rng, slots_, chan_scratch_);
        for (std::size_t k = 0; k < lanes.size(); ++k) {
          const auto lo = static_cast<std::size_t>(seg_[k]);
          const std::size_t len = static_cast<std::size_t>(seg_[k + 1]) - lo;
          const simd::Occupancy occ = simd::ClassifyChannels(
              std::span<const std::int32_t>(chan_scratch_).subspan(lo, len),
              kPrimaryChannel, counts_, touched_,
              std::span<std::uint8_t>(lone_scratch_).subspan(lo, len));
          for (std::size_t i = lo; i < lo + len; ++i) {
            const auto slot = static_cast<std::size_t>(slots_[i]);
            ++node_tx[slot];
            renamed_[slot] = lone_scratch_[i];
          }
          effects[k].transmissions = static_cast<std::int64_t>(len);
          effects[k].lone_deliveries = occ.lone_channels;
          effects[k].primary_lone_delivered = occ.primary_lone;
        }
        return;
      }
      case 1: {  // confirm: renamed nodes transmit on the primary channel
        GatherAliveSlots(set_, lanes, slots_, seg_);
        for (std::size_t k = 0; k < lanes.size(); ++k) {
          const auto lo = static_cast<std::size_t>(seg_[k]);
          const auto hi = static_cast<std::size_t>(seg_[k + 1]);
          std::int64_t r = 0;
          for (std::size_t i = lo; i < hi; ++i) {
            const auto slot = static_cast<std::size_t>(slots_[i]);
            r += renamed_[slot];
            node_tx[slot] += renamed_[slot];
          }
          effects[k].transmissions = r;
          if (r == 1) {
            effects[k].lone_deliveries = 1;
            effects[k].primary_lone_delivered = true;
          }
          if (r >= 1) {
            // Renamed nodes finish as kActive; everyone else heard them.
            effects[k].finished = true;
            for (std::size_t i = lo; i < hi; ++i) {
              set_.Retire(lanes[k], slots_[i]);
            }
          }
        }
        return;
      }
      default: {  // knockout with probability 1/k
        GatherAliveSlots(set_, lanes, slots_, seg_);
        mask_.resize(slots_.size());
        simd::CoinMask(*knock_, ctx.rng, slots_, mask_);
        for (std::size_t k = 0; k < lanes.size(); ++k) {
          const auto lo = static_cast<std::size_t>(seg_[k]);
          const std::size_t len = static_cast<std::size_t>(seg_[k + 1]) - lo;
          LaneKnockoutRound(
              set_, lanes[k],
              std::span<const std::int32_t>(slots_).subspan(lo, len),
              std::span<const std::uint8_t>(mask_).subspan(lo, len), node_tx,
              effects[k]);
        }
        return;
      }
    }
  }

 private:
  core::IdReductionParams params_;
  std::optional<BatchUniformInt> spread_;
  std::optional<BatchBernoulli> knock_;
  LaneAliveSet set_;
  std::vector<std::uint8_t> renamed_;  // [lane * n + node]
  std::vector<std::int32_t> slots_, seg_;
  std::vector<std::uint8_t> mask_;
  std::vector<std::int32_t> chan_scratch_;
  std::vector<std::uint8_t> lone_scratch_;
  std::vector<std::uint16_t> counts_;
  std::vector<std::int32_t> touched_;
};

std::unique_ptr<TrialProgram> IdReductionProgram::MakeTrialProgram() const {
  return std::make_unique<IdReductionTrialProgram>(params_);
}

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

  void Init(std::int32_t num_leaves, bool force_binary_in, std::size_t n) {
    tree.emplace(num_leaves);
    force_binary = force_binary_in;
    for (auto* col : {&leaf, &cid, &csize, &cnode_heap, &cnode_level, &l_min,
                      &l_max, &probe_dist, &k_bound}) {
      col->assign(n, 0);
    }
    for (auto* col : {&pc, &which, &probe_collided, &first_res, &second_res,
                      &idle_left}) {
      col->assign(n, 0);
    }
  }

  // Place node slot `s` on `leaf_label` as a singleton cohort; its next
  // round is the phase-1 root check.
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
  void EnterRefinementOrPair(std::size_t s) {
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
      CRMC_PROTO_CHECK(l_max[s] >= 1 && l_max[s] <= cnode_level[s]);
      pc[s] = kPair;
    }
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

  // Returns true when node slot `s` leaves the election this round (as the
  // leader or as a partner-less cohort going inactive).
  bool Advance(std::size_t s, const Action& action, const Feedback& fb) {
    switch (pc[s]) {
      case kRoot:
        CRMC_PROTO_CHECK(!fb.Silence());  // every cohort has a master
        if (fb.MessageHeard()) return true;  // lone master broadcast: done
        l_min[s] = 0;
        l_max[s] = cnode_level[s];
        EnterRefinementOrPair(s);
        return false;
      case kProbe:
        CRMC_PROTO_CHECK(!fb.Silence());
        probe_collided[s] = fb.Collision() ? 1 : 0;
        pc[s] = kVerdict;
        return false;
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
        return false;
      }
      case kIdleRounds:
        if (--idle_left[s] == 0) pc[s] = kAnnounce;
        return false;
      case kAnnounce: {
        std::int32_t subrange;
        if (action.transmit) {
          CRMC_PROTO_CHECK_MSG(fb.MessageHeard(),
                               "two announcers in one cohort (subrange "
                                   << action.message.payload << ")");
          subrange = static_cast<std::int32_t>(action.message.payload);
        } else {
          CRMC_PROTO_CHECK_MSG(fb.MessageHeard(),
                               "cohort announcement missing on channel "
                                   << tree->ChannelOf(cnode_heap[s]));
          subrange = static_cast<std::int32_t>(fb.message.payload);
        }
        CRMC_PROTO_CHECK(subrange >= 0 && subrange < k_bound[s]);
        // Compute both bounds before assigning: Boundary reads l_min.
        const std::int32_t new_min = Boundary(s, subrange);
        const std::int32_t new_max = Boundary(s, subrange + 1);
        l_min[s] = new_min;
        l_max[s] = new_max;
        EnterRefinementOrPair(s);
        return false;
      }
      case kPair: {
        CRMC_PROTO_CHECK(!fb.Silence());  // our own master transmitted
        if (!fb.Collision()) return true;  // no partner cohort: inactive
        const std::int32_t split = l_max[s];
        if (!tree->AncestorIsLeftChild(leaf[s], split)) {
          cid[s] += csize[s];  // right-subtree cohort shifts its IDs up
        }
        csize[s] *= 2;
        cnode_heap[s] = tree->AncestorAtLevel(leaf[s], split - 1);
        cnode_level[s] = split - 1;
        pc[s] = kRoot;
        return false;
      }
    }
    CRMC_CHECK(false);  // unreachable
    return true;
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

  void Advance(const BatchContext&, std::span<const NodeId> alive,
               std::span<const Action> actions,
               std::span<const Feedback> feedback,
               std::span<std::uint8_t> finished) override {
    for (std::size_t k = 0; k < alive.size(); ++k) {
      if (machine_.Advance(static_cast<std::size_t>(alive[k]), actions[k],
                           feedback[k])) {
        finished[k] = 1;
      }
    }
  }

  std::unique_ptr<TrialProgram> MakeTrialProgram() const override;

 private:
  std::vector<std::int32_t> leaves_;
  std::int32_t num_leaves_;
  core::LeafElectionParams params_;
  LeafMachine machine_;
};

// Reusable scratch for LeafLaneRound: per-lane action/feedback staging and
// a dense per-channel transmitter histogram reset sparsely via the touched
// list (leaf election touches a handful of tree channels per round).
struct LeafLaneScratch {
  std::vector<Action> actions;
  std::vector<std::uint8_t> leave;
  std::vector<std::int32_t> tx_count;  // [channel 0..C], all-zero between
  std::vector<Message> lone_msg;       // valid iff tx_count[ch] == 1
  std::vector<std::int32_t> touched;   // channels with >= 1 transmitter

  void Reset(std::int32_t channels) {
    tx_count.assign(static_cast<std::size_t>(channels) + 1, 0);
    lone_msg.assign(static_cast<std::size_t>(channels) + 1, Message{});
    touched.clear();
  }
};

// Runs one leaf-election round for a single lane: emits every member's
// action, resolves the lane's channels under pristine strong CD (the only
// regime the fused path handles — see resolver.cpp's fast path), advances
// the machines on the resulting feedback, and retires departing members.
// A ProtocolAssumptionViolation from a machine marks the lane diverged so
// the per-trial fallback rerun reproduces the throw. Returns true when the
// lane fully ended.
bool LeafLaneRound(LeafMachine& m, LaneAliveSet& set, std::int32_t lane,
                   std::span<const std::int32_t> slots,
                   std::span<std::int64_t> node_tx, LeafLaneScratch& sc,
                   LaneEffects& fx) {
  sc.actions.resize(slots.size());
  sc.leave.assign(slots.size(), 0);
  sc.touched.clear();
  std::int64_t tx = 0;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const auto s = static_cast<std::size_t>(slots[i]);
    sc.actions[i] = m.Emit(s);
    const Action& a = sc.actions[i];
    if (a.channel == kIdleChannel || !a.transmit) continue;
    ++tx;
    ++node_tx[s];
    const auto ch = static_cast<std::size_t>(a.channel);
    if (sc.tx_count[ch]++ == 0) {
      sc.touched.push_back(a.channel);
      sc.lone_msg[ch] = a.message;
    }
  }
  fx.transmissions = tx;
  for (const std::int32_t ch : sc.touched) {
    if (sc.tx_count[static_cast<std::size_t>(ch)] == 1) ++fx.lone_deliveries;
  }
  fx.primary_lone_delivered =
      sc.tx_count[static_cast<std::size_t>(kPrimaryChannel)] == 1;
  for (std::size_t i = 0; i < slots.size() && !fx.diverged; ++i) {
    const Action& a = sc.actions[i];
    Feedback fb{};  // idle nodes observe silence by convention
    if (a.channel != kIdleChannel) {
      const auto ch = static_cast<std::size_t>(a.channel);
      if (sc.tx_count[ch] == 1) {
        fb.observation = Observation::kMessage;
        fb.message = sc.lone_msg[ch];
      } else if (sc.tx_count[ch] >= 2) {
        fb.observation = Observation::kCollision;
      }
    }
    try {
      if (m.Advance(static_cast<std::size_t>(slots[i]), a, fb)) {
        sc.leave[i] = 1;
      }
    } catch (const support::ProtocolAssumptionViolation&) {
      fx.diverged = true;  // pristine run: per-trial Run rethrows
    }
  }
  for (const std::int32_t ch : sc.touched) {
    sc.tx_count[static_cast<std::size_t>(ch)] = 0;
  }
  if (fx.diverged) return false;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (sc.leave[i]) {
      set.Retire(lane, slots[i]);
      fx.nodes_retired = true;
    }
  }
  if (set.count[static_cast<std::size_t>(lane)] == 0) {
    fx.finished = true;
    return true;
  }
  return false;
}

// LeafElection's trial-parallel twin. The election draws no randomness at
// all — every lane walks the identical deterministic machine — so the win
// is purely structural: one flat LeafMachine spanning [lane × slot] plus
// the lane-local mini-resolver replace the full MAC resolver and per-trial
// engine loop. Kept primarily as the composition target for the general
// twin's kLeaf stage.
class LeafElectionTrialProgram final : public TrialProgram {
 public:
  LeafElectionTrialProgram(std::vector<std::int32_t> leaves,
                           std::int32_t num_leaves,
                           core::LeafElectionParams params)
      : leaves_(std::move(leaves)), num_leaves_(num_leaves), params_(params) {}

  std::string_view name() const override { return "leaf_election"; }

  bool Reset(const TrialContext& ctx, std::int32_t lanes) override {
    // The per-trial path CRMC_REQUIREs these shapes; fall back wholesale so
    // the rerun reproduces the throw.
    if (static_cast<std::size_t>(ctx.num_active) != leaves_.size()) {
      return false;
    }
    if (2 * num_leaves_ - 1 > ctx.channels) return false;
    set_.Reset(lanes, ctx.num_active);
    machine_.Init(num_leaves_, params_.force_binary_search,
                  set_.alive.size());
    for (std::int32_t lane = 0; lane < lanes; ++lane) {
      for (std::size_t j = 0; j < leaves_.size(); ++j) {
        machine_.Enter(static_cast<std::size_t>(lane) * leaves_.size() + j,
                       leaves_[j]);
      }
    }
    scratch_.Reset(ctx.channels);
    return true;
  }

  void Round(const TrialContext&, std::span<const std::int32_t> lanes,
             std::span<std::int64_t> node_tx,
             std::span<LaneEffects> effects) override {
    GatherAliveSlots(set_, lanes, slots_, seg_);
    for (std::size_t k = 0; k < lanes.size(); ++k) {
      const auto lo = static_cast<std::size_t>(seg_[k]);
      const std::size_t len = static_cast<std::size_t>(seg_[k + 1]) - lo;
      LeafLaneRound(machine_, set_, lanes[k],
                    std::span<const std::int32_t>(slots_).subspan(lo, len),
                    node_tx, scratch_, effects[k]);
    }
  }

 private:
  std::vector<std::int32_t> leaves_;
  std::int32_t num_leaves_;
  core::LeafElectionParams params_;
  LaneAliveSet set_;
  LeafMachine machine_;
  LeafLaneScratch scratch_;
  std::vector<std::int32_t> slots_, seg_;
};

std::unique_ptr<TrialProgram> LeafElectionProgram::MakeTrialProgram() const {
  return std::make_unique<LeafElectionTrialProgram>(leaves_, num_leaves_,
                                                    params_);
}

// ---------------------------------------------------------------------------
// The classic single-channel CD knockout (core/reduce.cpp, RunKnockoutCd):
// also the general algorithm's C = O(1) fallback.

class KnockoutCdProgram final : public StepProgram {
 public:
  std::string_view name() const override { return "knockout_cd"; }

  void Reset(const BatchContext&) override {}

  void EmitActions(const BatchContext& ctx, std::span<const NodeId> alive,
                   std::span<Action> actions) override {
    for (std::size_t k = 0; k < alive.size(); ++k) {
      const auto s = static_cast<std::size_t>(alive[k]);
      actions[k] = coin_.Draw(ctx.rng[s]) ? Action::Transmit(kPrimaryChannel)
                                          : Action::Listen(kPrimaryChannel);
    }
  }

  void Advance(const BatchContext&, std::span<const NodeId> alive,
               std::span<const Action> actions,
               std::span<const Feedback> feedback,
               std::span<std::uint8_t> finished) override {
    for (std::size_t k = 0; k < alive.size(); ++k) {
      const Feedback& fb = feedback[k];
      if (actions[k].transmit) {
        CRMC_PROTO_CHECK(!fb.Silence());
        if (fb.MessageHeard()) finished[k] = 1;  // transmitted alone: leader
      } else if (!fb.Silence()) {
        finished[k] = 1;  // heard someone: knocked out
      }
    }
    (void)alive;
  }

  bool FastRound(const BatchContext& ctx, std::span<const NodeId> alive,
                 std::span<std::int64_t> node_tx,
                 std::span<std::uint8_t> finished,
                 FastRoundEffects* fx) override {
    const std::int64_t tx =
        PrimaryCoinRound(coin_, ctx, alive, node_tx, mask_, fx);
    KnockoutFinish(tx, mask_, finished);
    return true;
  }

  // The knockout carries no per-node state at all, so any surviving set is
  // lockstep-representable and a jammed run re-fuses immediately.
  bool LockstepRestored(const BatchContext&,
                        std::span<const NodeId>) override {
    return true;
  }

  std::unique_ptr<TrialProgram> MakeTrialProgram() const override;

 private:
  BatchBernoulli coin_{0.5};
  std::vector<std::uint8_t> mask_;  // FastRound coin-mask scratch
};

// The knockout's trial-parallel twin: stateless beyond the alive sets, so
// every round is one CoinMask over all lanes' survivors plus the lane-local
// knockout rule.
class KnockoutCdTrialProgram final : public TrialProgram {
 public:
  std::string_view name() const override { return "knockout_cd"; }

  bool Reset(const TrialContext& ctx, std::int32_t lanes) override {
    set_.Reset(lanes, ctx.num_active);
    return true;
  }

  void Round(const TrialContext& ctx, std::span<const std::int32_t> lanes,
             std::span<std::int64_t> node_tx,
             std::span<LaneEffects> effects) override {
    GatherAliveSlots(set_, lanes, slots_, seg_);
    mask_.resize(slots_.size());
    simd::CoinMask(coin_, ctx.rng, slots_, mask_);
    for (std::size_t k = 0; k < lanes.size(); ++k) {
      const auto lo = static_cast<std::size_t>(seg_[k]);
      const std::size_t len = static_cast<std::size_t>(seg_[k + 1]) - lo;
      LaneKnockoutRound(set_, lanes[k],
                        std::span<const std::int32_t>(slots_).subspan(lo, len),
                        std::span<const std::uint8_t>(mask_).subspan(lo, len),
                        node_tx, effects[k]);
    }
  }

 private:
  BatchBernoulli coin_{0.5};
  LaneAliveSet set_;
  std::vector<std::int32_t> slots_, seg_;
  std::vector<std::uint8_t> mask_;
};

std::unique_ptr<TrialProgram> KnockoutCdProgram::MakeTrialProgram() const {
  return std::make_unique<KnockoutCdTrialProgram>();
}

// ---------------------------------------------------------------------------
// The composed general algorithm (core/general.cpp): Reduce -> IDReduction
// -> LeafElection, with the single-channel knockout fallback for C = O(1).
// Stage transitions replicate the coroutine step composition: Reduce
// survivors all enter IDReduction in the same round, and the nodes renamed
// by IDReduction all enter LeafElection (on leaf = new ID) in the same
// round.

class GeneralProgram final : public StepProgram {
 public:
  explicit GeneralProgram(core::GeneralParams params) : params_(params) {}

  std::string_view name() const override { return "general"; }

  void Reset(const BatchContext& ctx) override {
    eff_ = core::EffectiveChannels(ctx.channels, ctx.population);
    fallback_ = eff_ < params_.min_channels;
    const auto n = static_cast<std::size_t>(ctx.num_active);
    stage_.assign(n, fallback_ ? kFallback : kReduce);
    step_.assign(n, 0);
    chan_.assign(n, 0);
    renamed_.assign(n, 0);
    pairs_.assign(n, 0);
    if (fallback_) return;
    CRMC_REQUIRE_MSG(eff_ >= 4,
                     "IDReduction needs at least 4 effective channels, got "
                         << eff_);
    reduce_sched_ = BuildReduceSchedule(ctx.population, params_.reduce);
    spread_.emplace(1, eff_ / 2);
    const double knock_k =
        std::max(2.0, std::sqrt(static_cast<double>(eff_)) /
                          params_.id_reduction.knock_divisor);
    knock_.emplace(1.0 / knock_k);
    leaf_.Init(eff_ / 2, params_.leaf_election.force_binary_search, n);
    // ClassifyChannels scratch: spread channels lie in [1, eff/2], the +3
    // covers the gather padding; must start (and is kept) all-zero.
    counts_.assign(static_cast<std::size_t>(eff_ / 2) + 3, 0);
  }

  void EmitActions(const BatchContext& ctx, std::span<const NodeId> alive,
                   std::span<Action> actions) override {
    for (std::size_t k = 0; k < alive.size(); ++k) {
      const auto s = static_cast<std::size_t>(alive[k]);
      support::RandomSource& rng = ctx.rng[s];
      switch (stage_[s]) {
        case kFallback:
          actions[k] = coin_.Draw(rng) ? Action::Transmit(kPrimaryChannel)
                                       : Action::Listen(kPrimaryChannel);
          break;
        case kReduce: {
          const bool tx =
              reduce_sched_[static_cast<std::size_t>(step_[s])].Draw(rng);
          actions[k] = tx ? Action::Transmit(kPrimaryChannel)
                          : Action::Listen(kPrimaryChannel);
          break;
        }
        case kIdr:
          switch (step_[s]) {
            case 0:
              CRMC_CHECK_MSG(pairs_[s] < params_.id_reduction.max_pairs,
                             "IDReduction exceeded max_pairs — probability "
                             "of this is superpolynomially small; check "
                             "parameters");
              chan_[s] = static_cast<std::int32_t>(spread_->Draw(rng));
              actions[k] =
                  Action::Transmit(static_cast<mac::ChannelId>(chan_[s]));
              break;
            case 1:
              actions[k] = renamed_[s] ? Action::Transmit(kPrimaryChannel)
                                       : Action::Listen(kPrimaryChannel);
              break;
            default:
              actions[k] = knock_->Draw(rng)
                               ? Action::Transmit(kPrimaryChannel)
                               : Action::Listen(kPrimaryChannel);
              break;
          }
          break;
        case kLeaf:
          actions[k] = leaf_.Emit(s);
          break;
      }
    }
  }

  void Advance(const BatchContext&, std::span<const NodeId> alive,
               std::span<const Action> actions,
               std::span<const Feedback> feedback,
               std::span<std::uint8_t> finished) override {
    for (std::size_t k = 0; k < alive.size(); ++k) {
      const auto s = static_cast<std::size_t>(alive[k]);
      const Feedback& fb = feedback[k];
      switch (stage_[s]) {
        case kFallback:
          if (actions[k].transmit) {
            CRMC_PROTO_CHECK(!fb.Silence());
            if (fb.MessageHeard()) finished[k] = 1;
          } else if (!fb.Silence()) {
            finished[k] = 1;
          }
          break;
        case kReduce:
          if (actions[k].transmit) {
            CRMC_PROTO_CHECK(!fb.Silence());
            if (fb.MessageHeard()) {  // alone: leader, problem solved
              finished[k] = 1;
              break;
            }
          } else if (!fb.Silence()) {
            finished[k] = 1;  // knocked out
            break;
          }
          if (static_cast<std::size_t>(++step_[s]) == reduce_sched_.size()) {
            stage_[s] = kIdr;  // survivor: IDReduction starts next round
            step_[s] = 0;
          }
          break;
        case kIdr:
          switch (step_[s]) {
            case 0:
              CRMC_PROTO_CHECK(!fb.Silence());
              renamed_[s] = fb.MessageHeard() ? 1 : 0;
              step_[s] = 1;
              break;
            case 1:
              if (renamed_[s]) {
                stage_[s] = kLeaf;  // kActive: elect over leaf = new ID
                leaf_.Enter(s, chan_[s]);
              } else if (!fb.Silence()) {
                finished[k] = 1;  // someone renamed and we did not
              } else {
                step_[s] = 2;
              }
              break;
            default:
              if (actions[k].transmit) {
                CRMC_PROTO_CHECK(!fb.Silence());
                if (fb.MessageHeard()) {  // alone on primary: solved
                  finished[k] = 1;
                  break;
                }
              } else if (!fb.Silence()) {
                finished[k] = 1;
                break;
              }
              step_[s] = 0;
              ++pairs_[s];
              break;
          }
          break;
        case kLeaf:
          if (leaf_.Advance(s, actions[k], fb)) finished[k] = 1;
          break;
      }
    }
  }

  // Stages stay uniform across the alive set right up to LeafElection:
  // every node starts in kReduce (or kFallback for the whole run), Reduce
  // survivors all enter kIdr in the same round, and a confirm round either
  // moves every renamed node to kLeaf while finishing the rest, or keeps
  // everyone in kIdr. The kLeaf stage itself declines — its per-cohort
  // control flow has no batched win — and the engine falls back to the
  // generic path for the remainder of the run's rounds.
  bool FastRound(const BatchContext& ctx, std::span<const NodeId> alive,
                 std::span<std::int64_t> node_tx,
                 std::span<std::uint8_t> finished,
                 FastRoundEffects* fx) override {
    const std::size_t m = alive.size();
    const auto s0 = static_cast<std::size_t>(alive[0]);
    switch (stage_[s0]) {
      case kFallback: {
        const std::int64_t tx =
            PrimaryCoinRound(coin_, ctx, alive, node_tx, mask_, fx);
        KnockoutFinish(tx, mask_, finished);
        return true;
      }
      case kReduce: {
        const auto step = static_cast<std::size_t>(step_[s0]);
        const std::int64_t tx = PrimaryCoinRound(reduce_sched_[step], ctx,
                                                 alive, node_tx, mask_, fx);
        if (KnockoutFinish(tx, mask_, finished)) return true;
        const auto next = static_cast<std::int32_t>(step + 1);
        if (static_cast<std::size_t>(next) == reduce_sched_.size()) {
          for (std::size_t k = 0; k < m; ++k) {
            const auto s = static_cast<std::size_t>(alive[k]);
            stage_[s] = kIdr;  // survivor: IDReduction starts next round
            step_[s] = 0;
          }
        } else {
          for (std::size_t k = 0; k < m; ++k) {
            step_[static_cast<std::size_t>(alive[k])] = next;
          }
        }
        return true;
      }
      case kIdr:
        switch (step_[s0]) {
          case 0: {  // spread over [C'/2]
            CRMC_CHECK_MSG(pairs_[s0] < params_.id_reduction.max_pairs,
                           "IDReduction exceeded max_pairs — probability "
                           "of this is superpolynomially small; check "
                           "parameters");
            chan_scratch_.resize(m);
            simd::UniformFill(*spread_, ctx.rng, alive, chan_scratch_);
            lone_scratch_.resize(m);
            const simd::Occupancy occ =
                simd::ClassifyChannels(chan_scratch_, kPrimaryChannel, counts_,
                                       touched_, lone_scratch_);
            for (std::size_t k = 0; k < m; ++k) {
              const auto s = static_cast<std::size_t>(alive[k]);
              ++node_tx[s];
              chan_[s] = chan_scratch_[k];
              renamed_[s] = lone_scratch_[k];
              step_[s] = 1;
            }
            fx->transmissions += static_cast<std::int64_t>(m);
            fx->lone_deliveries += occ.lone_channels;
            fx->primary_lone_delivered = occ.primary_lone;
            return true;
          }
          case 1: {  // confirm on the primary channel
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
            if (r >= 1) {
              for (std::size_t k = 0; k < m; ++k) {
                const auto s = static_cast<std::size_t>(alive[k]);
                if (renamed_[s]) {
                  stage_[s] = kLeaf;  // kActive: elect over leaf = new ID
                  leaf_.Enter(s, chan_[s]);
                } else {
                  finished[k] = 1;  // someone renamed and we did not
                }
              }
            } else {
              for (std::size_t k = 0; k < m; ++k) {
                step_[static_cast<std::size_t>(alive[k])] = 2;
              }
            }
            return true;
          }
          default: {  // knockout with probability 1/k
            const std::int64_t tx =
                PrimaryCoinRound(*knock_, ctx, alive, node_tx, mask_, fx);
            if (KnockoutFinish(tx, mask_, finished)) return true;
            for (std::size_t k = 0; k < m; ++k) {
              const auto s = static_cast<std::size_t>(alive[k]);
              step_[s] = 0;
              ++pairs_[s];
            }
            return true;
          }
        }
      case kLeaf:
      default:
        return false;
    }
  }

  std::unique_ptr<TrialProgram> MakeTrialProgram() const override;

 private:
  enum Stage : std::uint8_t { kFallback, kReduce, kIdr, kLeaf };

  core::GeneralParams params_;
  std::int32_t eff_ = 0;
  bool fallback_ = false;
  std::vector<BatchBernoulli> reduce_sched_;
  std::optional<BatchUniformInt> spread_;
  std::optional<BatchBernoulli> knock_;
  BatchBernoulli coin_{0.5};
  LeafMachine leaf_;

  std::vector<std::uint8_t> stage_;
  std::vector<std::int32_t> step_;  // reduce schedule index / IDR cycle pos
  std::vector<std::int32_t> chan_;  // IDR spread channel (leaf label later)
  std::vector<std::uint8_t> renamed_;
  std::vector<std::int64_t> pairs_;
  // FastRound scratch (see IdReductionProgram).
  std::vector<std::uint8_t> mask_;
  std::vector<std::int32_t> chan_scratch_;
  std::vector<std::uint8_t> lone_scratch_;
  std::vector<std::uint16_t> counts_;
  std::vector<std::int32_t> touched_;
};

// The composed general algorithm's trial-parallel twin. Stage positions are
// a pure function of the lockstep round for everything before LeafElection:
// all live lanes run Reduce for rounds [0, L) (L = schedule length — a lane
// whose knockout resolves early ends wholesale, it never half-advances),
// survivors all enter IDReduction at round L, and from there the cycle is
// (round - L) % 3 with pairs (round - L) / 3. Only the LeafElection stage
// is lane-individual: a lane leaves IDReduction at its own confirm round,
// so a per-lane in_leaf flag routes it to the lane-local leaf resolver —
// unlike the per-trial program, which abandons the fused path at kLeaf, the
// twin keeps every lane fused end to end.
class GeneralTrialProgram final : public TrialProgram {
 public:
  explicit GeneralTrialProgram(core::GeneralParams params) : params_(params) {}

  std::string_view name() const override { return "general"; }

  bool Reset(const TrialContext& ctx, std::int32_t lanes) override {
    eff_ = core::EffectiveChannels(ctx.channels, ctx.population);
    fallback_ = eff_ < params_.min_channels;
    set_.Reset(lanes, ctx.num_active);
    in_leaf_.assign(static_cast<std::size_t>(lanes), 0);
    if (fallback_) return true;
    if (eff_ < 4) return false;  // per-trial Reset throws; fall back
    reduce_sched_ = BuildReduceSchedule(ctx.population, params_.reduce);
    spread_.emplace(1, eff_ / 2);
    const double knock_k =
        std::max(2.0, std::sqrt(static_cast<double>(eff_)) /
                          params_.id_reduction.knock_divisor);
    knock_.emplace(1.0 / knock_k);
    leaf_.Init(eff_ / 2, params_.leaf_election.force_binary_search,
               set_.alive.size());
    chan_.assign(set_.alive.size(), 0);
    renamed_.assign(set_.alive.size(), 0);
    counts_.assign(static_cast<std::size_t>(eff_ / 2) + 3, 0);
    scratch_.Reset(ctx.channels);
    return true;
  }

  void Round(const TrialContext& ctx, std::span<const std::int32_t> lanes,
             std::span<std::int64_t> node_tx,
             std::span<LaneEffects> effects) override {
    if (fallback_) {  // C = O(1): the single-channel knockout, forever
      GatherAliveSlots(set_, lanes, slots_, seg_);
      mask_.resize(slots_.size());
      simd::CoinMask(coin_, ctx.rng, slots_, mask_);
      KnockoutLanes(lanes, effects, node_tx);
      return;
    }
    const auto len = static_cast<std::int64_t>(reduce_sched_.size());
    if (ctx.round < len) {  // every live lane is still in Reduce
      GatherAliveSlots(set_, lanes, slots_, seg_);
      mask_.resize(slots_.size());
      simd::CoinMask(reduce_sched_[static_cast<std::size_t>(ctx.round)],
                     ctx.rng, slots_, mask_);
      KnockoutLanes(lanes, effects, node_tx);
      return;
    }

    // Snapshot the stage split before processing: a lane whose confirm
    // round moves it into the election this round must not also run a
    // leaf round this round.
    idr_lanes_.clear();
    leaf_lanes_.clear();
    idr_idx_.clear();
    leaf_idx_.clear();
    for (std::size_t k = 0; k < lanes.size(); ++k) {
      if (in_leaf_[static_cast<std::size_t>(lanes[k])]) {
        leaf_lanes_.push_back(lanes[k]);
        leaf_idx_.push_back(k);
      } else {
        idr_lanes_.push_back(lanes[k]);
        idr_idx_.push_back(k);
      }
    }

    const std::int64_t idr_round = ctx.round - len;
    if (!idr_lanes_.empty()) {
      switch (idr_round % 3) {
        case 0: {  // spread over [C'/2]
          if (idr_round / 3 >= params_.id_reduction.max_pairs) {
            // The per-trial path CRMC_CHECK-aborts; diverge these lanes so
            // the fallback rerun reproduces the abort.
            for (const std::size_t k : idr_idx_) effects[k].diverged = true;
            break;
          }
          GatherAliveSlots(set_, idr_lanes_, slots_, seg_);
          chan_scratch_.resize(slots_.size());
          lone_scratch_.resize(slots_.size());
          simd::UniformFill(*spread_, ctx.rng, slots_, chan_scratch_);
          for (std::size_t k = 0; k < idr_lanes_.size(); ++k) {
            const auto lo = static_cast<std::size_t>(seg_[k]);
            const std::size_t hi = static_cast<std::size_t>(seg_[k + 1]);
            const simd::Occupancy occ = simd::ClassifyChannels(
                std::span<const std::int32_t>(chan_scratch_)
                    .subspan(lo, hi - lo),
                kPrimaryChannel, counts_, touched_,
                std::span<std::uint8_t>(lone_scratch_).subspan(lo, hi - lo));
            for (std::size_t i = lo; i < hi; ++i) {
              const auto slot = static_cast<std::size_t>(slots_[i]);
              ++node_tx[slot];
              chan_[slot] = chan_scratch_[i];
              renamed_[slot] = lone_scratch_[i];
            }
            LaneEffects& fx = effects[idr_idx_[k]];
            fx.transmissions = static_cast<std::int64_t>(hi - lo);
            fx.lone_deliveries = occ.lone_channels;
            fx.primary_lone_delivered = occ.primary_lone;
          }
          break;
        }
        case 1: {  // confirm: renamed nodes claim their new IDs
          GatherAliveSlots(set_, idr_lanes_, slots_, seg_);
          for (std::size_t k = 0; k < idr_lanes_.size(); ++k) {
            const auto lo = static_cast<std::size_t>(seg_[k]);
            const auto hi = static_cast<std::size_t>(seg_[k + 1]);
            std::int64_t r = 0;
            for (std::size_t i = lo; i < hi; ++i) {
              const auto slot = static_cast<std::size_t>(slots_[i]);
              r += renamed_[slot];
              node_tx[slot] += renamed_[slot];
            }
            LaneEffects& fx = effects[idr_idx_[k]];
            fx.transmissions = r;
            if (r == 1) {
              fx.lone_deliveries = 1;
              fx.primary_lone_delivered = true;
            }
            if (r >= 1) {
              // Renamed nodes enter the election on leaf = new ID; the
              // rest heard them and finish. The lane itself stays live.
              for (std::size_t i = lo; i < hi; ++i) {
                const std::int32_t slot = slots_[i];
                if (renamed_[static_cast<std::size_t>(slot)]) {
                  leaf_.Enter(static_cast<std::size_t>(slot),
                              chan_[static_cast<std::size_t>(slot)]);
                } else {
                  set_.Retire(idr_lanes_[k], slot);
                  fx.nodes_retired = true;
                }
              }
              in_leaf_[static_cast<std::size_t>(idr_lanes_[k])] = 1;
            }
          }
          break;
        }
        default: {  // knockout with probability 1/k
          GatherAliveSlots(set_, idr_lanes_, slots_, seg_);
          mask_.resize(slots_.size());
          simd::CoinMask(*knock_, ctx.rng, slots_, mask_);
          for (std::size_t k = 0; k < idr_lanes_.size(); ++k) {
            const auto lo = static_cast<std::size_t>(seg_[k]);
            const std::size_t n = static_cast<std::size_t>(seg_[k + 1]) - lo;
            LaneKnockoutRound(
                set_, idr_lanes_[k],
                std::span<const std::int32_t>(slots_).subspan(lo, n),
                std::span<const std::uint8_t>(mask_).subspan(lo, n), node_tx,
                effects[idr_idx_[k]]);
          }
          break;
        }
      }
    }

    if (!leaf_lanes_.empty()) {
      GatherAliveSlots(set_, leaf_lanes_, slots_, seg_);
      for (std::size_t k = 0; k < leaf_lanes_.size(); ++k) {
        const auto lo = static_cast<std::size_t>(seg_[k]);
        const std::size_t n = static_cast<std::size_t>(seg_[k + 1]) - lo;
        LeafLaneRound(leaf_, set_, leaf_lanes_[k],
                      std::span<const std::int32_t>(slots_).subspan(lo, n),
                      node_tx, scratch_, effects[leaf_idx_[k]]);
      }
    }
  }

 private:
  // Applies the knockout rule to every lane of the slots_/seg_/mask_ state
  // set up by the caller (fallback and Reduce rounds share this shape).
  void KnockoutLanes(std::span<const std::int32_t> lanes,
                     std::span<LaneEffects> effects,
                     std::span<std::int64_t> node_tx) {
    for (std::size_t k = 0; k < lanes.size(); ++k) {
      const auto lo = static_cast<std::size_t>(seg_[k]);
      const std::size_t n = static_cast<std::size_t>(seg_[k + 1]) - lo;
      LaneKnockoutRound(set_, lanes[k],
                        std::span<const std::int32_t>(slots_).subspan(lo, n),
                        std::span<const std::uint8_t>(mask_).subspan(lo, n),
                        node_tx, effects[k]);
    }
  }

  core::GeneralParams params_;
  std::int32_t eff_ = 0;
  bool fallback_ = false;
  std::vector<BatchBernoulli> reduce_sched_;
  std::optional<BatchUniformInt> spread_;
  std::optional<BatchBernoulli> knock_;
  BatchBernoulli coin_{0.5};
  LeafMachine leaf_;
  LeafLaneScratch scratch_;

  LaneAliveSet set_;
  std::vector<std::uint8_t> in_leaf_;  // [lane]
  std::vector<std::int32_t> chan_;     // [lane * n + node] spread pick
  std::vector<std::uint8_t> renamed_;  // [lane * n + node]
  std::vector<std::int32_t> slots_, seg_;
  std::vector<std::int32_t> idr_lanes_, leaf_lanes_;
  std::vector<std::size_t> idr_idx_, leaf_idx_;
  std::vector<std::uint8_t> mask_;
  std::vector<std::int32_t> chan_scratch_;
  std::vector<std::uint8_t> lone_scratch_;
  std::vector<std::uint16_t> counts_;
  std::vector<std::int32_t> touched_;
};

std::unique_ptr<TrialProgram> GeneralProgram::MakeTrialProgram() const {
  return std::make_unique<GeneralTrialProgram>(params_);
}

}  // namespace

std::unique_ptr<StepProgram> MakeTwoActiveProgram(
    core::TwoActiveParams params) {
  return std::make_unique<TwoActiveProgram>(params);
}

std::unique_ptr<StepProgram> MakeReduceProgram(core::ReduceParams params) {
  return std::make_unique<ReduceProgram>(params);
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
  return std::make_unique<KnockoutCdProgram>();
}

std::unique_ptr<StepProgram> MakeGeneralProgram(core::GeneralParams params) {
  return std::make_unique<GeneralProgram>(params);
}

}  // namespace crmc::sim
