#include "sim/trial_engine.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "core/channel_budget.h"
#include "simd/kernels.h"
#include "support/assert.h"

namespace crmc::sim {
namespace {

using mac::kPrimaryChannel;

// What one lockstep round did to one lane: the per-trial fused round's
// effects plus the lane's lifecycle. A two_active lane ends all at once (a
// lone transmission or the final pair round ends both nodes), so no round
// retires part of a lane and only a lone delivery counts as progress for
// the stall streak.
struct LaneRound : FastRoundEffects {
  bool finished = false;  // every node of the lane terminated
  // The lane left the lockstep set, in a state the per-trial path reports
  // as a breach. The engine re-runs that seed from scratch per trial (with
  // freshly seeded streams, so the aborted round's draws are harmless),
  // which reproduces the breach bit-exactly. The other fields are ignored.
  bool diverged = false;
};

}  // namespace

// ---------------------------------------------------------------------------
// TrialBatchEngine::TwoActiveLanes. The run is fully lockstep per lane (see
// the per-trial FastRound in step_program.cpp): in the duel every round is
// a primary-channel coin round; otherwise the lane's two nodes rename
// together, share their search bounds and end on a {transmit, listen}
// pair. So a pristine lane never diverges.

bool TrialBatchEngine::TwoActiveLanes::Reset(
    const core::TwoActiveParams& params, std::int64_t population,
    std::int32_t num_active, std::int32_t channels, std::size_t lanes) {
  const std::int32_t usable =
      core::TwoActiveChannels(channels, population, params);
  duel_ = usable < 2;
  num_active_ = num_active;
  if (!duel_) {
    if (num_active != 2) return false;
    tree_.emplace(usable);
    rename_draw_.emplace(1, usable);
  }
  lanes_.assign(lanes, Lane{.phase = duel_ ? kDuel : kRename});
  // A round gathers at most every stream slot of the chunk.
  slots_.reserve(lanes * static_cast<std::size_t>(num_active));
  return true;
}

template <typename Retire>
void TrialBatchEngine::TwoActiveLanes::Round(
    support::StreamPlaneView rng, std::span<const std::int32_t> live,
    std::span<std::int64_t> node_tx, Retire&& retire) {
  if (duel_) {
    DuelRound(rng, live, node_tx, retire);
    return;
  }
  // Pass 1: gather the stream slots of every lane that draws this round
  // (only renaming lanes do; search and final rounds are pure bit math).
  slots_.clear();
  for (const std::int32_t lane : live) {
    if (lanes_[static_cast<std::size_t>(lane)].phase == kRename) {
      slots_.push_back(lane * 2);
      slots_.push_back(lane * 2 + 1);
    }
  }
  draws_.resize(slots_.size());
  simd::UniformFill(*rename_draw_, rng, slots_, draws_);

  // Pass 2: per-lane transitions off the batched draws.
  std::size_t rj = 0;  // read cursor into draws_ (pairs, lane order)
  for (std::size_t k = 0; k < live.size(); ++k) {
    const auto lane = static_cast<std::size_t>(live[k]);
    const std::size_t base = lane * 2;
    Lane& s = lanes_[lane];
    LaneRound fx;
    switch (s.phase) {
      case kRename: {
        s.id0 = draws_[rj];
        s.id1 = draws_[rj + 1];
        rj += 2;
        ++node_tx[base];
        ++node_tx[base + 1];
        fx.transmissions = 2;
        if (s.id0 != s.id1) {  // both alone: renamed, and maybe solved outright
          fx.lone_deliveries = 2;
          fx.primary_lone_delivered =
              s.id0 == kPrimaryChannel || s.id1 == kPrimaryChannel;
          s.phase = kSearch;
          s.lo = 0;
          s.hi = tree_->height();
        }
        break;
      }
      case kSearch: {
        const std::int32_t mid = (s.lo + s.hi) / 2;
        const std::int32_t ch0 = tree_->IndexWithinLevel(s.id0, mid);
        const std::int32_t ch1 = tree_->IndexWithinLevel(s.id1, mid);
        ++node_tx[base];
        ++node_tx[base + 1];
        fx.transmissions = 2;
        if (ch0 == ch1) {  // still shared at `mid`: divergence is deeper
          s.lo = mid + 1;
        } else {
          fx.lone_deliveries = 2;
          fx.primary_lone_delivered =
              ch0 == kPrimaryChannel || ch1 == kPrimaryChannel;
          s.hi = mid;
        }
        if (s.lo >= s.hi) {
          const std::int32_t split = s.lo;
          if (split < 1) {  // per-trial path: "cannot diverge at the root"
            fx.diverged = true;
            break;
          }
          const bool t0 = tree_->AncestorIsLeftChild(s.id0, split);
          const bool t1 = tree_->AncestorIsLeftChild(s.id1, split);
          if (t0 == t1) {  // same-final pair: generic-path check territory
            fx.diverged = true;
            break;
          }
          s.phase = kFinalPair;
          s.tx0 = t0;
        }
        break;
      }
      case kFinalPair:
        ++node_tx[base + (s.tx0 ? 0 : 1)];
        fx.transmissions = 1;
        fx.lone_deliveries = 1;
        fx.primary_lone_delivered = true;
        fx.finished = true;
        break;
      default:
        fx.diverged = true;
        break;
    }
    retire(k, fx);
  }
}

// All-on-primary coin rounds for every lane at once: one CoinMask call over
// the concatenated per-lane slot segments, then a per-lane popcount of its
// segment. A lone transmitter ends the lane (everyone heard it).
template <typename Retire>
void TrialBatchEngine::TwoActiveLanes::DuelRound(
    support::StreamPlaneView rng, std::span<const std::int32_t> live,
    std::span<std::int64_t> node_tx, Retire&& retire) {
  const auto n = static_cast<std::size_t>(num_active_);
  slots_.clear();
  for (const std::int32_t lane : live) {
    for (std::int32_t j = 0; j < num_active_; ++j) {
      slots_.push_back(lane * num_active_ + j);
    }
  }
  mask_.resize(slots_.size());
  simd::CoinMask(coin_, rng, slots_, mask_);
  std::size_t base = 0;
  for (std::size_t k = 0; k < live.size(); ++k, base += n) {
    LaneRound fx;
    for (std::size_t j = 0; j < n; ++j) {
      node_tx[static_cast<std::size_t>(slots_[base + j])] += mask_[base + j];
      fx.transmissions += mask_[base + j];
    }
    if (fx.transmissions == 1) {  // everyone heard the lone duel winner
      fx.lone_deliveries = 1;
      fx.primary_lone_delivered = true;
      fx.finished = true;
    }
    retire(k, fx);
  }
}

// ---------------------------------------------------------------------------

TrialBatchEngine::TrialBatchEngine(std::int32_t lane_width)
    : lane_width_(lane_width) {
  CRMC_REQUIRE_MSG(lane_width >= 1, "lane_width must be >= 1, got "
                                        << lane_width);
}

void TrialBatchEngine::set_fused_rounds(bool enabled) {
  fused_rounds_enabled_ = enabled;
  fallback_.set_fused_rounds(enabled);
}

// ---------------------------------------------------------------------------
// Sinks: what the lane loop and the per-trial fallback do with a trial.
// Both see the same calls in the same order; only ResultSink builds a
// RunResult.

class TrialBatchEngine::ResultSink {
 public:
  ResultSink(const EngineConfig& config, std::span<RunResult> results)
      : config_(config), results_(results) {}

  // Trials [offset, offset + lanes) start on the lane path.
  void BeginChunk(std::size_t offset, std::size_t lanes) {
    std::fill_n(results_.begin() + static_cast<std::ptrdiff_t>(offset),
                lanes, RunResult{});
  }
  // What lockstep round `round` did to trial i.
  void Round(std::size_t i, std::int64_t round, const LaneRound& fx) {
    RunResult& r = results_[i];
    r.total_transmissions += fx.transmissions;
    if (fx.primary_lone_delivered) RecordLoneDelivery(r, round);
  }
  // Trial i left the lane loop after `rounds` rounds, every one fused.
  void Retire(std::size_t i, std::int64_t rounds, const LaneTally& tally,
              bool terminated, bool timed_out, std::int32_t lanes,
              std::span<const std::int64_t> node_tx) {
    RunResult& r = results_[i];
    r.fused_rounds = rounds;
    r.trial_lanes = lanes;
    FinishRun(config_, rounds, tally.stall, terminated, timed_out, node_tx,
              r);
  }
  // Trial i ran per trial.
  void Fallback(std::size_t i, RunResult&& run) {
    results_[i] = std::move(run);
  }

 private:
  const EngineConfig& config_;
  std::span<RunResult> results_;
};

class TrialBatchEngine::FoldSink {
 public:
  FoldSink(TrialFold& fold, std::span<std::int64_t> plane)
      : fold_(fold), plane_(plane) {}

  void BeginChunk(std::size_t /*offset*/, std::size_t /*lanes*/) {}
  void Round(std::size_t /*i*/, std::int64_t /*round*/,
             const LaneRound& /*fx*/) {}
  // What fold_.Add would add for the RunResult ResultSink::Retire builds:
  // a lane reports no layer counters, never confirms a solve or breaks an
  // assumption, and fuses every round it runs.
  void Retire(std::size_t i, std::int64_t rounds, const LaneTally& tally,
              bool /*terminated*/, bool timed_out, std::int32_t lanes,
              std::span<const std::int64_t> /*node_tx*/) {
    plane_[i] = tally.solved_round + 1;
    fold_.AddOutcome(tally.solved_round >= 0, /*solve_confirmed=*/false,
                     timed_out, /*assumption_violated=*/false,
                     Wedged(timed_out, tally.stall, rounds), rounds);
    fold_.fused_rounds_total += rounds;
    fold_.trial_lanes_peak = std::max(fold_.trial_lanes_peak, lanes);
  }
  void Fallback(std::size_t i, RunResult&& run) {
    plane_[i] = SolvedPlaneEntry(run);
    fold_.Add(run);
  }

 private:
  TrialFold& fold_;
  std::span<std::int64_t> plane_;
};

void TrialBatchEngine::Run(const EngineConfig& config, StepProgram& program,
                           std::span<const std::uint64_t> seeds,
                           std::span<RunResult> results) {
  CRMC_REQUIRE(seeds.size() == results.size());
  ResultSink sink(config, results);
  RunInto(config, program, seeds, sink);
}

void TrialBatchEngine::Run(const EngineConfig& config, StepProgram& program,
                           std::span<const std::uint64_t> seeds,
                           TrialFold& fold,
                           std::span<std::int64_t> solved_plane) {
  CRMC_REQUIRE(seeds.size() == solved_plane.size());
  FoldSink sink(fold, solved_plane);
  RunInto(config, program, seeds, sink);
}

template <typename Sink>
void TrialBatchEngine::RunInto(const EngineConfig& config,
                               StepProgram& program,
                               std::span<const std::uint64_t> seeds,
                               Sink& sink) {
  const std::int64_t population = ValidateEngineConfig(config);
  if (config.rng != support::RngKind::kPhilox) {
    throw std::invalid_argument(
        "trial-parallel executor requires rng == philox: lockstep lanes "
        "need counter-based streams, xoshiro draws are sequential by "
        "construction");
  }
  if (seeds.empty()) return;

  // The lane-fusible gate: BatchEngine's fast_rounds conditions (feedback
  // must be a pure function of the emitted actions, and nothing may need
  // the materialized resolver) plus a two_active program to run the lanes.
  // Everything else runs per trial on the fallback engine — bit-exact, one
  // lane at a time. Any adversary kind forces fallback: even a plan that
  // never fires advances adversary/ledger state the lane path does not
  // model. record_active_counts is per-round instrumentation the retiring
  // lane loop does not keep.
  const std::optional<core::TwoActiveParams> params =
      TwoActiveParamsOf(program);
  const bool lane_fusible =
      params.has_value() && fused_rounds_enabled_ &&
      config.cd_model == mac::CdModel::kStrong && !config.record_trace &&
      !config.record_active_counts && !config.robust.enabled &&
      !EffectiveFaultSpec(config).Any() &&
      config.adversary.kind == adversary::Kind::kNone;
  if (!lane_fusible) {
    live_.resize(seeds.size());
    std::iota(live_.begin(), live_.end(), 0);
    RunFallback(config, program, seeds, 0, live_, sink);
    return;
  }

  for (std::size_t offset = 0; offset < seeds.size();
       offset += static_cast<std::size_t>(lane_width_)) {
    const std::span<const std::uint64_t> chunk = seeds.subspan(
        offset, std::min(static_cast<std::size_t>(lane_width_),
                         seeds.size() - offset));
    RunLaneChunk(config, *params, population, chunk, offset, sink);
    if (!fallback_lanes_.empty()) {
      RunFallback(config, program, chunk, offset, fallback_lanes_, sink);
    }
  }
}

template <typename Sink>
void TrialBatchEngine::RunFallback(const EngineConfig& config,
                                   StepProgram& program,
                                   std::span<const std::uint64_t> seeds,
                                   std::size_t offset,
                                   std::span<const std::int32_t> lanes,
                                   Sink& sink) {
  EngineConfig solo = config;
  for (const std::int32_t lane : lanes) {
    const auto i = static_cast<std::size_t>(lane);
    solo.seed = seeds[i];
    RunResult run = fallback_.Run(solo, program);
    run.trial_fallback = true;
    sink.Fallback(offset + i, std::move(run));
  }
}

template <typename Sink>
void TrialBatchEngine::RunLaneChunk(const EngineConfig& config,
                                    const core::TwoActiveParams& params,
                                    std::int64_t population,
                                    std::span<const std::uint64_t> seeds,
                                    std::size_t offset, Sink& sink) {
  const auto n = static_cast<std::size_t>(config.num_active);
  const auto w = seeds.size();

  // One philox stream per (lane, node) slot of one plane; node `node` of
  // lane `lane` gets exactly the stream the coroutine engine would hand it
  // for seed seeds[lane] (ForStream(seed, node + 1)). Each lane seeds its
  // own window of the plane (Subspan), straight into the word planes. The
  // separate ID-sampling stream (0x1d5eed) is not materialized: the lanes
  // consume no sampled IDs and no result field depends on that stream.
  rng_.Resize(w * n, config.rng);
  const support::StreamPlaneView rng = rng_.view();
  for (std::size_t lane = 0; lane < w; ++lane) {
    simd::SeedStreams(seeds[lane], 1, rng.Subspan(lane * n, n));
  }

  fallback_lanes_.clear();
  live_.resize(w);
  std::iota(live_.begin(), live_.end(), 0);
  if (!lanes_.Reset(params, population, config.num_active, config.channels,
                    w)) {
    fallback_lanes_.assign(live_.begin(), live_.end());
    return;
  }

  node_tx_.assign(w * n, 0);
  tally_.assign(w, LaneTally{});
  sink.BeginChunk(offset, w);

  // Hands one retired lane to the sink.
  const auto retire = [&](std::int32_t lane, std::int64_t rounds,
                          bool terminated, bool timed_out) {
    const auto i = static_cast<std::size_t>(lane);
    sink.Retire(offset + i, rounds, tally_[i], terminated, timed_out,
                static_cast<std::int32_t>(w),
                std::span<const std::int64_t>(node_tx_).subspan(i * n, n));
  };

  std::int64_t round = 0;
  while (!live_.empty() && round < config.max_rounds) {
    drop_.assign(live_.size(), 0);
    lanes_.Round(rng, live_, node_tx_, [&](std::size_t k, const LaneRound& fx) {
      const std::int32_t lane = live_[k];
      if (fx.diverged) {
        drop_[k] = 1;
        fallback_lanes_.push_back(lane);
        return;
      }
      const auto i = static_cast<std::size_t>(lane);
      LaneTally& tally = tally_[i];
      sink.Round(offset + i, round, fx);
      if (fx.primary_lone_delivered && tally.solved_round < 0) {
        tally.solved_round = round;
      }
      // Retirement order mirrors BatchEngine's fused path: the solving
      // round ends the run *before* the alive set is compacted (so
      // all_terminated stays false and the stall streak keeps its
      // pre-round value), and only then do finished lanes terminate
      // (post-compaction: alive empty, progress resets the streak).
      if (tally.solved_round >= 0 && config.stop_when_solved) {
        drop_[k] = 1;
        retire(lane, round + 1, /*terminated=*/false, /*timed_out=*/false);
      } else if (fx.finished) {
        drop_[k] = 1;
        tally.stall = 0;
        retire(lane, round + 1, /*terminated=*/true, /*timed_out=*/false);
      } else {
        tally.stall = fx.lone_deliveries > 0 ? 0 : tally.stall + 1;
      }
    });
    live_.resize(simd::CompactKeep(live_, drop_));
    ++round;
  }

  // Lanes still live hit max_rounds. timed_out is unconditional here: the
  // stop_when_solved carve-out retired its lanes above, and a solved
  // !stop_when_solved lane that never terminated times out exactly as it
  // would per-trial.
  for (const std::int32_t lane : live_) {
    retire(lane, round, /*terminated=*/false, /*timed_out=*/true);
  }
}

}  // namespace crmc::sim
