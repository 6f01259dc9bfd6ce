#include "sim/trial_engine.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>

#include "core/channel_budget.h"
#include "simd/kernels.h"
#include "support/assert.h"
#include "support/bits.h"

namespace crmc::sim {

// ---------------------------------------------------------------------------
// TrialBatchEngine::TwoActiveLanes. In the duel every round is a
// primary-channel coin round for every node, ending on the first lone
// transmitter. Otherwise both nodes of a lane rename together; the round
// their labels differ ends the lane, with the rest of its run (SplitCheck
// and the final pair round, see the per-trial FastRound in
// step_program.cpp) computed by core::SplitCheck. So a live lane has
// stalled in every round it ran, and a pristine lane never diverges.

bool TrialBatchEngine::TwoActiveLanes::Reset(
    const core::TwoActiveParams& params, std::int64_t population,
    std::int32_t num_active, std::int32_t channels, std::size_t max_lanes) {
  const std::int32_t usable =
      core::TwoActiveChannels(channels, population, params);
  duel_ = usable < 2;
  num_active_ = num_active;
  if (!duel_) {
    if (num_active != 2) return false;
    const auto height = static_cast<std::int32_t>(
        support::FloorLog2(static_cast<std::uint64_t>(usable)));
    if (!split_check_ || split_check_->height() != height) {
      split_check_.emplace(height);
    }
    rename_draw_.emplace(1, usable);
  }
  // A round gathers at most every stream slot of the chunk.
  slots_.reserve(max_lanes * static_cast<std::size_t>(num_active));
  return true;
}

template <typename Retire>
void TrialBatchEngine::TwoActiveLanes::Run(support::StreamPlaneView rng,
                                           std::vector<std::int32_t>& live,
                                           std::int64_t max_rounds,
                                           bool stop_when_solved,
                                           std::span<std::int64_t> node_tx,
                                           Retire&& retire) {
  std::int64_t round = 0;
  for (; !live.empty() && round < max_rounds; ++round) {
    live.resize(duel_ ? DuelRound(rng, live, round, stop_when_solved,
                                  node_tx, retire)
                      : RenameRound(rng, live, round, max_rounds,
                                    stop_when_solved, node_tx, retire));
  }
  // Lanes still live hit max_rounds, having stalled in every round: no
  // lone transmitter in the duel, a collision in every rename round.
  for (const std::int32_t lane : live) {
    if (!duel_) {
      node_tx[static_cast<std::size_t>(lane) * 2] = round;
      node_tx[static_cast<std::size_t>(lane) * 2 + 1] = round;
    }
    retire(lane, core::TwoActiveOutcome{
                     .rounds = round, .stall = round, .timed_out = true});
  }
  live.clear();
}

// All-on-primary coin rounds for every lane at once: one CoinMask call over
// the concatenated per-lane slot segments, then a per-lane popcount of its
// segment. A lone transmitter ends the lane (everyone heard it).
template <typename Retire>
std::size_t TrialBatchEngine::TwoActiveLanes::DuelRound(
    support::StreamPlaneView rng, std::span<std::int32_t> live,
    std::int64_t round, bool stop_when_solved,
    std::span<std::int64_t> node_tx, Retire& retire) {
  const auto n = static_cast<std::size_t>(num_active_);
  slots_.clear();
  for (const std::int32_t lane : live) {
    for (std::int32_t j = 0; j < num_active_; ++j) {
      slots_.push_back(lane * num_active_ + j);
    }
  }
  mask_.resize(slots_.size());
  simd::CoinMask(coin_, rng, slots_, mask_);
  std::size_t kept = 0;
  std::size_t base = 0;
  for (std::size_t k = 0; k < live.size(); ++k, base += n) {
    std::int32_t transmitters = 0;
    for (std::size_t j = 0; j < n; ++j) {
      node_tx[static_cast<std::size_t>(slots_[base + j])] += mask_[base + j];
      transmitters += mask_[base + j];
    }
    if (transmitters == 1) {
      // Everyone heard the lone transmitter. A solve that stops the run
      // ends it before the nodes finish, with the streak it met.
      retire(live[k], core::TwoActiveOutcome{
                          .rounds = round + 1,
                          .stall = stop_when_solved ? round : 0,
                          .solved_round = round,
                          .primary = 1,
                          .terminated = !stop_when_solved});
    } else {
      live[kept++] = live[k];
    }
  }
  return kept;
}

// Both nodes of every lane draw a label and transmit on it. Equal labels
// collide and the lane renames again next round; distinct labels end it.
template <typename Retire>
std::size_t TrialBatchEngine::TwoActiveLanes::RenameRound(
    support::StreamPlaneView rng, std::span<std::int32_t> live,
    std::int64_t round, std::int64_t max_rounds, bool stop_when_solved,
    std::span<std::int64_t> node_tx, Retire& retire) {
  slots_.clear();
  for (const std::int32_t lane : live) {
    slots_.push_back(lane * 2);
    slots_.push_back(lane * 2 + 1);
  }
  draws_.resize(slots_.size());
  simd::UniformFill(*rename_draw_, rng, slots_, draws_);
  std::size_t kept = 0;
  for (std::size_t k = 0; k < live.size(); ++k) {
    const std::int32_t id0 = draws_[2 * k];
    const std::int32_t id1 = draws_[2 * k + 1];
    if (id0 == id1) {
      live[kept++] = live[k];
      continue;
    }
    const auto lane = static_cast<std::size_t>(live[k]);
    retire(live[k], split_check_->Finish(
                        id0, id1, round, max_rounds, stop_when_solved,
                        node_tx.subspan(lane * 2).first<2>()));
  }
  return kept;
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

  // Lane trial i ended as `outcome`, on a chunk of `lanes` lanes, with
  // every round fused.
  void Retire(std::size_t i, const core::TwoActiveOutcome& outcome,
              std::int32_t lanes, std::span<const std::int64_t> node_tx) {
    RunResult& r = results_[i] = RunResult{};
    for (std::uint32_t m = outcome.primary; m != 0; m &= m - 1) {
      RecordLoneDelivery(r, outcome.solved_round + std::countr_zero(m));
    }
    r.total_transmissions =
        std::accumulate(node_tx.begin(), node_tx.end(), std::int64_t{0});
    r.fused_rounds = outcome.rounds;
    r.trial_lanes = lanes;
    FinishRun(config_, outcome.rounds, outcome.stall, outcome.terminated,
              outcome.timed_out, node_tx, r);
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

  // What fold_.Add would add for the RunResult ResultSink::Retire builds:
  // a lane reports no layer counters, never confirms a solve or breaks an
  // assumption, and fuses every round it runs.
  void Retire(std::size_t i, const core::TwoActiveOutcome& outcome,
              std::int32_t lanes, std::span<const std::int64_t> /*node_tx*/) {
    plane_[i] = outcome.solved_round + 1;
    fold_.AddOutcome(outcome.solved_round >= 0, /*solve_confirmed=*/false,
                     outcome.timed_out, /*assumption_violated=*/false,
                     Wedged(outcome.timed_out, outcome.stall, outcome.rounds),
                     outcome.rounds);
    fold_.fused_rounds_total += outcome.rounds;
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
  // lane loop does not keep. Last, the lanes must take the shape: |A| = 2
  // outside the duel.
  const std::optional<core::TwoActiveParams> params =
      TwoActiveParamsOf(program);
  const bool lane_fusible =
      params.has_value() && fused_rounds_enabled_ &&
      config.cd_model == mac::CdModel::kStrong && !config.record_trace &&
      !config.record_active_counts && !config.robust.enabled &&
      !EffectiveFaultSpec(config).Any() &&
      config.adversary.kind == adversary::Kind::kNone &&
      lanes_.Reset(*params, population, config.num_active, config.channels,
                   static_cast<std::size_t>(lane_width_));
  if (!lane_fusible) {
    RunFallback(config, program, seeds, sink);
    return;
  }

  for (std::size_t offset = 0; offset < seeds.size();
       offset += static_cast<std::size_t>(lane_width_)) {
    RunLaneChunk(config,
                 seeds.subspan(offset,
                               std::min(static_cast<std::size_t>(lane_width_),
                                        seeds.size() - offset)),
                 offset, sink);
  }
}

template <typename Sink>
void TrialBatchEngine::RunFallback(const EngineConfig& config,
                                   StepProgram& program,
                                   std::span<const std::uint64_t> seeds,
                                   Sink& sink) {
  EngineConfig solo = config;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    solo.seed = seeds[i];
    RunResult run = fallback_.Run(solo, program);
    run.trial_fallback = true;
    sink.Fallback(i, std::move(run));
  }
}

template <typename Sink>
void TrialBatchEngine::RunLaneChunk(const EngineConfig& config,
                                    std::span<const std::uint64_t> seeds,
                                    std::size_t offset, Sink& sink) {
  const auto n = static_cast<std::size_t>(config.num_active);
  const auto w = seeds.size();

  // One philox stream per (lane, node) slot of one plane; node `node` of
  // lane `lane` gets exactly the stream the coroutine engine would hand it
  // for seed seeds[lane] (ForStream(seed, node + 1)), all seeded by one
  // call straight into the word planes. The separate ID-sampling stream
  // (0x1d5eed) is not materialized: the lanes consume no sampled IDs and
  // no result field depends on that stream.
  rng_.Resize(w * n, config.rng);
  simd::SeedStreams(seeds, 1, rng_.view());

  live_.resize(w);
  std::iota(live_.begin(), live_.end(), 0);
  node_tx_.assign(w * n, 0);
  lanes_.Run(rng_.view(), live_, config.max_rounds, config.stop_when_solved,
             node_tx_,
             [&](std::int32_t lane, const core::TwoActiveOutcome& outcome) {
               const auto i = static_cast<std::size_t>(lane);
               sink.Retire(offset + i, outcome, static_cast<std::int32_t>(w),
                           std::span<const std::int64_t>(node_tx_).subspan(
                               i * n, n));
             });
}

}  // namespace crmc::sim
