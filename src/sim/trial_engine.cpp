#include "sim/trial_engine.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "simd/kernels.h"
#include "support/assert.h"

namespace crmc::sim {

TrialBatchEngine::TrialBatchEngine(std::int32_t lane_width)
    : lane_width_(lane_width) {
  CRMC_REQUIRE_MSG(lane_width >= 1, "lane_width must be >= 1, got "
                                        << lane_width);
}

void TrialBatchEngine::set_fused_rounds(bool enabled) {
  fused_rounds_enabled_ = enabled;
  fallback_.set_fused_rounds(enabled);
}

void TrialBatchEngine::Run(const EngineConfig& config, StepProgram& program,
                           std::span<const std::uint64_t> seeds,
                           std::span<RunResult> results) {
  ValidateEngineConfig(config);
  CRMC_REQUIRE(seeds.size() == results.size());
  if (config.rng != support::RngKind::kPhilox) {
    throw std::invalid_argument(
        "trial-parallel executor requires rng == philox: lockstep lanes "
        "need counter-based streams, xoshiro draws are sequential by "
        "construction");
  }
  if (seeds.empty()) return;

  if (trial_source_ != &program) {
    trial_ = program.MakeTrialProgram();
    trial_source_ = &program;
  }

  // The lane-fusible gate: BatchEngine's fast_rounds conditions (feedback
  // must be a pure function of the emitted actions, and nothing may need
  // the materialized resolver) plus a trial program to run the lanes.
  // Everything else runs per trial on the fallback engine — bit-exact, one
  // lane at a time. Any adversary kind forces fallback: even a plan that
  // never fires advances adversary/ledger state the lane path does not
  // model. record_active_counts is per-round instrumentation the retiring
  // lane loop does not keep.
  const bool lane_fusible =
      trial_ != nullptr && fused_rounds_enabled_ &&
      config.cd_model == mac::CdModel::kStrong && !config.record_trace &&
      !config.record_active_counts && !config.robust.enabled &&
      !EffectiveFaultSpec(config).Any() &&
      config.adversary.kind == adversary::Kind::kNone;
  if (!lane_fusible) {
    live_.resize(seeds.size());
    std::iota(live_.begin(), live_.end(), 0);
    RunFallback(config, program, seeds, results, live_);
    return;
  }

  for (std::size_t offset = 0; offset < seeds.size();
       offset += static_cast<std::size_t>(lane_width_)) {
    const std::size_t w = std::min(static_cast<std::size_t>(lane_width_),
                                   seeds.size() - offset);
    RunLaneChunk(config, program, *trial_, seeds.subspan(offset, w),
                 results.subspan(offset, w));
  }
}

void TrialBatchEngine::RunFallback(const EngineConfig& config,
                                   StepProgram& program,
                                   std::span<const std::uint64_t> seeds,
                                   std::span<RunResult> results,
                                   std::span<const std::int32_t> lanes) {
  EngineConfig solo = config;
  for (const std::int32_t lane : lanes) {
    const auto i = static_cast<std::size_t>(lane);
    solo.seed = seeds[i];
    results[i] = fallback_.Run(solo, program);
    results[i].trial_fallback = true;
  }
}

void TrialBatchEngine::RunLaneChunk(const EngineConfig& config,
                                    StepProgram& program, TrialProgram& trial,
                                    std::span<const std::uint64_t> seeds,
                                    std::span<RunResult> results) {
  const std::int64_t population = ValidateEngineConfig(config);
  const auto n = static_cast<std::size_t>(config.num_active);
  const auto w = seeds.size();

  TrialContext ctx;
  ctx.population = population;
  ctx.num_active = config.num_active;
  ctx.channels = config.channels;

  // One philox stream per (lane, node) slot of one plane; node `node` of
  // lane `lane` gets exactly the stream the coroutine engine would hand it
  // for seed seeds[lane] (ForStream(seed, node + 1)). Each lane seeds its
  // own window of the plane (Subspan), straight into the word planes. The
  // separate ID-sampling stream (0x1d5eed) is not materialized: no trial
  // program consumes sampled IDs and no result field depends on that
  // stream.
  rng_.Resize(w * n, config.rng);
  ctx.rng = rng_.view();
  for (std::size_t lane = 0; lane < w; ++lane) {
    simd::SeedStreams(seeds[lane], 1, ctx.rng.Subspan(lane * n, n));
  }

  fallback_lanes_.clear();
  live_.resize(w);
  std::iota(live_.begin(), live_.end(), 0);
  if (!trial.Reset(ctx, static_cast<std::int32_t>(w))) {
    RunFallback(config, program, seeds, results, live_);
    return;
  }

  node_tx_.assign(w * n, 0);
  stall_.assign(w, 0);
  std::fill(results.begin(), results.end(), RunResult{});

  // Finalizes one retired lane's result. Every executed lane round is a
  // fused round.
  const auto finalize = [&](std::int32_t lane, std::int64_t rounds,
                            bool terminated, bool timed_out) {
    const auto i = static_cast<std::size_t>(lane);
    RunResult& r = results[i];
    r.fused_rounds = rounds;
    r.trial_lanes = static_cast<std::int32_t>(w);
    FinishRun(config, rounds, stall_[i], terminated, timed_out,
              std::span<const std::int64_t>(node_tx_).subspan(i * n, n), r);
  };

  std::int64_t round = 0;
  while (!live_.empty() && round < config.max_rounds) {
    effects_.assign(live_.size(), LaneEffects{});
    trial.Round(ctx, live_, node_tx_, effects_);

    drop_.assign(live_.size(), 0);
    for (std::size_t k = 0; k < live_.size(); ++k) {
      const std::int32_t lane = live_[k];
      const LaneEffects& fx = effects_[k];
      if (fx.diverged) {
        drop_[k] = 1;
        fallback_lanes_.push_back(lane);
        continue;
      }
      RunResult& r = results[static_cast<std::size_t>(lane)];
      r.total_transmissions += fx.transmissions;
      if (fx.primary_lone_delivered) RecordLoneDelivery(r, round);
      // Retirement order mirrors BatchEngine's fused path: the solving
      // round ends the run *before* the alive set is compacted (so
      // all_terminated stays false and the stall streak keeps its
      // pre-round value), and only then do finished lanes terminate
      // (post-compaction: alive empty, progress resets the streak).
      if (r.solved && config.stop_when_solved) {
        drop_[k] = 1;
        finalize(lane, round + 1, /*terminated=*/false, /*timed_out=*/false);
      } else if (fx.finished) {
        drop_[k] = 1;
        stall_[static_cast<std::size_t>(lane)] = 0;
        finalize(lane, round + 1, /*terminated=*/true, /*timed_out=*/false);
      } else {
        stall_[static_cast<std::size_t>(lane)] =
            fx.lone_deliveries > 0 ? 0
                                   : stall_[static_cast<std::size_t>(lane)] + 1;
      }
    }
    live_.resize(simd::CompactKeep(live_, drop_));
    ++round;
  }

  // Lanes still live hit max_rounds. timed_out is unconditional here: the
  // stop_when_solved carve-out retired its lanes above, and a solved
  // !stop_when_solved lane that never terminated times out exactly as it
  // would per-trial.
  for (const std::int32_t lane : live_) {
    finalize(lane, round, /*terminated=*/false, /*timed_out=*/true);
  }

  if (!fallback_lanes_.empty()) {
    RunFallback(config, program, seeds, results, fallback_lanes_);
  }
}

}  // namespace crmc::sim
