// Trial-parallel executor: SIMD lanes are whole trials.
//
// TrialBatchEngine runs W independent trials of one (config, protocol)
// point in lockstep — per-(lane, node) state and RNG streams live in flat
// [lane * num_active + node] planes, and each round's draws across every
// lane are gathered into slot lists and evaluated by the simd:: kernels in
// one vectorized pass (see TrialProgram in sim/step_program.h). Within a
// trial the kernels can only vectorize across alive nodes, which in the
// paper's small-|A| regimes (two_active is |A| = 2) leaves vector units
// mostly idle and per-trial setup dominating; across trials the lanes are
// arbitrarily many and embarrassingly independent.
//
// Philox-only: lockstep lanes need counter-based streams, where draw i of
// stream s is a pure function of (key, s, i) and a SIMD group of lanes can
// be evaluated with no cross-draw dependency. Xoshiro streams are
// sequential by construction — batching them across lanes would still be
// scalar per draw and the historical bit streams gain nothing — so
// RngKind::kXoshiro is rejected with a distinct std::invalid_argument
// rather than silently degrading.
//
// Every trial stays bit-exact against BatchEngine::Run (and hence the
// coroutine oracle) on the same per-trial config. Configs outside the
// lockstep-fusible set — faults, adversaries, weak CD, traces, the robust
// layer, or a protocol without a trial program — fall back to per-trial
// BatchEngine runs, one lane at a time; a lane that diverges mid-run (a
// state the per-trial path would reject) is re-run from scratch the same
// way, which reproduces the per-trial behaviour exactly because every run
// is a pure function of its config.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/batch_engine.h"
#include "sim/engine.h"
#include "sim/step_program.h"
#include "support/rng.h"

namespace crmc::sim {

class TrialBatchEngine {
 public:
  // Lanes per lockstep chunk. 32 lanes of a two-node protocol feed the
  // draw kernels 64-slot batches — deep enough to fill AVX2 Philox groups
  // and amortize the per-round gather, small enough that the retirement
  // tail (the last unsolved lanes of a chunk) stays short.
  static constexpr std::int32_t kDefaultLaneWidth = 32;

  explicit TrialBatchEngine(std::int32_t lane_width = kDefaultLaneWidth);

  std::int32_t lane_width() const { return lane_width_; }

  // Mirrors BatchEngine::set_fused_rounds: off forces every trial onto the
  // per-trial generic materialized path (results bit-identical either way).
  void set_fused_rounds(bool enabled);

  // Runs seeds.size() independent trials of `program` under `config`
  // (config.seed is ignored; trial i runs with seed seeds[i]) and writes
  // results[i]. Seeds beyond lane_width() are processed in lane_width()
  // sized chunks. Throws std::invalid_argument on bad config and on
  // config.rng != kPhilox. The engine owns all scratch and reuses it
  // across calls; one instance per thread.
  void Run(const EngineConfig& config, StepProgram& program,
           std::span<const std::uint64_t> seeds, std::span<RunResult> results);

 private:
  void RunLaneChunk(const EngineConfig& config, StepProgram& program,
                    TrialProgram& trial, std::span<const std::uint64_t> seeds,
                    std::span<RunResult> results);
  // Per-trial BatchEngine runs for `lanes` (indices into seeds/results).
  void RunFallback(const EngineConfig& config, StepProgram& program,
                   std::span<const std::uint64_t> seeds,
                   std::span<RunResult> results,
                   std::span<const std::int32_t> lanes);

  std::int32_t lane_width_;
  bool fused_rounds_enabled_ = true;
  BatchEngine fallback_;

  // The cached trial-parallel twin of the last program Run was handed
  // (program instances are per-thread and long-lived in sweeps, so this
  // almost always hits).
  StepProgram* trial_source_ = nullptr;
  std::unique_ptr<TrialProgram> trial_;

  // Flat per-chunk planes and scratch, reused across chunks and calls.
  std::vector<support::RandomSource> rng_;  // [lane * num_active + node]
  std::vector<std::int64_t> node_tx_;       // [lane * num_active + node]
  std::vector<std::int32_t> live_;          // live lane ids, ascending
  std::vector<std::uint8_t> drop_;
  std::vector<LaneEffects> effects_;
  std::vector<std::int64_t> stall_;  // per-lane trailing stall streak
  std::vector<std::int32_t> fallback_lanes_;
};

}  // namespace crmc::sim
