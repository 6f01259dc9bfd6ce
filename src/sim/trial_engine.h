// Trial-parallel executor: SIMD lanes are whole trials.
//
// TrialBatchEngine runs W independent trials of one (config, protocol)
// point in lockstep — per-(lane, node) RNG streams live in one flat
// [lane * num_active + node] plane, per-lane state in one plane indexed by
// lane, and each round's draws across every lane are gathered into slot
// lists and evaluated by the simd:: kernels in one vectorized pass. Within
// a trial the kernels can only vectorize across alive nodes, which in the
// paper's small-|A| regimes (two_active is |A| = 2) leaves vector units
// mostly idle and per-trial setup dominating; across trials the lanes are
// arbitrarily many and embarrassingly independent.
//
// Only two_active runs in lanes, on the engine's own duel executor
// (TwoActiveLanes below): it is the one protocol whose lockstep rounds beat
// the per-trial engine at equal RNG. Run recognises it with
// sim::TwoActiveParamsOf (sim/step_program.h) on every call; any other
// program runs per trial.
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
// layer, a program other than two_active, or two_active with |A| != 2
// outside the duel — fall back to per-trial BatchEngine runs, one lane at
// a time; a lane that diverges mid-run (a state the per-trial path would
// reject) is re-run from scratch the same way, which reproduces the
// per-trial behaviour exactly because every run is a pure function of its
// config.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/params.h"
#include "sim/batch_engine.h"
#include "sim/engine.h"
#include "sim/step_program.h"
#include "support/rng.h"
#include "tree/channel_tree.h"

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
  // across calls and across programs; one instance per thread.
  void Run(const EngineConfig& config, StepProgram& program,
           std::span<const std::uint64_t> seeds, std::span<RunResult> results);

 private:
  // two_active over W lockstep lanes (defined in trial_engine.cpp). A
  // lane's draws are exactly the per-trial FastRound's: lanes touch
  // disjoint stream slots and each stream is drawn at most once per round,
  // so cross-lane batching reorders no draw within a stream.
  class TwoActiveLanes {
   public:
    // Sets `lanes` lanes to their initial state. Returns false when the
    // shape is outside the lockstep set (|A| != 2 outside the duel, which
    // the per-trial FastRound declines too).
    bool Reset(const core::TwoActiveParams& params, std::int64_t population,
               std::int32_t num_active, std::int32_t channels,
               std::size_t lanes);

    // Executes one lockstep round for every lane in `live` (ascending lane
    // ids), charging transmissions into node_tx[lane * num_active + node],
    // and then calls retire(k, round) with what the round did to lane
    // live[k], in order.
    template <typename Retire>
    void Round(support::StreamPlaneView rng,
               std::span<const std::int32_t> live,
               std::span<std::int64_t> node_tx, Retire&& retire);

   private:
    enum Phase : std::uint8_t { kDuel, kRename, kSearch, kFinalPair };
    struct Lane {
      std::uint8_t phase = kDuel;
      bool tx0 = false;      // final round: node 0 is the transmitter
      std::int32_t id0 = 0;  // renamed labels of the lane's two nodes
      std::int32_t id1 = 0;
      std::int32_t lo = 0;  // shared SplitCheck bounds
      std::int32_t hi = 0;
    };

    template <typename Retire>
    void DuelRound(support::StreamPlaneView rng,
                   std::span<const std::int32_t> live,
                   std::span<std::int64_t> node_tx, Retire&& retire);

    std::int32_t num_active_ = 0;
    bool duel_ = false;
    std::optional<tree::ChannelTree> tree_;
    std::optional<support::BatchUniformInt> rename_draw_;
    support::BatchBernoulli coin_{0.5};
    std::vector<Lane> lanes_;  // indexed by lane id
    // Per-round gather scratch, reused across rounds.
    std::vector<std::int32_t> slots_;
    std::vector<std::int32_t> draws_;
    std::vector<std::uint8_t> mask_;
  };

  void RunLaneChunk(const EngineConfig& config, StepProgram& program,
                    const core::TwoActiveParams& params,
                    std::span<const std::uint64_t> seeds,
                    std::span<RunResult> results);
  // Per-trial BatchEngine runs for `lanes` (indices into seeds/results).
  void RunFallback(const EngineConfig& config, StepProgram& program,
                   std::span<const std::uint64_t> seeds,
                   std::span<RunResult> results,
                   std::span<const std::int32_t> lanes);

  std::int32_t lane_width_;
  bool fused_rounds_enabled_ = true;
  BatchEngine fallback_;
  TwoActiveLanes lanes_;

  // Flat per-chunk planes and scratch, reused across chunks and calls.
  support::StreamPlane rng_;           // [lane * num_active + node]
  std::vector<std::int64_t> node_tx_;       // [lane * num_active + node]
  std::vector<std::int32_t> live_;          // live lane ids, ascending
  std::vector<std::uint8_t> drop_;
  std::vector<std::int64_t> stall_;  // per-lane trailing stall streak
  std::vector<std::int32_t> fallback_lanes_;
};

}  // namespace crmc::sim
