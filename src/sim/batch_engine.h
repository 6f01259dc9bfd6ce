// The round loop: the one executor of the synchronous multi-channel model.
//
// BatchEngine::Run simulates one execution of a StepProgram
// (sim/step_program.h). Each round: crash sweep, the program's EmitActions
// over the alive prefix, adversary PlanRound, mac::Resolver (O(alive) via
// its touched_channels scratch), adversary ObserveRound, the program's
// Advance. Around that sit the robust layer's echo, chaff and backoff
// rounds, jam credit, watchdogs and epoch restarts. Engine::Run
// (sim/engine.h) runs coroutine protocols through this loop via an
// adapter program.
//
// A run is solved in the first round in which exactly one node transmits
// on the primary channel and that transmission is delivered (Section 3;
// not jammed or erased), whether or not the protocol knows it.
//
// The instance owns all scratch, the adversary driver included, and reuses
// it across Run calls, so a sweep is allocation-free after its first trial
// of a given shape. One instance
// per thread; Run is not reentrant. node_reports stays empty (Engine::Run
// appends them) and no node IDs are sampled: columnar programs are
// anonymous, and the ID stream is separate, so skipping it moves no draw.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "adversary/adversary.h"
#include "mac/resolver.h"
#include "sim/engine.h"
#include "sim/step_program.h"
#include "support/rng.h"

namespace crmc::sim {

// Lone-delivery bookkeeping shared by every executor: a lone primary
// delivery in `round` is recorded, and the first one solves the run.
inline void RecordLoneDelivery(RunResult& result, std::int64_t round) {
  if (!result.solved) {
    result.solved = true;
    result.solved_round = round;
  }
  result.all_solved_rounds.push_back(round);
}

// A run is wedged iff it timed out with at least half of it trailing stall.
inline bool Wedged(bool timed_out, std::int64_t stall_streak,
                   std::int64_t rounds) {
  return timed_out && stall_streak * 2 >= rounds;
}

// End-of-run fields shared by every executor: round count, trailing stall
// streak, termination, timeout and wedge flags, and the energy summaries
// over `node_tx` (one transmission count per node, copied into
// node_transmissions when config asks for it).
void FinishRun(const EngineConfig& config, std::int64_t rounds,
               std::int64_t stall_streak, bool terminated, bool timed_out,
               std::span<const std::int64_t> node_tx, RunResult& result);

class BatchEngine {
 public:
  // Runs one execution of `program` under `config`. Throws
  // std::invalid_argument on bad config and propagates exceptions escaping
  // the program. The program is Reset at the start of every epoch; it must
  // outlive the call.
  RunResult Run(const EngineConfig& config, StepProgram& program);

  // One-shot convenience (pays the scratch allocations every call; sweeps
  // should hold a BatchEngine instead).
  static RunResult RunOnce(const EngineConfig& config, StepProgram& program) {
    BatchEngine engine;
    return engine.Run(config, program);
  }

  // Fused rounds (StepProgram::FastRound) skip the Action/Feedback arrays
  // and the resolver on pristine strong-CD untraced rounds. On by default;
  // off forces the generic materialized path on every round — the results
  // are bit-identical either way (the parity suite runs both), this exists
  // for that suite and for debugging.
  void set_fused_rounds(bool enabled) { fused_rounds_enabled_ = enabled; }

 private:
  std::optional<mac::Resolver> resolver_;
  // Reset for every run; keeps its strategy and buffers across runs.
  adversary::AdversaryRun adversary_;
  support::StreamPlane rng_;  // one stream per node, reseeded per epoch
  std::vector<NodeId> alive_;
  std::vector<mac::Action> actions_;
  std::vector<mac::Feedback> feedback_;
  // Actions of the robust layer's fabricated echo and chaff rounds: kept
  // separate so the protocol round held in actions_/feedback_ survives for
  // Advance. Fabricated rounds are tallied, so they need no feedback.
  std::vector<mac::Action> fab_actions_;
  std::vector<std::uint8_t> finished_;
  // Crash-stop is permanent across robust epochs: marked nodes are never
  // re-included in the alive set on epoch restart.
  std::vector<std::uint8_t> crashed_;
  std::vector<std::int64_t> node_tx_;
  bool fused_rounds_enabled_ = true;
};

}  // namespace crmc::sim
