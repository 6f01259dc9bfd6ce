// Columnar fast-path executor for step programs.
//
// BatchEngine::Run executes the same model as Engine::Run (sim/engine.h)
// but drives a StepProgram (sim/step_program.h) instead of per-node
// coroutines: node state lives in flat arrays, each round is two linear
// sweeps over the alive prefix, and only alive nodes' actions are handed to
// mac::Resolver — whose touched_channels scratch keeps resolution O(alive)
// per round instead of O(num_active) or O(C).
//
// The engine instance owns all scratch (RNG columns, action/feedback
// buffers, the resolver) and reuses it across Run calls, so a Monte-Carlo
// sweep of trials is allocation-free after the first trial of a given
// shape. One instance per thread; Run is not reentrant.
//
// For programs with identical_draw_order() (all shipped ones), the
// RunResult is bit-exact against Engine::Run on the same EngineConfig:
// solved/solved_round/all_solved_rounds, rounds_executed, timed_out,
// all_terminated, total_transmissions, the node-transmission summaries,
// active_counts and trace all match. node_reports stays empty — step
// programs carry no per-node instrumentation — and the coroutine engine's
// auto-beacon (wakeup transform) mode has no step-program counterpart.
// Unlike Engine::Run it samples no node IDs: step programs are anonymous,
// and the ID sample has its own stream, so skipping it moves no other draw.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mac/resolver.h"
#include "sim/engine.h"
#include "sim/step_program.h"
#include "support/rng.h"

namespace crmc::sim {

class BatchEngine {
 public:
  // Runs one execution of `program` under `config`. The program is Reset
  // at the start of the run; it must outlive the call.
  RunResult Run(const EngineConfig& config, StepProgram& program);

  // One-shot convenience mirroring Engine::Run (pays the scratch
  // allocations every call; sweeps should hold a BatchEngine instead).
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
  std::vector<support::RandomSource> rng_;
  std::vector<NodeId> alive_;
  std::vector<mac::Action> actions_;
  std::vector<mac::Feedback> feedback_;
  // Scratch for engine-fabricated rounds under the robust layer
  // (confirmation echoes, backoff pauses): kept separate so the protocol
  // round held in actions_/feedback_ survives for Advance.
  std::vector<mac::Action> fab_actions_;
  std::vector<mac::Feedback> fab_feedback_;
  std::vector<std::uint8_t> finished_;
  // Crash-stop is permanent across robust epochs: marked nodes are never
  // re-included in the alive set on epoch restart.
  std::vector<std::uint8_t> crashed_;
  std::vector<std::int64_t> node_tx_;
  bool fused_rounds_enabled_ = true;
};

}  // namespace crmc::sim
