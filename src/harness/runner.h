// Multi-trial experiment runner.
//
// Runs many independent Engine executions (different seeds) of a protocol
// on a fixed (n, |A|, C) point, in parallel across hardware threads, and
// collects the solved-round distribution. Every bench binary is built on
// this. A TrialSetResult carries the runs' sim::TrialFold: their
// sim::LayerCounters folded by LayerCounters::Add, plus what the set
// derives from each run's outcome.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness/stats.h"
#include "sim/engine.h"
#include "sim/step_program.h"

namespace crmc::harness {

struct TrialSpec {
  std::int64_t population = 0;  // n (0 -> num_active)
  std::int32_t num_active = 0;  // |A|
  std::int32_t channels = 1;    // C
  std::int64_t max_rounds = 4'000'000;
  std::uint64_t base_seed = 0x5eedULL;
  bool record_active_counts = false;
  bool stop_when_solved = true;
  // Opt-out for the BatchEngine fast path: when false, trials always run
  // on the coroutine engine even if the protocol ships a step program.
  bool use_batch_engine = true;
  // Trials per lockstep chunk of the trial-parallel executor
  // (sim/trial_engine.h). 1 (the default) keeps the per-trial batch path;
  // > 1 makes each worker claim blocks of this many consecutive trials and
  // run them as SIMD lanes — requires rng == kPhilox (the executor rejects
  // xoshiro) and a step program. Results are bit-identical to lane width 1
  // for any width and thread count: every trial is a pure function of its
  // per-trial config, so sharding changes nothing but wall-clock.
  std::int32_t lane_width = 1;
  // Opt-out for fused fast rounds (BatchEngine::set_fused_rounds, and the
  // trial executor's lane rounds): when false every trial runs the generic
  // materialized path — bit-identical results, for debugging (--no-fused).
  bool fused_rounds = true;
  // Core generator for every trial's draw streams. Either kind keeps the
  // batch/coroutine engines bit-identical; philox draws are counter-based
  // (lane-reproducible and SIMD-vectorizable), xoshiro keeps the
  // historical sequential bit streams.
  support::RngKind rng = support::RngKind::kXoshiro;
  // Adversarial fault injection, forwarded to every trial's EngineConfig.
  mac::FaultSpec faults;
  // Budgeted adaptive jamming adversary, likewise forwarded per trial (the
  // trial seed doubles as the run seed, so every trial faces a fresh but
  // reproducible jamming schedule).
  adversary::AdversarySpec adversary;
  // Robust execution layer (robust/robust.h), forwarded per trial.
  robust::RobustSpec robust;
};

// A protocol as the harness runs it: the coroutine factory (always present
// — the reference semantics) plus an optional step-program factory that
// enables the BatchEngine fast path. Implicitly constructible from a bare
// ProtocolFactory so existing call sites keep the coroutine engine.
struct ProtocolHandle {
  sim::ProtocolFactory coroutine;
  sim::StepProgramFactory step_program;  // null: coroutine engine only

  // NOLINTNEXTLINE(google-explicit-constructor): deliberate adapter
  ProtocolHandle(sim::ProtocolFactory coroutine_in)
      : coroutine(std::move(coroutine_in)) {}
  // Builds one program from the factory to derive runs_in_lanes() and
  // program_name(), so registered and hand-built handles agree.
  ProtocolHandle(sim::ProtocolFactory coroutine_in,
                 sim::StepProgramFactory step_program_in);

  // Whether the step program runs in trial-parallel lanes
  // (sim::TwoActiveParamsOf), and its name() for the --lanes notice. False
  // and empty without a step program.
  bool runs_in_lanes() const { return runs_in_lanes_; }
  const std::string& program_name() const { return program_name_; }

 private:
  bool runs_in_lanes_ = false;
  std::string program_name_;
};

// A trial set's outcome. The inherited sim::TrialFold holds every
// trial's layer counters (folded with LayerCounters::Add) and the counts
// the set derives from each trial's outcome; the fields below are the
// set's own.
struct TrialSetResult : sim::TrialFold {
  std::vector<std::int64_t> solved_rounds;  // per solved trial (1-based count)
  Summary summary;                          // over solved_rounds only
  std::vector<sim::RunResult> runs;         // iff keep_runs was requested
};

// Runs `trials` executions with seeds base_seed + t. Results stream: each
// worker folds its chunk's trials into the counters above as soon as the
// chunk finishes (lane chunks straight from the trial engine's per-lane
// scratch, with no RunResult at all), so the only per-trial state a call
// holds is the solved-round plane (8 bytes a trial) behind
// `solved_rounds`, which keeps trial order. Only `keep_runs` materializes
// a RunResult per trial, in `runs` (costs memory; used by
// instrumentation-heavy experiments). Trials are distributed over up to
// `threads` workers (0 = hardware concurrency) of the process-wide
// persistent pool (harness/sweep_executor.h); threads == 1 runs inline on
// the caller's thread, with a worker cache parked between calls.
// The solved-round metric is reported as solved_round + 1, i.e. "the
// problem was solved in the R-th round".
//
// When the handle carries a step program, spec.use_batch_engine holds, and
// keep_runs is off (step programs emit no node_reports), trials dispatch to
// BatchEngine — one engine + program instance per worker thread, so a sweep
// is allocation-free after its first trial. Identical results either way:
// the shipped step programs are draw-order identical to their coroutines,
// and trial t runs with seed base_seed + t no matter which worker claims
// it, so statistics are bit-identical across any threads x lane-width
// split and across executors: every counter is an integer sum or max,
// merged in any order to the same bits.
//
// Throws std::invalid_argument when spec.lane_width < 1 (the CLI's --lanes
// contract); a lane_width > 1 request for a protocol that does not run in
// lanes (!protocol.runs_in_lanes(), or a coroutine-engine run) runs fine on
// the per-trial path but prints a one-line stderr notice, once per program
// name per process, since the flag silently buying nothing is the harder
// bug to spot. Deciding it reads the handle and constructs nothing.
TrialSetResult RunTrials(const TrialSpec& spec, const ProtocolHandle& protocol,
                         std::int32_t trials, bool keep_runs = false,
                         std::int32_t threads = 0);

// The pre-pool executor: spawns and joins `threads` fresh std::threads for
// this call only, no cross-call reuse. Kept (and exercised by tests) as the
// measured baseline for the sweep-throughput block of BENCH_engine.json —
// same chunk runner and fold as RunTrials, so bit-identical results by
// construction; only scheduling differs. A worker exception cancels the
// unclaimed chunks and is rethrown on the caller after the join.
TrialSetResult RunTrialsSpawn(const TrialSpec& spec,
                              const ProtocolHandle& protocol,
                              std::int32_t trials, bool keep_runs = false,
                              std::int32_t threads = 0);

// Convenience: mean solved rounds (asserts all trials solved).
double MeanSolvedRounds(const TrialSpec& spec, const ProtocolHandle& protocol,
                        std::int32_t trials);

}  // namespace crmc::harness
