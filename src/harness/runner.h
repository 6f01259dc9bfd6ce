// Multi-trial experiment runner.
//
// Runs many independent Engine executions (different seeds) of a protocol
// on a fixed (n, |A|, C) point, in parallel across hardware threads, and
// collects the solved-round distribution. Every bench binary is built on
// this.
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
  ProtocolHandle(sim::ProtocolFactory coroutine_in,
                 sim::StepProgramFactory step_program_in)
      : coroutine(std::move(coroutine_in)),
        step_program(std::move(step_program_in)) {}
};

struct TrialSetResult {
  std::vector<std::int64_t> solved_rounds;  // per solved trial (1-based count)
  // Trials that did not solve, by cause. `unsolved` is the total; the
  // breakdown below keeps failed trials out of the solved-round statistics
  // instead of letting a max_rounds-capped round count poison the mean.
  std::int32_t unsolved = 0;
  std::int32_t timed_out = 0;  // hit max_rounds
  std::int32_t aborted = 0;    // assumption_violated (fault-induced)
  std::int32_t wedged = 0;     // timed out with a stalled trailing half
  // Silent failures: every node terminated believing the problem solved,
  // yet no lone primary delivery ever landed. Counted uniformly for every
  // protocol (the TwoActive shape included — its jammed both-terminated
  // runs land here, not in timed_out).
  std::int32_t deluded = 0;
  // Trials that solved with the robust layer's delivery confirmation
  // (RunResult::confirmed). Equals solved_rounds.size() when the layer is
  // on; 0 when it is off.
  std::int32_t confirmed = 0;
  // Robust-execution aggregates summed over every trial (solved or not).
  std::int64_t epochs_used = 0;
  std::int64_t retries = 0;
  std::int64_t confirm_rounds = 0;
  std::int64_t backoff_rounds = 0;
  // Adaptive-policy aggregates (robust::PolicyKind::kAdaptive): summed
  // extra echo rounds and trimmed honeypot rounds vs the static schedule;
  // confirm_quorum_peak is the max over trials, not a sum.
  std::int64_t adaptive_confirm_extra = 0;
  std::int64_t adaptive_backoff_trimmed = 0;
  std::int32_t confirm_quorum_peak = 0;
  // Hardened-policy aggregates (robust::PolicyKind::kHardened), summed over
  // every trial: bait rounds the adversary was seen jamming, and dummy
  // confirm rounds the obfuscation schedule inserted.
  std::int64_t probe_rounds_detected = 0;
  std::int64_t obfuscation_rounds = 0;
  // Fault-layer aggregates summed over every trial (solved or not).
  std::int64_t faults_injected = 0;
  std::int64_t crashed_nodes = 0;
  // Adaptive-adversary aggregates, likewise summed over every trial.
  std::int64_t adv_jams_spent = 0;
  std::int64_t adv_jams_effective = 0;
  // Hold/spend breakdown summed over every trial (sim::RunResult docs).
  std::int64_t adv_rounds_held = 0;
  std::int64_t adv_jams_echo = 0;
  std::int64_t adv_jams_backoff = 0;
  // Rounds executed summed over every trial, solved and failed alike (a
  // failed trial contributes its max_rounds cap). The bench layer's
  // wrapper-overhead ratios are built on this total cost measure.
  std::int64_t rounds_total = 0;
  // ---- Trial-parallel executor diagnostics (sim/trial_engine.h) ----
  // All zero when lane_width == 1 or the protocol ran per trial throughout.
  // Widest lockstep lane chunk any trial ran in (RunResult::trial_lanes).
  std::int32_t trial_lanes_peak = 0;
  // Trials that entered the lane path and were re-run per trial (twin-less
  // program, TrialProgram Reset declined the shape, or the lane diverged
  // mid-run). Statistics are bit-exact either way; a high count means the
  // requested lane width bought little.
  std::int64_t trial_fallbacks = 0;
  // Rounds executed on a fused fast path, summed over every trial
  // (RunResult::fused_rounds: BatchEngine FastRound + lockstep lane
  // rounds). Compare against rounds_total for the materialized share.
  std::int64_t fused_rounds_total = 0;
  Summary summary;             // over solved_rounds only
  std::vector<sim::RunResult> runs;  // iff keep_runs was requested
};

// Runs `trials` executions with seeds base_seed + t. Results stream: each
// worker folds its chunk's RunResults into the counters above as soon as
// the chunk finishes, so the only per-trial state a call holds is the
// solved-round plane (8 bytes a trial) behind `solved_rounds`, which keeps
// trial order. Only `keep_runs` materializes a RunResult per trial, in
// `runs` (costs memory; used by instrumentation-heavy experiments). Trials
// are distributed over up to `threads` workers (0 = hardware concurrency)
// of the process-wide persistent pool (harness/sweep_executor.h);
// threads == 1 runs inline on the caller's thread. The solved-round
// metric is reported as solved_round + 1, i.e. "the problem was solved in
// the R-th round".
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
// contract); a lane_width > 1 request for a protocol with no trial-program
// twin runs fine on the per-trial path but prints a one-line stderr notice,
// since the flag silently buying nothing is the harder bug to spot.
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
