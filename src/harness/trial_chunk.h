// Internal: per-worker chunk execution and the streaming trial fold shared
// by every trial executor.
//
// RunTrials' inline single-thread path, the legacy per-call spawn executor
// (RunTrialsSpawn), and the persistent SweepExecutor all run the same unit
// of work — "trials [first, first + count) of job X" — with the same
// per-worker cached engines and program instance. Factoring the chunk
// runner out keeps the three executors bit-identical by construction:
// every trial's EngineConfig (seed = base_seed + t included) is built from
// the spec alone, never from worker or executor state.
//
// Results stream: a chunk runs into the worker's reusable scratch of
// `stride` RunResults and is folded straight into a partial TrialSetResult.
// Every fold counter is an integer sum or a max, so partials merge in any
// order to the same bits. The only per-trial state a job keeps is its
// solved-round plane (8 bytes a trial), compacted in trial order when the
// job finishes. Only keep_runs materializes per-trial RunResults.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "harness/runner.h"
#include "sim/batch_engine.h"
#include "sim/trial_engine.h"

namespace crmc::harness::internal {

// Dispatch decisions made once per job (they depend only on spec/handle).
struct TrialJobPlan {
  bool batch = false;  // step-program engines (batch or trial-parallel)
  bool lanes = false;  // trial-parallel executor with lane_width chunks
  std::int32_t stride = 1;  // chunk size workers claim (lane_width if lanes)
};

TrialJobPlan PlanTrialJob(const TrialSpec& spec,
                          const ProtocolHandle& protocol, bool keep_runs);

// One job's per-trial output, written by workers at disjoint trial ranges.
struct TrialJobOutput {
  TrialJobOutput(std::int32_t trials, bool keep_runs)
      : plane(static_cast<std::size_t>(trials)),
        runs(keep_runs ? static_cast<std::size_t>(trials) : 0) {}

  // plane[t] = solved_round + 1 of trial t, or 0 if it did not solve.
  std::vector<std::int64_t> plane;
  std::vector<sim::RunResult> runs;  // iff keep_runs
};

// One worker's reusable scratch. The program instance is built per job
// (keyed by job_id) so a worker that stays on one sweep point is
// allocation-free after its first chunk. The engines outlive jobs: they
// hold no per-program state (the trial engine asks sim::TwoActiveParamsOf
// on every call), so only a new lane width re-creates the trial engine.
struct TrialWorkerCache {
  std::uint64_t job_id = ~std::uint64_t{0};
  std::unique_ptr<sim::StepProgram> program;
  sim::BatchEngine batch_engine;
  std::optional<sim::TrialBatchEngine> trial_engine;
  std::vector<std::uint64_t> seeds;
  // One chunk's results (plan.stride of them), folded and then overwritten
  // by the next chunk, so they stay cache-resident.
  std::vector<sim::RunResult> scratch;
};

// Runs trials [first, first + count) of the job, folds their counters into
// `fold` and writes their slots of `output` (plane, and runs iff kept).
// `fold.solved_rounds` is left untouched; FinishTrialJob fills it.
void RunTrialChunk(const TrialSpec& spec, const ProtocolHandle& protocol,
                   const TrialJobPlan& plan, std::uint64_t job_id,
                   TrialWorkerCache& cache, std::int32_t first,
                   std::int32_t count, TrialJobOutput& output,
                   TrialSetResult& fold);

// Adds a partial fold into `total`: the layer counters through
// LayerCounters::Add, the derived counts and diagnostics alongside.
void MergeTrialFold(const TrialSetResult& part, TrialSetResult& total);

// Completes a job from the merged fold of all its chunks: compacts the
// plane into solved_rounds in trial order, summarizes, and hands over the
// kept runs.
TrialSetResult FinishTrialJob(TrialSetResult fold, TrialJobOutput&& output);

// Fresh process-unique job id for executors that need one outside the
// SweepExecutor queue (inline and spawn paths).
std::uint64_t NextTrialJobId();

}  // namespace crmc::harness::internal
