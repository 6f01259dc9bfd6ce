#include "harness/runner.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <iostream>
#include <mutex>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>

#include "harness/sweep_executor.h"
#include "harness/trial_chunk.h"
#include "sim/batch_engine.h"
#include "sim/trial_engine.h"
#include "support/assert.h"

namespace crmc::harness {
namespace internal {

TrialJobPlan PlanTrialJob(const TrialSpec& spec,
                          const ProtocolHandle& protocol, bool keep_runs) {
  TrialJobPlan plan;
  plan.batch = protocol.step_program != nullptr && spec.use_batch_engine &&
               !keep_runs;
  // Trial-parallel lanes: workers claim blocks of lane_width consecutive
  // trials and run them as one lockstep chunk. Block boundaries only group
  // work — every trial's result is a pure function of its per-trial config,
  // so statistics are bit-identical across any threads x lane-width split.
  plan.lanes = plan.batch && spec.lane_width > 1;
  plan.stride = plan.lanes ? spec.lane_width : 1;
  return plan;
}

namespace {

// Folds one trial's counters into `fold`; the solved round itself goes to
// the job's plane (RunTrialChunk).
void FoldRun(const sim::RunResult& run, TrialSetResult& fold) {
  fold.faults_injected += run.faults_injected;
  fold.crashed_nodes += run.crashed_nodes;
  fold.adv_jams_spent += run.adv_jams_spent;
  fold.adv_jams_effective += run.adv_jams_effective;
  fold.adv_rounds_held += run.adv_rounds_held;
  fold.adv_jams_echo += run.adv_jams_echo;
  fold.adv_jams_backoff += run.adv_jams_backoff;
  fold.epochs_used += run.epochs_used;
  fold.retries += run.retries;
  fold.confirm_rounds += run.confirm_rounds;
  fold.backoff_rounds += run.backoff_rounds;
  fold.adaptive_confirm_extra += run.adaptive_confirm_extra;
  fold.adaptive_backoff_trimmed += run.adaptive_backoff_trimmed;
  fold.confirm_quorum_peak =
      std::max(fold.confirm_quorum_peak, run.confirm_quorum_peak);
  fold.probe_rounds_detected += run.probe_rounds_detected;
  fold.obfuscation_rounds += run.obfuscation_rounds;
  fold.rounds_total += run.rounds_executed;
  fold.trial_lanes_peak = std::max(fold.trial_lanes_peak, run.trial_lanes);
  if (run.trial_fallback) ++fold.trial_fallbacks;
  fold.fused_rounds_total += run.fused_rounds;
  if (run.solved) {
    if (run.confirmed) ++fold.confirmed;
  } else {
    // Failed trials are counted, never folded into the round statistics:
    // a timed-out trial's rounds_executed is just the max_rounds cap.
    ++fold.unsolved;
    if (run.timed_out) ++fold.timed_out;
    if (run.assumption_violated) ++fold.aborted;
    if (run.wedged) ++fold.wedged;
    // The remainder terminated unsolved without violating an assumption:
    // the nodes exited deluded (silent failure).
    if (!run.timed_out && !run.assumption_violated) ++fold.deluded;
  }
}

}  // namespace

void RunTrialChunk(const TrialSpec& spec, const ProtocolHandle& protocol,
                   const TrialJobPlan& plan, std::uint64_t job_id,
                   TrialWorkerCache& cache, std::int32_t first,
                   std::int32_t count, TrialJobOutput& output,
                   TrialSetResult& fold) {
  if (cache.job_id != job_id) {
    cache.job_id = job_id;
    cache.program = plan.batch ? protocol.step_program() : nullptr;
    cache.batch_engine.set_fused_rounds(spec.fused_rounds);
    if (plan.lanes) {
      // Fresh engine per job, not just per stride change: the trial engine
      // caches the twin by StepProgram address, and a recycled allocation
      // from a finished job could alias the new program.
      cache.trial_engine.emplace(plan.stride);
      cache.trial_engine->set_fused_rounds(spec.fused_rounds);
    } else {
      cache.trial_engine.reset();
    }
    cache.scratch.resize(static_cast<std::size_t>(plan.stride));
  }

  // Kept runs are written in place; otherwise the chunk lives in scratch
  // only until it is folded.
  const auto at = static_cast<std::size_t>(first);
  const auto n = static_cast<std::size_t>(count);
  const std::span<sim::RunResult> out =
      output.runs.empty()
          ? std::span<sim::RunResult>(cache.scratch).first(n)
          : std::span<sim::RunResult>(output.runs).subspan(at, n);

  sim::EngineConfig config;
  config.population = spec.population;
  config.num_active = spec.num_active;
  config.channels = spec.channels;
  config.max_rounds = spec.max_rounds;
  config.stop_when_solved = spec.stop_when_solved;
  config.record_active_counts = spec.record_active_counts;
  config.rng = spec.rng;
  config.faults = spec.faults;
  config.adversary = spec.adversary;
  config.robust = spec.robust;
  if (plan.lanes) {
    config.seed = spec.base_seed + static_cast<std::uint64_t>(first);
    cache.seeds.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      cache.seeds[i] = spec.base_seed + static_cast<std::uint64_t>(at + i);
    }
    cache.trial_engine->Run(config, *cache.program, cache.seeds, out);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      config.seed = spec.base_seed + static_cast<std::uint64_t>(at + i);
      out[i] = plan.batch ? cache.batch_engine.Run(config, *cache.program)
                          : sim::Engine::Run(config, protocol.coroutine);
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    const sim::RunResult& run = out[i];
    FoldRun(run, fold);
    output.plane[at + i] = run.solved ? run.solved_round + 1 : 0;
  }
}

void MergeTrialFold(const TrialSetResult& part, TrialSetResult& total) {
  total.unsolved += part.unsolved;
  total.timed_out += part.timed_out;
  total.aborted += part.aborted;
  total.wedged += part.wedged;
  total.deluded += part.deluded;
  total.confirmed += part.confirmed;
  total.epochs_used += part.epochs_used;
  total.retries += part.retries;
  total.confirm_rounds += part.confirm_rounds;
  total.backoff_rounds += part.backoff_rounds;
  total.adaptive_confirm_extra += part.adaptive_confirm_extra;
  total.adaptive_backoff_trimmed += part.adaptive_backoff_trimmed;
  total.confirm_quorum_peak =
      std::max(total.confirm_quorum_peak, part.confirm_quorum_peak);
  total.probe_rounds_detected += part.probe_rounds_detected;
  total.obfuscation_rounds += part.obfuscation_rounds;
  total.faults_injected += part.faults_injected;
  total.crashed_nodes += part.crashed_nodes;
  total.adv_jams_spent += part.adv_jams_spent;
  total.adv_jams_effective += part.adv_jams_effective;
  total.adv_rounds_held += part.adv_rounds_held;
  total.adv_jams_echo += part.adv_jams_echo;
  total.adv_jams_backoff += part.adv_jams_backoff;
  total.rounds_total += part.rounds_total;
  total.trial_lanes_peak =
      std::max(total.trial_lanes_peak, part.trial_lanes_peak);
  total.trial_fallbacks += part.trial_fallbacks;
  total.fused_rounds_total += part.fused_rounds_total;
}

TrialSetResult FinishTrialJob(TrialSetResult fold, TrialJobOutput&& output) {
  // Unsolved trials hold 0 (solved ones >= 1): dropping them in place
  // leaves the solved rounds in trial order.
  std::erase(output.plane, 0);
  fold.solved_rounds = std::move(output.plane);
  fold.summary = Summarize(fold.solved_rounds);
  fold.runs = std::move(output.runs);
  return fold;
}

std::uint64_t NextTrialJobId() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1);
}

}  // namespace internal

namespace {

// Shared by RunTrials and RunTrialsSpawn: argument validation plus the
// lane-width notice from the RunTrials contract.
void ValidateTrialArgs(const TrialSpec& spec, const ProtocolHandle& protocol,
                       std::int32_t trials) {
  CRMC_REQUIRE(trials >= 1);
  CRMC_REQUIRE(protocol.coroutine != nullptr);
  if (spec.lane_width < 1) {
    throw std::invalid_argument(
        "lane width (--lanes) must be >= 1, got " +
        std::to_string(spec.lane_width));
  }
}

// The trial engine itself rejects xoshiro (its streams are sequential by
// construction); surface that before any worker thread runs so the error
// arrives as an exception on the calling thread, not a terminate inside a
// pool worker. Only the lane path cares: --lanes on a coroutine-only or
// per-trial run is legal (it just buys nothing — see the stderr notice).
void ValidatePlan(const TrialSpec& spec, const internal::TrialJobPlan& plan) {
  if (plan.lanes && spec.rng != support::RngKind::kPhilox) {
    throw std::invalid_argument(
        "--lanes > 1 requires --rng philox: lockstep lanes need "
        "counter-based streams, xoshiro draws are sequential by "
        "construction");
  }
}

// A lane_width > 1 request falls back per trial whenever the protocol lacks
// a trial-program twin (no step program at all, or MakeTrialProgram returns
// nullptr). That is correct but silently buys nothing, so say so — once per
// protocol per process, not per grid point, so a sweep stays readable.
void MaybeWarnLaneFallback(const TrialSpec& spec,
                           const ProtocolHandle& protocol,
                           const internal::TrialJobPlan& plan) {
  if (spec.lane_width <= 1) return;
  std::unique_ptr<sim::StepProgram> probe;
  if (plan.batch) probe = protocol.step_program();
  const bool twin = probe != nullptr && probe->MakeTrialProgram() != nullptr;
  if (twin) return;
  const std::string label =
      probe ? std::string(probe->name()) : std::string("this protocol");
  // Pre-format off-lock, then dedup-check and emit as one write *under* the
  // lock: releasing it between the insert and the stream (the historical
  // shape) let two threads first-warning different protocols interleave
  // their notice fragments on stderr under the persistent work-stealing
  // pool. The set stays the dedup key — one notice per protocol label per
  // process, same contract as before.
  std::string notice = "note: --lanes " + std::to_string(spec.lane_width) +
                       " requested but " + label +
                       " has no trial-parallel twin" +
                       (plan.batch ? "" : " (coroutine-engine run)") +
                       "; trials run on the per-trial path\n";
  static std::mutex mu;
  static std::set<std::string> warned;
  const std::lock_guard<std::mutex> lock(mu);
  if (!warned.insert(label).second) return;
  std::cerr << notice;
}

std::int32_t ResolveThreads(std::int32_t threads, std::int32_t trials) {
  if (threads <= 0) {
    threads = static_cast<std::int32_t>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 4;
  }
  return std::min(threads, trials);
}

}  // namespace

TrialSetResult RunTrials(const TrialSpec& spec, const ProtocolHandle& protocol,
                         std::int32_t trials, bool keep_runs,
                         std::int32_t threads) {
  ValidateTrialArgs(spec, protocol, trials);
  const internal::TrialJobPlan plan =
      internal::PlanTrialJob(spec, protocol, keep_runs);
  ValidatePlan(spec, plan);
  MaybeWarnLaneFallback(spec, protocol, plan);
  threads = ResolveThreads(threads, trials);

  if (threads == 1) {
    // Inline path: no pool involvement, same chunk runner and fold — handy
    // under sanitizers and for debugging, and bit-identical by construction.
    internal::TrialJobOutput output(trials, keep_runs);
    TrialSetResult fold;
    internal::TrialWorkerCache cache;
    const std::uint64_t job_id = internal::NextTrialJobId();
    for (std::int32_t t = 0; t < trials; t += plan.stride) {
      internal::RunTrialChunk(spec, protocol, plan, job_id, cache, t,
                              std::min(plan.stride, trials - t), output,
                              fold);
    }
    return internal::FinishTrialJob(std::move(fold), std::move(output));
  }

  return SweepExecutor::Global()
      .Enqueue(spec, protocol, trials, keep_runs, threads)
      .Wait();
}

TrialSetResult RunTrialsSpawn(const TrialSpec& spec,
                              const ProtocolHandle& protocol,
                              std::int32_t trials, bool keep_runs,
                              std::int32_t threads) {
  ValidateTrialArgs(spec, protocol, trials);
  const internal::TrialJobPlan plan =
      internal::PlanTrialJob(spec, protocol, keep_runs);
  ValidatePlan(spec, plan);
  MaybeWarnLaneFallback(spec, protocol, plan);
  threads = ResolveThreads(threads, trials);

  internal::TrialJobOutput output(trials, keep_runs);
  const std::uint64_t job_id = internal::NextTrialJobId();
  std::atomic<std::int32_t> next{0};
  // One partial fold per worker, merged after the join. A failing chunk
  // cancels the unclaimed ones; the first failure is rethrown here.
  std::vector<TrialSetResult> parts(static_cast<std::size_t>(threads));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(threads));
  auto worker = [&](std::size_t w) {
    internal::TrialWorkerCache cache;
    TrialSetResult part;
    try {
      for (std::int32_t t = 0; (t = next.fetch_add(plan.stride)) < trials;) {
        internal::RunTrialChunk(spec, protocol, plan, job_id, cache, t,
                                std::min(plan.stride, trials - t), output,
                                part);
      }
    } catch (...) {
      errors[w] = std::current_exception();
      next.store(trials);
    }
    parts[w] = std::move(part);
  };
  if (threads == 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (std::size_t w = 0; w < parts.size(); ++w) pool.emplace_back(worker, w);
    for (std::thread& th : pool) th.join();
  }
  TrialSetResult fold;
  for (std::size_t w = 0; w < parts.size(); ++w) {
    if (errors[w] != nullptr) std::rethrow_exception(errors[w]);
    internal::MergeTrialFold(parts[w], fold);
  }
  return internal::FinishTrialJob(std::move(fold), std::move(output));
}

double MeanSolvedRounds(const TrialSpec& spec, const ProtocolHandle& protocol,
                        std::int32_t trials) {
  const TrialSetResult r = RunTrials(spec, protocol, trials);
  CRMC_CHECK_MSG(r.unsolved == 0,
                 r.unsolved << " of " << trials << " trials failed to solve ("
                            << r.timed_out << " timed out, " << r.aborted
                            << " aborted)");
  return r.summary.mean;
}

}  // namespace crmc::harness
