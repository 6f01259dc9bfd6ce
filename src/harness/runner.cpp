#include "harness/runner.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <iostream>
#include <memory>
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

ProtocolHandle::ProtocolHandle(sim::ProtocolFactory coroutine_in,
                               sim::StepProgramFactory step_program_in)
    : coroutine(std::move(coroutine_in)),
      step_program(std::move(step_program_in)) {
  if (step_program == nullptr) return;
  const std::unique_ptr<sim::StepProgram> program = step_program();
  runs_in_lanes_ = sim::TwoActiveParamsOf(*program).has_value();
  program_name_ = program->name();
}

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

void RunTrialChunk(const TrialSpec& spec, const ProtocolHandle& protocol,
                   const TrialJobPlan& plan, std::uint64_t job_id,
                   TrialWorkerCache& cache, std::int32_t first,
                   std::int32_t count, TrialJobOutput& output,
                   sim::TrialFold& fold) {
  if (cache.job_id != job_id) {
    cache.job_id = job_id;
    cache.program = plan.batch ? protocol.step_program() : nullptr;
    cache.batch_engine.set_fused_rounds(spec.fused_rounds);
    if (plan.lanes) {
      // The trial engine keeps no per-program state, so it and its scratch
      // outlive the job; only a new lane width re-creates it.
      if (!cache.trial_engine ||
          cache.trial_engine->lane_width() != plan.stride) {
        cache.trial_engine.emplace(plan.stride);
      }
      cache.trial_engine->set_fused_rounds(spec.fused_rounds);
    }
  }

  const auto at = static_cast<std::size_t>(first);
  const auto n = static_cast<std::size_t>(count);
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
    // A lane job never keeps runs (PlanTrialJob), so the trial engine folds
    // the chunk itself and writes its plane slots.
    config.seed = spec.base_seed + static_cast<std::uint64_t>(first);
    cache.seeds.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      cache.seeds[i] = spec.base_seed + static_cast<std::uint64_t>(at + i);
    }
    const std::span<std::int64_t> plane(output.plane);
    cache.trial_engine->Run(config, *cache.program, cache.seeds, fold,
                            plane.subspan(at, n));
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    config.seed = spec.base_seed + static_cast<std::uint64_t>(at + i);
    sim::RunResult run = plan.batch
                             ? cache.batch_engine.Run(config, *cache.program)
                             : sim::Engine::Run(config, protocol.coroutine);
    fold.Add(run);
    output.plane[at + i] = sim::SolvedPlaneEntry(run);
    if (!output.runs.empty()) output.runs[at + i] = std::move(run);
  }
}

TrialSetResult FinishTrialJob(const sim::TrialFold& fold,
                              TrialJobOutput&& output) {
  TrialSetResult result;
  static_cast<sim::TrialFold&>(result) = fold;
  // Unsolved trials hold 0 (solved ones >= 1): dropping them in place
  // leaves the solved rounds in trial order.
  std::erase(output.plane, 0);
  result.solved_rounds = std::move(output.plane);
  result.summary = Summarize(result.solved_rounds);
  result.runs = std::move(output.runs);
  return result;
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

// A lane_width > 1 request falls back per trial whenever the run does not
// take the lanes (a coroutine-engine run, or a step program other than
// two_active). That is correct but silently buys nothing, so say so — once
// per protocol per process, not per grid point, so a sweep stays readable.
void MaybeWarnLaneFallback(const TrialSpec& spec,
                           const ProtocolHandle& protocol,
                           const internal::TrialJobPlan& plan) {
  if (spec.lane_width <= 1) return;
  if (plan.batch && protocol.runs_in_lanes()) return;
  const std::string label =
      plan.batch ? protocol.program_name() : std::string("this protocol");
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

// The inline path's worker cache, parked between calls: a call takes it
// (or builds one while another thread holds it) and parks it again when
// done, so serial calls reuse warm engines and scratch. One parked cache
// rather than a thread_local: a thread_local cache's first use binds and
// registers a thread-exit destructor, which added about 20 us (10%) to
// the first RunTrials call of a fresh crmcbench robust_probing_hardened
// process on a 4-vCPU KVM guest.
class ParkedCache {
 public:
  std::unique_ptr<internal::TrialWorkerCache> Take() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (parked_ != nullptr) return std::move(parked_);
    }
    return std::make_unique<internal::TrialWorkerCache>();
  }

  // Keeps `cache` for the next call unless another is parked already.
  void Park(std::unique_ptr<internal::TrialWorkerCache> cache) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (parked_ == nullptr) parked_ = std::move(cache);
  }

 private:
  std::mutex mu_;
  std::unique_ptr<internal::TrialWorkerCache> parked_;  // guarded by mu_
};

ParkedCache g_inline_cache;

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
    sim::TrialFold fold;
    std::unique_ptr<internal::TrialWorkerCache> cache = g_inline_cache.Take();
    const std::uint64_t job_id = internal::NextTrialJobId();
    for (std::int32_t t = 0; t < trials; t += plan.stride) {
      internal::RunTrialChunk(spec, protocol, plan, job_id, *cache, t,
                              std::min(plan.stride, trials - t), output,
                              fold);
    }
    g_inline_cache.Park(std::move(cache));
    return internal::FinishTrialJob(fold, std::move(output));
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
  std::vector<sim::TrialFold> parts(static_cast<std::size_t>(threads));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(threads));
  auto worker = [&](std::size_t w) {
    internal::TrialWorkerCache cache;
    sim::TrialFold part;
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
    parts[w] = part;
  };
  if (threads == 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (std::size_t w = 0; w < parts.size(); ++w) pool.emplace_back(worker, w);
    for (std::thread& th : pool) th.join();
  }
  sim::TrialFold fold;
  for (std::size_t w = 0; w < parts.size(); ++w) {
    if (errors[w] != nullptr) std::rethrow_exception(errors[w]);
    fold.Merge(parts[w]);
  }
  return internal::FinishTrialJob(fold, std::move(output));
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
