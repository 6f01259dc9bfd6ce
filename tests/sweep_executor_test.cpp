// Persistent sweep-executor suite: the work-stealing pool behind RunTrials
// (harness/sweep_executor.h) against the inline path and the legacy
// per-call spawn executor.
//
// The contract under test is bit-identical statistics: trial t always runs
// with seed base_seed + t from an EngineConfig built from the spec alone,
// so which executor (inline / spawn / pool), thread count, or claim order
// produced a result must be invisible in the aggregates. Plus the RunTrials
// argument contract: --lanes validation, the xoshiro+lanes rejection on the
// calling thread, the twin-less lane-width stderr notice, and worker
// exceptions surfacing from Wait instead of terminating the pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/two_active.h"
#include "harness/registry.h"
#include "harness/runner.h"
#include "harness/stats.h"
#include "harness/sweep_executor.h"
#include "sim/batch_engine.h"
#include "sim/engine.h"
#include "sim/step_program.h"
#include "sim/trial_engine.h"
#include "support/rng.h"

namespace crmc::harness {
namespace {

// Every model-output field, solved_rounds order and the Summary's bits
// included — everything but the executor diagnostics below.
void ExpectSameModelFields(const TrialSetResult& want,
                           const TrialSetResult& got) {
  EXPECT_EQ(want.solved_rounds, got.solved_rounds);
  EXPECT_EQ(want.unsolved, got.unsolved);
  EXPECT_EQ(want.timed_out, got.timed_out);
  EXPECT_EQ(want.aborted, got.aborted);
  EXPECT_EQ(want.wedged, got.wedged);
  EXPECT_EQ(want.deluded, got.deluded);
  EXPECT_EQ(want.confirmed, got.confirmed);
  EXPECT_EQ(want.epochs_used, got.epochs_used);
  EXPECT_EQ(want.retries, got.retries);
  EXPECT_EQ(want.confirm_rounds, got.confirm_rounds);
  EXPECT_EQ(want.backoff_rounds, got.backoff_rounds);
  EXPECT_EQ(want.adaptive_confirm_extra, got.adaptive_confirm_extra);
  EXPECT_EQ(want.adaptive_backoff_trimmed, got.adaptive_backoff_trimmed);
  EXPECT_EQ(want.confirm_quorum_peak, got.confirm_quorum_peak);
  EXPECT_EQ(want.probe_rounds_detected, got.probe_rounds_detected);
  EXPECT_EQ(want.obfuscation_rounds, got.obfuscation_rounds);
  EXPECT_EQ(want.faults_injected, got.faults_injected);
  EXPECT_EQ(want.crashed_nodes, got.crashed_nodes);
  EXPECT_EQ(want.adv_jams_spent, got.adv_jams_spent);
  EXPECT_EQ(want.adv_jams_effective, got.adv_jams_effective);
  EXPECT_EQ(want.adv_rounds_held, got.adv_rounds_held);
  EXPECT_EQ(want.adv_jams_echo, got.adv_jams_echo);
  EXPECT_EQ(want.adv_jams_backoff, got.adv_jams_backoff);
  EXPECT_EQ(want.rounds_total, got.rounds_total);
  EXPECT_EQ(want.summary.count, got.summary.count);
  EXPECT_EQ(want.summary.mean, got.summary.mean);
  EXPECT_EQ(want.summary.stddev, got.summary.stddev);
  EXPECT_EQ(want.summary.median, got.summary.median);
  EXPECT_EQ(want.summary.p95, got.summary.p95);
  EXPECT_EQ(want.summary.p99, got.summary.p99);
  EXPECT_EQ(want.summary.min, got.summary.min);
  EXPECT_EQ(want.summary.max, got.summary.max);
}

void ExpectSameTrialSet(const TrialSetResult& want, const TrialSetResult& got,
                        const char* label) {
  SCOPED_TRACE(label);
  ExpectSameModelFields(want, got);
  EXPECT_EQ(want.trial_lanes_peak, got.trial_lanes_peak);
  EXPECT_EQ(want.trial_fallbacks, got.trial_fallbacks);
  EXPECT_EQ(want.fused_rounds_total, got.fused_rounds_total);
  EXPECT_EQ(want.runs.size(), got.runs.size());
}

TrialSpec TwoActiveSpec() {
  TrialSpec spec;
  spec.population = 256;
  spec.num_active = 2;
  spec.channels = 16;
  spec.rng = support::RngKind::kPhilox;
  return spec;
}

ProtocolHandle TwoActiveHandle() {
  return HandleFor(AlgorithmByName("two_active"));
}

// NOTE: this test must run before any other multi-lane call that takes the
// per-trial path — the notice is printed once per protocol label per
// process, and a coroutine-only handle uses the shared label. It races the
// FIRST emission: eight threads hit MaybeWarnLaneFallback simultaneously,
// and exactly one complete notice line may reach stderr (the historical
// unlocked shape let two first-warners interleave their fragments).
TEST(SweepExecutor, TwinlessLaneNoticeEmittedExactlyOnceAcrossThreads) {
  TrialSpec spec = TwoActiveSpec();
  spec.lane_width = 4;
  const ProtocolHandle coroutine_only(core::MakeTwoActive());
  constexpr std::int32_t kThreads = 8;
  ::testing::internal::CaptureStderr();
  {
    std::barrier gate(kThreads);
    std::vector<std::jthread> hammer;
    hammer.reserve(kThreads);
    for (std::int32_t t = 0; t < kThreads; ++t) {
      hammer.emplace_back([&] {
        gate.arrive_and_wait();
        const TrialSetResult r =
            RunTrials(spec, coroutine_only, 4, /*keep_runs=*/false,
                      /*threads=*/1);
        EXPECT_EQ(r.trial_lanes_peak, 0);  // per-trial path throughout
      });
    }
  }
  const std::string notice = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(notice.find("note: --lanes 4"), std::string::npos) << notice;
  EXPECT_NE(notice.find("no trial-parallel twin"), std::string::npos)
      << notice;
  EXPECT_NE(notice.find("(coroutine-engine run)"), std::string::npos)
      << notice;
  // Exactly one emission, as one unbroken line: a single trailing newline
  // and no second "note:" fragment anywhere.
  EXPECT_EQ(std::count(notice.begin(), notice.end(), '\n'), 1) << notice;
  EXPECT_EQ(notice.rfind("note:"), 0u) << notice;
  EXPECT_EQ(notice.back(), '\n') << notice;
}

TEST(SweepExecutor, TwinlessLaneNoticeDedupsAndTwinnedRunsStaySilent) {
  TrialSpec spec = TwoActiveSpec();
  spec.lane_width = 4;
  const ProtocolHandle coroutine_only(core::MakeTwoActive());
  // Warm the label ourselves (ctest runs each case as its own process, so
  // the threaded first-emission test may not have preceded us here); the
  // first call may print, every later one must not.
  ::testing::internal::CaptureStderr();
  RunTrials(spec, coroutine_only, 4, false, 1);
  ::testing::internal::GetCapturedStderr();
  ::testing::internal::CaptureStderr();
  const TrialSetResult again = RunTrials(spec, coroutine_only, 8, false, 1);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  EXPECT_EQ(again.trial_lanes_peak, 0);

  // A twinned protocol with lanes engaged never warns.
  ::testing::internal::CaptureStderr();
  const TrialSetResult laned = RunTrials(spec, TwoActiveHandle(), 8, false, 1);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  EXPECT_EQ(laned.trial_lanes_peak, 4);
}

TEST(SweepExecutor, PoolMatchesSpawnAndInlineBitExact) {
  TrialSpec spec = TwoActiveSpec();
  spec.lane_width = 8;
  const ProtocolHandle handle = TwoActiveHandle();
  constexpr std::int32_t kTrials = 97;  // not a multiple of the lane width
  const TrialSetResult inline_run =
      RunTrials(spec, handle, kTrials, /*keep_runs=*/false, /*threads=*/1);
  const TrialSetResult pool_run =
      RunTrials(spec, handle, kTrials, /*keep_runs=*/false, /*threads=*/3);
  const TrialSetResult spawn_run =
      RunTrialsSpawn(spec, handle, kTrials, /*keep_runs=*/false,
                     /*threads=*/3);
  ExpectSameTrialSet(inline_run, pool_run, "inline-vs-pool");
  ExpectSameTrialSet(inline_run, spawn_run, "inline-vs-spawn");
  EXPECT_EQ(inline_run.trial_lanes_peak, 8);
  EXPECT_EQ(inline_run.trial_fallbacks, 0);
  // two_active lanes fuse every executed round.
  EXPECT_EQ(inline_run.fused_rounds_total, inline_run.rounds_total);
}

TEST(SweepExecutor, WholeGridEnqueueMatchesPerPointRuns) {
  // The bench usage pattern: enqueue every grid point up front, wait the
  // tickets in order — lanes from adjacent points backfill retiring
  // workers. Each point must still aggregate exactly like a solo run.
  const ProtocolHandle handle = TwoActiveHandle();
  std::vector<TrialSpec> grid;
  for (const std::int32_t channels : {1, 2, 4, 16, 64}) {
    TrialSpec spec = TwoActiveSpec();
    spec.channels = channels;
    spec.lane_width = 8;
    grid.push_back(spec);
  }
  std::vector<SweepExecutor::Ticket> tickets;
  tickets.reserve(grid.size());
  for (const TrialSpec& spec : grid) {
    tickets.push_back(
        SweepExecutor::Global().Enqueue(spec, handle, 64, false, 0));
  }
  for (std::size_t i = 0; i < grid.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "point=" << i);
    const TrialSetResult want =
        RunTrials(grid[i], handle, 64, /*keep_runs=*/false, /*threads=*/1);
    ExpectSameTrialSet(want, tickets[i].Wait(), "grid-vs-inline");
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(SweepExecutor, KeepRunsThroughPool) {
  TrialSpec spec = TwoActiveSpec();
  const ProtocolHandle handle = TwoActiveHandle();
  const TrialSetResult want =
      RunTrials(spec, handle, 33, /*keep_runs=*/true, /*threads=*/1);
  const TrialSetResult got =
      RunTrials(spec, handle, 33, /*keep_runs=*/true, /*threads=*/3);
  ASSERT_EQ(want.runs.size(), 33u);
  ASSERT_EQ(got.runs.size(), 33u);
  for (std::size_t t = 0; t < want.runs.size(); ++t) {
    EXPECT_EQ(want.runs[t].solved, got.runs[t].solved);
    EXPECT_EQ(want.runs[t].solved_round, got.runs[t].solved_round);
    EXPECT_EQ(want.runs[t].rounds_executed, got.runs[t].rounds_executed);
  }
}

TEST(SweepExecutor, FallbackCountersSurfaceAtHarnessLevel) {
  // Faults force the trial engine's per-lane fallback: every trial must be
  // flagged, and the statistics still match the inline run.
  TrialSpec spec = TwoActiveSpec();
  spec.lane_width = 8;
  spec.max_rounds = 500;
  spec.faults.jam_rate = 0.15;
  const ProtocolHandle handle = TwoActiveHandle();
  const TrialSetResult want = RunTrials(spec, handle, 48, false, 1);
  const TrialSetResult got = RunTrials(spec, handle, 48, false, 3);
  ExpectSameTrialSet(want, got, "faulty-inline-vs-pool");
  EXPECT_EQ(got.trial_fallbacks, 48);
  EXPECT_EQ(got.trial_lanes_peak, 0);
}

// ---------------------------------------------------------------------------
// Streamed fold vs materialized results. RunTrials folds each chunk's
// results as it goes and keeps only a solved-round plane; these tests
// rebuild every TrialSetResult field from per-trial RunResults produced by
// direct engine calls and folded here, independently of the harness.
// ---------------------------------------------------------------------------

sim::EngineConfig ConfigFor(const TrialSpec& spec, std::uint64_t seed) {
  sim::EngineConfig config;
  config.population = spec.population;
  config.num_active = spec.num_active;
  config.channels = spec.channels;
  config.max_rounds = spec.max_rounds;
  config.stop_when_solved = spec.stop_when_solved;
  config.rng = spec.rng;
  config.faults = spec.faults;
  config.adversary = spec.adversary;
  config.robust = spec.robust;
  config.seed = seed;
  return config;
}

// Trials 0..trials-1 on the engine RunTrials dispatches to: the coroutine
// engine (`coroutine`, or no step program), the trial-parallel engine when
// lane_width > 1, else BatchEngine per trial.
std::vector<sim::RunResult> DirectRuns(const TrialSpec& spec,
                                       const ProtocolHandle& handle,
                                       std::int32_t trials, bool coroutine) {
  const auto n = static_cast<std::size_t>(trials);
  std::vector<sim::RunResult> runs(n);
  if (coroutine || handle.step_program == nullptr) {
    for (std::size_t t = 0; t < n; ++t) {
      runs[t] = sim::Engine::Run(ConfigFor(spec, spec.base_seed + t),
                                 handle.coroutine);
    }
    return runs;
  }
  const std::unique_ptr<sim::StepProgram> program = handle.step_program();
  if (spec.lane_width > 1) {
    std::vector<std::uint64_t> seeds(n);
    for (std::size_t t = 0; t < n; ++t) seeds[t] = spec.base_seed + t;
    sim::TrialBatchEngine engine(spec.lane_width);
    engine.Run(ConfigFor(spec, spec.base_seed), *program, seeds, runs);
    return runs;
  }
  sim::BatchEngine engine;
  for (std::size_t t = 0; t < n; ++t) {
    runs[t] = engine.Run(ConfigFor(spec, spec.base_seed + t), *program);
  }
  return runs;
}

// The TrialSetResult contract (runner.h), folded by hand in trial order.
TrialSetResult HandFold(const std::vector<sim::RunResult>& runs) {
  TrialSetResult r;
  for (const sim::RunResult& run : runs) {
    if (run.solved) {
      r.solved_rounds.push_back(run.solved_round + 1);
      if (run.confirmed) ++r.confirmed;
    } else {
      ++r.unsolved;
      if (run.timed_out) ++r.timed_out;
      if (run.assumption_violated) ++r.aborted;
      if (run.wedged) ++r.wedged;
      if (!run.timed_out && !run.assumption_violated) ++r.deluded;
    }
    r.epochs_used += run.epochs_used;
    r.retries += run.retries;
    r.confirm_rounds += run.confirm_rounds;
    r.backoff_rounds += run.backoff_rounds;
    r.adaptive_confirm_extra += run.adaptive_confirm_extra;
    r.adaptive_backoff_trimmed += run.adaptive_backoff_trimmed;
    r.confirm_quorum_peak =
        std::max(r.confirm_quorum_peak, run.confirm_quorum_peak);
    r.probe_rounds_detected += run.probe_rounds_detected;
    r.obfuscation_rounds += run.obfuscation_rounds;
    r.faults_injected += run.faults_injected;
    r.crashed_nodes += run.crashed_nodes;
    r.adv_jams_spent += run.adv_jams_spent;
    r.adv_jams_effective += run.adv_jams_effective;
    r.adv_rounds_held += run.adv_rounds_held;
    r.adv_jams_echo += run.adv_jams_echo;
    r.adv_jams_backoff += run.adv_jams_backoff;
    r.rounds_total += run.rounds_executed;
    r.trial_lanes_peak = std::max(r.trial_lanes_peak, run.trial_lanes);
    if (run.trial_fallback) ++r.trial_fallbacks;
    r.fused_rounds_total += run.fused_rounds;
  }
  r.summary = SummarizeBySort(r.solved_rounds);
  return r;
}

// For threads {1, 2, 3} x lanes {1, 8, 32}: RunTrials streamed (keep_runs
// off) and RunTrialsSpawn against the hand fold of the dispatched engine,
// and RunTrials with keep_runs against the hand fold of the coroutine
// engine, its kept runs included. `last` gets the lane-32 streamed result.
void CheckStreamedParity(TrialSpec spec, const ProtocolHandle& handle,
                         std::int32_t trials, TrialSetResult& last) {
  const std::vector<sim::RunResult> kept_want =
      DirectRuns(spec, handle, trials, /*coroutine=*/true);
  const TrialSetResult kept_fold = HandFold(kept_want);
  for (const std::int32_t lanes : {1, 8, 32}) {
    spec.lane_width = lanes;
    const TrialSetResult want =
        HandFold(DirectRuns(spec, handle, trials, /*coroutine=*/false));
    // Executors differ only in diagnostics; the model output is one.
    ExpectSameModelFields(kept_fold, want);
    for (const std::int32_t threads : {1, 2, 3}) {
      SCOPED_TRACE(::testing::Message()
                   << "lanes=" << lanes << " threads=" << threads);
      last = RunTrials(spec, handle, trials, /*keep_runs=*/false, threads);
      ExpectSameTrialSet(want, last, "streamed");
      ExpectSameTrialSet(
          want, RunTrialsSpawn(spec, handle, trials, false, threads),
          "spawn");
      TrialSetResult kept =
          RunTrials(spec, handle, trials, /*keep_runs=*/true, threads);
      ASSERT_EQ(kept.runs.size(), kept_want.size());
      for (std::size_t t = 0; t < kept_want.size(); ++t) {
        SCOPED_TRACE(::testing::Message() << "trial=" << t);
        EXPECT_EQ(kept.runs[t].solved, kept_want[t].solved);
        EXPECT_EQ(kept.runs[t].solved_round, kept_want[t].solved_round);
        EXPECT_EQ(kept.runs[t].rounds_executed, kept_want[t].rounds_executed);
        EXPECT_EQ(kept.runs[t].epochs_used, kept_want[t].epochs_used);
        EXPECT_EQ(kept.runs[t].adv_jams_spent, kept_want[t].adv_jams_spent);
      }
      kept.runs.clear();
      ExpectSameTrialSet(kept_fold, kept, "kept");
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(SweepExecutor, StreamedFoldMatchesHandFoldPristine) {
  TrialSetResult r;
  CheckStreamedParity(TwoActiveSpec(), TwoActiveHandle(), 97, r);
  EXPECT_EQ(r.trial_lanes_peak, 32);
  EXPECT_EQ(r.trial_fallbacks, 0);
  EXPECT_GT(r.fused_rounds_total, 0);
}

TEST(SweepExecutor, StreamedFoldMatchesHandFoldJammed) {
  TrialSpec spec = TwoActiveSpec();
  spec.max_rounds = 400;
  spec.faults.jam_rate = 0.1;
  TrialSetResult r;
  CheckStreamedParity(spec, TwoActiveHandle(), 97, r);
  EXPECT_GT(r.faults_injected, 0);
  EXPECT_GT(r.unsolved, 0);
  EXPECT_EQ(r.trial_fallbacks, 97);
}

TEST(SweepExecutor, StreamedFoldMatchesHandFoldProbingHardened) {
  // The crmcbench robust_probing_hardened point, at fewer trials.
  TrialSpec spec = TwoActiveSpec();
  spec.population = 65536;
  spec.channels = 64;
  spec.adversary.kind = adversary::Kind::kProbing;
  spec.adversary.budget = 4096;
  spec.robust.enabled = true;
  spec.robust.policy = robust::PolicyKind::kHardened;
  TrialSetResult r;
  CheckStreamedParity(spec, TwoActiveHandle(), 41, r);
  EXPECT_GT(r.adv_jams_spent, 0);
  EXPECT_GT(r.epochs_used, 0);
  EXPECT_GT(r.confirm_rounds, 0);
  EXPECT_GT(r.confirm_quorum_peak, 0);
  EXPECT_GT(r.confirmed, 0);
  EXPECT_GT(r.probe_rounds_detected, 0);
  EXPECT_GT(r.obfuscation_rounds, 0);
  EXPECT_GT(r.adv_jams_echo + r.adv_jams_backoff, 0);
}

TEST(SweepExecutor, StreamedFoldMatchesHandFoldCoroutineOnly) {
  const ProtocolHandle coroutine_only(core::MakeTwoActive());
  ::testing::internal::CaptureStderr();  // the twin-less --lanes notice
  TrialSetResult r;
  CheckStreamedParity(TwoActiveSpec(), coroutine_only, 53, r);
  ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(r.trial_lanes_peak, 0);
  EXPECT_EQ(r.fused_rounds_total, 0);
}

TEST(SweepExecutor, JobThrowingMidRunSurfacesFromEveryExecutor) {
  // The factory fails once 40 node coroutines have been built: the first
  // trials complete, a later one throws with other chunks still running.
  auto calls = std::make_shared<std::atomic<std::int32_t>>(0);
  const sim::ProtocolFactory two_active = core::MakeTwoActive();
  const ProtocolHandle failing(
      [calls, two_active](sim::NodeContext& ctx) -> sim::ProtocolTask {
        if (calls->fetch_add(1) >= 40) {
          throw std::runtime_error("injected mid-run failure");
        }
        return two_active(ctx);
      });
  const TrialSpec spec = TwoActiveSpec();
  for (const std::int32_t threads : {1, 2, 3}) {
    for (const bool keep_runs : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "threads=" << threads
                                        << " keep_runs=" << keep_runs);
      calls->store(0);
      EXPECT_THROW(RunTrials(spec, failing, 64, keep_runs, threads),
                   std::runtime_error);
      calls->store(0);
      EXPECT_THROW(RunTrialsSpawn(spec, failing, 64, keep_runs, threads),
                   std::runtime_error);
    }
  }
  // The pool keeps serving, and a failed job leaves nothing behind.
  const TrialSetResult want = RunTrials(spec, TwoActiveHandle(), 64, false, 1);
  ExpectSameTrialSet(want, RunTrials(spec, TwoActiveHandle(), 64, false, 3),
                     "after-failure");
}

// ---------------------------------------------------------------------------
// Argument contract.
// ---------------------------------------------------------------------------

TEST(SweepExecutor, RejectsNonPositiveLaneWidth) {
  const ProtocolHandle handle = TwoActiveHandle();
  for (const std::int32_t width : {0, -3}) {
    TrialSpec spec = TwoActiveSpec();
    spec.lane_width = width;
    try {
      RunTrials(spec, handle, 4);
      FAIL() << "expected std::invalid_argument for lane_width " << width;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--lanes"), std::string::npos)
          << e.what();
    }
  }
}

TEST(SweepExecutor, RejectsXoshiroLanesOnCallingThread) {
  // Pre-pool, this config threw inside a spawned worker (terminate); the
  // validation now happens before any dispatch, for every thread count.
  TrialSpec spec = TwoActiveSpec();
  spec.rng = support::RngKind::kXoshiro;
  spec.lane_width = 8;
  const ProtocolHandle handle = TwoActiveHandle();
  for (const std::int32_t threads : {1, 4}) {
    try {
      RunTrials(spec, handle, 16, false, threads);
      FAIL() << "expected std::invalid_argument (threads=" << threads << ")";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("philox"), std::string::npos)
          << e.what();
    }
  }
}

TEST(SweepExecutor, WorkerExceptionsSurfaceFromWait) {
  // A config the engines reject (num_active == 0) reaches the workers; the
  // pool must stay alive and rethrow on the waiting thread.
  TrialSpec spec = TwoActiveSpec();
  spec.num_active = 0;
  const ProtocolHandle handle = TwoActiveHandle();
  EXPECT_THROW(RunTrials(spec, handle, 8, false, 2), std::invalid_argument);
  // The pool survives the failure and keeps serving jobs.
  const TrialSetResult after =
      RunTrials(TwoActiveSpec(), handle, 16, false, 2);
  EXPECT_EQ(after.solved_rounds.size() + static_cast<std::size_t>(after.unsolved),
            16u);
}

}  // namespace
}  // namespace crmc::harness
