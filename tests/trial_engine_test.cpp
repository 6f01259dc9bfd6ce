// Trial-parallel executor parity suite: TrialBatchEngine against the
// per-trial BatchEngine and the coroutine oracle.
//
// The executor's contract is bit-exactness per trial: running W seeds as
// lockstep SIMD lanes must reproduce every per-trial result field exactly,
// for every lane width, SIMD backend, and (lane-fusible or fallback)
// config. The sweeps below cover 2000+ seeds on the headline two_active
// shape plus the duel, channel-cap, run-to-completion, timeout and
// instrumentation variants, the per-lane fallback for faults / adversaries
// / protocols that do not run in lanes, the philox-only rejection, and the
// threads x lane-width statistics identity at the harness level.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/general.h"
#include "core/id_reduction.h"
#include "core/leaf_election.h"
#include "core/reduce.h"
#include "core/two_active.h"
#include "harness/registry.h"
#include "harness/runner.h"
#include "robust/robust.h"
#include "sim/batch_engine.h"
#include "sim/engine.h"
#include "sim/step_program.h"
#include "sim/trial_engine.h"
#include "simd/dispatch.h"
#include "support/rng.h"
#include "run_compare.h"

namespace crmc::sim {
namespace {

// Runs `seeds` trials through the trial-parallel executor (one Run call —
// the engine chunks internally), the per-trial BatchEngine, and the
// coroutine oracle, requiring three-way bit-exact agreement per seed. The
// executor's fused_rounds must also match the per-trial batch engine's
// when expect_same_fused holds: on the lane path every round is fused,
// exactly like a pristine per-trial FastRound run; on the fallback path
// the trials literally run on a BatchEngine. A caller may pass
// expect_same_fused = false to skip that check — fused_rounds is executor
// diagnostics, not model output.
void CheckTrialParity(EngineConfig config, const ProtocolFactory& coroutine,
                      StepProgram& program, int seeds,
                      std::int32_t lane_width = 32,
                      std::uint64_t seed_base = 10'000,
                      bool expect_same_fused = true) {
  config.rng = support::RngKind::kPhilox;
  TrialBatchEngine trial_engine(lane_width);
  BatchEngine batch_engine;
  std::vector<std::uint64_t> seed_list(static_cast<std::size_t>(seeds));
  for (int t = 0; t < seeds; ++t) {
    seed_list[static_cast<std::size_t>(t)] =
        seed_base + static_cast<std::uint64_t>(t);
  }
  std::vector<RunResult> lanes(seed_list.size());
  trial_engine.Run(config, program, seed_list, lanes);
  for (std::size_t t = 0; t < seed_list.size(); ++t) {
    config.seed = seed_list[t];
    SCOPED_TRACE(::testing::Message() << "seed=" << config.seed);
    const RunResult batch = batch_engine.Run(config, program);
    {
      SCOPED_TRACE("trial-vs-batch");
      ExpectSameRun(batch, lanes[t]);
    }
    if (expect_same_fused) {
      EXPECT_EQ(batch.fused_rounds, lanes[t].fused_rounds);
    }
    const RunResult coro = Engine::Run(config, coroutine);
    SCOPED_TRACE("trial-vs-coroutine");
    ExpectSameRun(coro, lanes[t]);
    if (::testing::Test::HasFailure()) break;  // one seed's dump is enough
  }
}

// CheckTrialParity swept over every compiled SIMD backend — the acceptance
// bar for a new lane executor is 2000+ bit-exact seeds per backend.
void CheckTrialParityAllBackends(const EngineConfig& config,
                                 const ProtocolFactory& coroutine,
                                 StepProgram& program, int seeds,
                                 bool expect_same_fused = true,
                                 std::int32_t lane_width = 32) {
  const simd::Backend original = simd::ActiveBackend();
  for (const simd::Backend backend : simd::AllBackends()) {
    if (!simd::BackendAvailable(backend)) continue;
    SCOPED_TRACE(simd::ToString(backend));
    simd::SetBackend(backend);
    CheckTrialParity(config, coroutine, program, seeds, lane_width, 10'000,
                     expect_same_fused);
    if (::testing::Test::HasFailure()) break;
  }
  simd::SetBackend(original);
}

TEST(TrialEngineParity, TwoActive2000Seeds) {
  EngineConfig config;
  config.population = 256;
  config.num_active = 2;
  config.channels = 16;
  auto program = MakeTwoActiveProgram();
  CheckTrialParity(config, core::MakeTwoActive(), *program, 2000);
}

TEST(TrialEngineParity, TwoActiveSingleChannelDuel) {
  EngineConfig config;
  config.population = 1024;
  config.num_active = 2;
  config.channels = 1;
  auto program = MakeTwoActiveProgram();
  CheckTrialParity(config, core::MakeTwoActive(), *program, 500);
}

// Duel mode has no |A| = 2 restriction: the lane path must handle a wide
// coin-flip population per lane. Six nodes still solve fast (a round wins
// with probability 6/64), so lanes retire by solving.
TEST(TrialEngineParity, DuelManyNodes) {
  EngineConfig config;
  config.population = 1 << 12;
  config.num_active = 6;
  config.channels = 1;
  auto program = MakeTwoActiveProgram();
  CheckTrialParity(config, core::MakeTwoActive(), *program, 300);
}

// 48 duelling nodes almost never produce a lone transmitter (48 * 2^-48
// per round — the flat-coin duel is the |A| = 2 degradation, not a
// knockout), so every engine must agree on the timeout path while the
// lane plane is 48 slots wide.
TEST(TrialEngineParity, DuelManyNodesTimeout) {
  EngineConfig config;
  config.population = 1 << 12;
  config.num_active = 48;
  config.channels = 1;
  config.max_rounds = 64;
  auto program = MakeTwoActiveProgram();
  CheckTrialParity(config, core::MakeTwoActive(), *program, 300);
}

TEST(TrialEngineParity, TwoActiveChannelCap) {
  EngineConfig config;
  config.population = 1 << 14;
  config.num_active = 2;
  config.channels = 1024;
  core::TwoActiveParams params;
  params.channel_cap = 48;  // non-power-of-two cap -> FloorPow2 = 32
  auto program = MakeTwoActiveProgram(params);
  CheckTrialParity(config, core::MakeTwoActive(params), *program, 300);
}

TEST(TrialEngineParity, TwoActiveRunToCompletion) {
  EngineConfig config;
  config.population = 256;
  config.num_active = 2;
  config.channels = 16;
  config.stop_when_solved = false;  // lanes retire on termination instead
  auto program = MakeTwoActiveProgram();
  CheckTrialParity(config, core::MakeTwoActive(), *program, 500);
}

TEST(TrialEngineParity, TwoActiveTimeout) {
  EngineConfig config;
  config.population = 1 << 16;
  config.num_active = 2;
  config.channels = 4;  // tall tree, tight cap: plenty of timed-out lanes
  config.max_rounds = 3;
  auto program = MakeTwoActiveProgram();
  CheckTrialParity(config, core::MakeTwoActive(), *program, 500);
}

// Every max_rounds from 1 through h + 3 on a height-6 tree, with and
// without stop_when_solved: the cut falls among the rename rounds, inside
// the search, before the final pair round, and after the run has ended.
// Each lane is compared with a per-trial BatchEngine run; the coroutine
// twin's phase marks show that some cuts land mid-search and some after
// the search, before the final pair round.
TEST(TrialEngineParity, TwoActiveEveryMaxRoundsCut) {
  EngineConfig config;
  config.population = 1 << 12;
  config.num_active = 2;
  config.channels = 64;  // a tree of height 6
  config.rng = support::RngKind::kPhilox;
  auto program = MakeTwoActiveProgram();
  TrialBatchEngine trial_engine;
  BatchEngine batch_engine;
  std::vector<std::uint64_t> seeds(200);
  for (std::size_t t = 0; t < seeds.size(); ++t) {
    seeds[t] = 40'000 + static_cast<std::uint64_t>(t);
  }
  std::int64_t cut_mid_search = 0;
  std::int64_t cut_before_final = 0;
  for (const bool stop_when_solved : {true, false}) {
    config.stop_when_solved = stop_when_solved;
    for (std::int64_t max_rounds = 1; max_rounds <= 6 + 3; ++max_rounds) {
      config.max_rounds = max_rounds;
      std::vector<RunResult> lanes(seeds.size());
      trial_engine.Run(config, *program, seeds, lanes);
      for (std::size_t t = 0; t < seeds.size(); ++t) {
        config.seed = seeds[t];
        SCOPED_TRACE(::testing::Message()
                     << "stop_when_solved=" << stop_when_solved
                     << " max_rounds=" << max_rounds << " seed=" << config.seed);
        const RunResult batch = batch_engine.Run(config, *program);
        ExpectSameRun(batch, lanes[t]);
        EXPECT_EQ(batch.fused_rounds, lanes[t].fused_rounds);
        if (::testing::Test::HasFailure()) return;
        if (!lanes[t].timed_out) continue;
        const RunResult coro = Engine::Run(config, core::MakeTwoActive());
        const bool renamed = coro.LastPhaseMark("rename_done") >= 0;
        const bool searched = coro.LastPhaseMark("search_done") >= 0;
        cut_mid_search += renamed && !searched;
        cut_before_final += searched;
      }
    }
  }
  EXPECT_GT(cut_mid_search, 0);
  EXPECT_GT(cut_before_final, 0);
}

TEST(TrialEngineParity, TwoActiveNodeTransmissions) {
  EngineConfig config;
  config.population = 256;
  config.num_active = 2;
  config.channels = 16;
  config.record_node_transmissions = true;
  auto program = MakeTwoActiveProgram();
  CheckTrialParity(config, core::MakeTwoActive(), *program, 300);
}

// Lane-width sweep including widths that do not divide the seed count:
// chunking must be invisible in the results.
TEST(TrialEngineParity, LaneWidthInvisible) {
  EngineConfig config;
  config.population = 256;
  config.num_active = 2;
  config.channels = 16;
  config.rng = support::RngKind::kPhilox;
  auto program = MakeTwoActiveProgram();
  std::vector<std::uint64_t> seeds(137);
  for (std::size_t t = 0; t < seeds.size(); ++t) {
    seeds[t] = 90'000 + static_cast<std::uint64_t>(t);
  }
  TrialBatchEngine wide(64);
  std::vector<RunResult> want(seeds.size());
  wide.Run(config, *program, seeds, want);
  for (const std::int32_t width : {1, 3, 32}) {
    TrialBatchEngine engine(width);
    std::vector<RunResult> got(seeds.size());
    engine.Run(config, *program, seeds, got);
    for (std::size_t t = 0; t < seeds.size(); ++t) {
      SCOPED_TRACE(::testing::Message() << "lane-width seed=" << seeds[t]);
      ExpectSameRun(want[t], got[t]);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// All compiled SIMD backends must produce the same lanes bit-exactly (the
// sanitizer tier runs this suite too, giving every backend a sanitized
// trial-executor pass).
TEST(TrialEngineParity, AllBackendsBitExact) {
  EngineConfig config;
  config.population = 256;
  config.num_active = 2;
  config.channels = 16;
  auto program = MakeTwoActiveProgram();
  const simd::Backend original = simd::ActiveBackend();
  for (const simd::Backend backend : simd::AllBackends()) {
    if (!simd::BackendAvailable(backend)) continue;
    SCOPED_TRACE(simd::ToString(backend));
    simd::SetBackend(backend);
    CheckTrialParity(config, core::MakeTwoActive(), *program, 300);
    if (::testing::Test::HasFailure()) break;
  }
  simd::SetBackend(original);
}

// ---------------------------------------------------------------------------
// The rest of the family: every protocol of the composed general algorithm
// — Reduce, IDReduction, LeafElection, the CD knockout, and general itself
// — runs 2000+ seeds per compiled SIMD backend through TrialBatchEngine,
// bit-exact against the per-trial BatchEngine and the coroutine oracle.
// None of them runs in trial-parallel lanes, so these cases pin the engine's
// per-trial fallback for every family shape. Configs mirror the per-trial
// parity suite (tests/batch_engine_test.cpp) so the three-engine agreement
// covers the same shapes.
// ---------------------------------------------------------------------------

TEST(TrialEngineFamilyParity, Reduce2000SeedsAllBackends) {
  EngineConfig config;
  config.population = 4096;
  config.num_active = 32;
  config.channels = 1;
  config.stop_when_solved = false;  // Reduce thins the set; it never solves
  auto program = MakeReduceProgram();
  CheckTrialParityAllBackends(config, core::MakeReduceOnly(), *program, 2000);
}

TEST(TrialEngineFamilyParity, IdReduction2000SeedsAllBackends) {
  EngineConfig config;
  config.population = 1 << 16;
  config.num_active = 16;
  config.channels = 64;
  config.stop_when_solved = false;  // run the rename to termination
  auto program = MakeIdReductionProgram();
  CheckTrialParityAllBackends(config, core::MakeIdReductionOnly(), *program,
                              2000);
}

TEST(TrialEngineFamilyParity, KnockoutCd2000SeedsAllBackends) {
  EngineConfig config;
  config.population = 1 << 12;
  config.num_active = 64;
  config.channels = 1;
  auto program = MakeKnockoutCdProgram();
  CheckTrialParityAllBackends(config, core::MakeKnockoutCd(), *program, 2000);
}

TEST(TrialEngineFamilyParity, General2000SeedsAllBackends) {
  EngineConfig config;
  config.population = 1024;
  config.num_active = 64;
  config.channels = 64;
  auto program = MakeGeneralProgram();
  // fused_rounds is executor diagnostics, not model output, so it is not
  // compared here.
  CheckTrialParityAllBackends(config, core::MakeGeneral(), *program, 2000,
                              /*expect_same_fused=*/false);
}

TEST(TrialEngineFamilyParity, GeneralFewChannelsKnockoutFallback) {
  // C below min_channels routes general onto its O(1)-channel knockout
  // protocol, exercised end to end.
  EngineConfig config;
  config.population = 1024;
  config.num_active = 48;
  config.channels = 2;
  auto program = MakeGeneralProgram();
  CheckTrialParityAllBackends(config, core::MakeGeneral(), *program, 700);
}

TEST(TrialEngineFamilyParity, GeneralRunToCompletion) {
  EngineConfig config;
  config.population = 512;
  config.num_active = 16;
  config.channels = 32;
  config.stop_when_solved = false;  // runs end on termination instead
  auto program = MakeGeneralProgram();
  CheckTrialParity(config, core::MakeGeneral(), *program, 300, 32, 10'000,
                   /*expect_same_fused=*/false);
}

TEST(TrialEngineFamilyParity, GeneralTimeoutMidReduce) {
  EngineConfig config;
  config.population = 1 << 16;
  config.num_active = 256;
  config.channels = 64;
  config.max_rounds = 4;  // stop mid-Reduce: every run times out
  auto program = MakeGeneralProgram();
  CheckTrialParity(config, core::MakeGeneral(), *program, 200, 32, 10'000,
                   /*expect_same_fused=*/false);
}

// LeafElection draws no randomness — a run is determined by the leaf
// cohort. The sweep therefore varies cohorts (size, labels) and runs a
// small seed block per cohort; across the 84 cohorts each backend sees
// 2016 (cohort, seed) trials.
void CheckLeafElectionTrialParity(bool force_binary) {
  constexpr std::int32_t kNumLeaves = 16;
  const simd::Backend original = simd::ActiveBackend();
  for (const simd::Backend backend : simd::AllBackends()) {
    if (!simd::BackendAvailable(backend)) continue;
    SCOPED_TRACE(simd::ToString(backend));
    simd::SetBackend(backend);
    support::RandomSource leaf_rng(424242);
    for (int rep = 0; rep < 84; ++rep) {
      SCOPED_TRACE(::testing::Message() << "cohort=" << rep);
      const auto k = static_cast<std::int32_t>(leaf_rng.UniformInt(1, 12));
      const std::vector<std::int64_t> sampled =
          support::SampleWithoutReplacement(kNumLeaves, k, leaf_rng);
      std::vector<std::int32_t> leaves(sampled.begin(), sampled.end());

      EngineConfig config;
      config.num_active = k;
      config.channels = 2 * kNumLeaves - 1;
      core::LeafElectionParams params;
      params.force_binary_search = force_binary;
      auto program = MakeLeafElectionProgram(leaves, kNumLeaves, params);
      CheckTrialParity(config,
                       core::MakeLeafElectionOnly(leaves, kNumLeaves, params),
                       *program, 24, /*lane_width=*/8,
                       /*seed_base=*/1000 + static_cast<std::uint64_t>(rep),
                       /*expect_same_fused=*/false);
      if (::testing::Test::HasFailure()) break;
    }
    if (::testing::Test::HasFailure()) break;
  }
  simd::SetBackend(original);
}

TEST(TrialEngineFamilyParity, LeafElection2000TrialsAllBackends) {
  CheckLeafElectionTrialParity(false);
}

TEST(TrialEngineFamilyParity, LeafElectionForceBinaryAllBackends) {
  CheckLeafElectionTrialParity(true);
}

// ---------------------------------------------------------------------------
// Fallback coverage: configs outside the lane-fusible set must run per
// trial on the batch path — bit-exact against solo runs, lane width
// notwithstanding.
// ---------------------------------------------------------------------------

TEST(TrialEngineFallback, FaultsFallBackPerLane) {
  EngineConfig config;
  config.population = 256;
  config.num_active = 2;
  config.channels = 16;
  config.max_rounds = 500;
  config.faults.jam_rate = 0.15;
  config.faults.flaky_cd_rate = 0.05;
  auto program = MakeTwoActiveProgram();
  CheckTrialParity(config, core::MakeTwoActive(), *program, 300);
}

TEST(TrialEngineFallback, AdversaryFallsBackPerLane) {
  EngineConfig config;
  config.population = 256;
  config.num_active = 2;
  config.channels = 16;
  config.max_rounds = 4000;
  config.adversary.kind = adversary::Kind::kPrimaryCamper;
  config.adversary.budget = 8;
  config.adversary.per_round_cap = 2;
  auto program = MakeTwoActiveProgram();
  CheckTrialParity(config, core::MakeTwoActive(), *program, 300);
}

TEST(TrialEngineFallback, RobustWrapperFallsBackPerLane) {
  // --robust + --lanes W: the wrapper's fabricated rounds are outside the
  // lane-fusible set, so every trial must take the per-lane fallback and
  // stay bit-exact against lane width 1 (and the coroutine oracle) — for
  // both policies, with the wrapper-aware adversary in the loop.
  for (const robust::PolicyKind policy :
       {robust::PolicyKind::kStatic, robust::PolicyKind::kAdaptive}) {
    SCOPED_TRACE(robust::ToString(policy));
    EngineConfig config;
    config.population = 256;
    config.num_active = 2;
    config.channels = 16;
    config.max_rounds = 4000;
    config.robust.enabled = true;
    config.robust.policy = policy;
    config.robust.max_epochs = 4;
    config.robust.epoch_round_budget = 64;
    config.adversary.kind = adversary::Kind::kLookahead;
    config.adversary.budget = 40;
    config.adversary.per_round_cap = 2;
    auto program = MakeTwoActiveProgram();
    CheckTrialParity(config, core::MakeTwoActive(), *program, 200);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(TrialEngineFallback, RobustLaneWidthInvisibleAtHarnessLevel) {
  // The harness-level satellite: RunTrials with --robust and lane width 8
  // must aggregate bit-identically to lane width 1 — confirmations, epoch
  // bookkeeping, and the adaptive/hold accounting included.
  harness::TrialSpec spec;
  spec.population = 256;
  spec.num_active = 2;
  spec.channels = 16;
  spec.max_rounds = 4000;
  spec.rng = support::RngKind::kPhilox;
  spec.robust.enabled = true;
  spec.robust.policy = robust::PolicyKind::kAdaptive;
  spec.adversary.kind = adversary::Kind::kLearning;
  spec.adversary.budget = 30;
  const harness::ProtocolHandle handle(core::MakeTwoActive(),
                                       [] { return MakeTwoActiveProgram(); });
  spec.lane_width = 1;
  const harness::TrialSetResult narrow =
      harness::RunTrials(spec, handle, 64, false, 2);
  spec.lane_width = 8;
  const harness::TrialSetResult wide =
      harness::RunTrials(spec, handle, 64, false, 3);
  EXPECT_EQ(narrow.solved_rounds, wide.solved_rounds);
  EXPECT_EQ(narrow.unsolved, wide.unsolved);
  EXPECT_EQ(narrow.confirmed, wide.confirmed);
  ExpectSameLayerCounters(narrow, wide);
  EXPECT_EQ(narrow.rounds_total, wide.rounds_total);
}

TEST(TrialEngineFallback, ProtocolWithoutTrialProgram) {
  EngineConfig config;
  config.population = 1024;
  config.num_active = 64;
  config.channels = 64;
  auto program = MakeGeneralProgram();
  ASSERT_FALSE(TwoActiveParamsOf(*program).has_value());
  CheckTrialParity(config, core::MakeGeneral(), *program, 200);

  // The wholesale fallback must be visible in the executor diagnostics.
  config.rng = support::RngKind::kPhilox;
  TrialBatchEngine engine(8);
  std::vector<std::uint64_t> seeds{1, 2, 3};
  std::vector<RunResult> results(seeds.size());
  engine.Run(config, *program, seeds, results);
  for (const RunResult& r : results) {
    EXPECT_TRUE(r.trial_fallback);
    EXPECT_EQ(r.trial_lanes, 0);
  }
}

TEST(TrialEngineFallback, LanePathDiagnostics) {
  // The inverse of the twin-less case: a lane-fusible run reports its chunk
  // width and no fallback.
  EngineConfig config;
  config.population = 256;
  config.num_active = 2;
  config.channels = 16;
  config.rng = support::RngKind::kPhilox;
  auto program = MakeTwoActiveProgram();
  TrialBatchEngine engine(8);
  std::vector<std::uint64_t> seeds(8, 0);
  for (std::size_t t = 0; t < seeds.size(); ++t) {
    seeds[t] = 500 + static_cast<std::uint64_t>(t);
  }
  std::vector<RunResult> results(seeds.size());
  engine.Run(config, *program, seeds, results);
  for (const RunResult& r : results) {
    EXPECT_FALSE(r.trial_fallback);
    EXPECT_EQ(r.trial_lanes, 8);
    EXPECT_EQ(r.fused_rounds, r.rounds_executed);
  }
}

TEST(TrialEngineFallback, NonDuelWideActiveSetFallsBack) {
  // two_active runs in lanes, but its non-duel lane path only covers
  // |A| = 2; a wider active set must fall back wholesale (the lane
  // executor declines the shape), still bit-exact.
  EngineConfig config;
  config.population = 1024;
  config.num_active = 5;
  config.channels = 16;
  // Five transmitters break the |A| = 2 model once a renamed pair reaches
  // its final round with an interloper present (CRMC_PROTO_CHECK throws on
  // pristine runs in every engine, by design). Three rounds is one rename
  // plus at most two search rounds — final rounds never execute, so every
  // engine times out identically instead.
  config.max_rounds = 3;
  auto program = MakeTwoActiveProgram();
  CheckTrialParity(config, core::MakeTwoActive(), *program, 100);
}

TEST(TrialEngineFallback, NoFusedRoundsFallsBack) {
  EngineConfig config;
  config.population = 256;
  config.num_active = 2;
  config.channels = 16;
  config.rng = support::RngKind::kPhilox;
  auto program = MakeTwoActiveProgram();
  TrialBatchEngine trial_engine;
  trial_engine.set_fused_rounds(false);
  BatchEngine generic;
  generic.set_fused_rounds(false);
  std::vector<std::uint64_t> seeds(100);
  for (std::size_t t = 0; t < seeds.size(); ++t) {
    seeds[t] = 70'000 + static_cast<std::uint64_t>(t);
  }
  std::vector<RunResult> lanes(seeds.size());
  trial_engine.Run(config, *program, seeds, lanes);
  for (std::size_t t = 0; t < seeds.size(); ++t) {
    config.seed = seeds[t];
    const RunResult want = generic.Run(config, *program);
    SCOPED_TRACE(::testing::Message() << "no-fused seed=" << config.seed);
    ExpectSameRun(want, lanes[t]);
    EXPECT_EQ(lanes[t].fused_rounds, 0);
    if (::testing::Test::HasFailure()) break;
  }
}

// ---------------------------------------------------------------------------
// The fold entry: Run(config, program, seeds, fold, plane) must add exactly
// what TrialFold::Add adds over Run(config, program, seeds, results), and
// write SolvedPlaneEntry of every result, at every lane width. It is called
// on two uneven parts of the seeds into one fold, as harness chunks do.
// Returns the fold, for the callers' reach checks.
// ---------------------------------------------------------------------------

TrialFold CheckFoldMatchesResults(EngineConfig config, StepProgram& program,
                                  int seeds) {
  config.rng = support::RngKind::kPhilox;
  std::vector<std::uint64_t> seed_list(static_cast<std::size_t>(seeds));
  for (std::size_t t = 0; t < seed_list.size(); ++t) {
    seed_list[t] = 20'000 + static_cast<std::uint64_t>(t);
  }
  const std::size_t split = seed_list.size() / 3;
  TrialFold reached;
  for (const std::int32_t width : {1, 7, 32, 33}) {
    SCOPED_TRACE(::testing::Message() << "lane width " << width);
    TrialBatchEngine engine(width);
    std::vector<RunResult> results(seed_list.size());
    engine.Run(config, program, seed_list, results);
    TrialFold want;
    std::vector<std::int64_t> want_plane;
    for (const RunResult& r : results) {
      want.Add(r);
      want_plane.push_back(SolvedPlaneEntry(r));
    }

    TrialFold got;
    std::vector<std::int64_t> plane(seed_list.size(), -7);
    const std::span<const std::uint64_t> all(seed_list);
    engine.Run(config, program, all.first(split), got,
               std::span<std::int64_t>(plane).first(split));
    engine.Run(config, program, all.subspan(split), got,
               std::span<std::int64_t>(plane).subspan(split));
    EXPECT_EQ(want, got);
    EXPECT_EQ(want_plane, plane);
    if (::testing::Test::HasFailure()) break;
    reached.Merge(got);
  }
  return reached;
}

TEST(TrialEngineFold, DuelMatchesResults) {
  EngineConfig config;
  config.population = 1024;
  config.num_active = 2;
  config.channels = 1;
  auto program = MakeTwoActiveProgram();
  const TrialFold two = CheckFoldMatchesResults(config, *program, 300);
  EXPECT_EQ(two.unsolved, 0);
  EXPECT_EQ(two.trial_lanes_peak, 33);
  EXPECT_EQ(two.fused_rounds_total, two.rounds_total);

  // 48 duelling nodes never see a lone transmitter in 64 rounds: every
  // lane times out on a stall as long as the run, so every one is wedged.
  config.num_active = 48;
  config.max_rounds = 64;
  const TrialFold wide = CheckFoldMatchesResults(config, *program, 200);
  EXPECT_GT(wide.timed_out, 0);
  EXPECT_EQ(wide.wedged, wide.timed_out);
  EXPECT_EQ(wide.trial_fallbacks, 0);
}

TEST(TrialEngineFold, RenameSearchFinalMatchesResults) {
  EngineConfig config;
  config.population = std::int64_t{1} << 20;
  config.num_active = 2;
  config.channels = 1024;
  auto program = MakeTwoActiveProgram();
  for (const bool stop_when_solved : {true, false}) {
    SCOPED_TRACE(::testing::Message()
                 << "stop_when_solved " << stop_when_solved);
    config.stop_when_solved = stop_when_solved;
    const TrialFold fold = CheckFoldMatchesResults(config, *program, 300);
    EXPECT_EQ(fold.unsolved, 0);
    EXPECT_EQ(fold.trial_fallbacks, 0);
    EXPECT_EQ(fold.trial_lanes_peak, 33);
    EXPECT_GT(fold.rounds_total, 4 * 300);
  }
}

// A max_rounds cut inside the search: lanes time out mid-run, some after a
// stall of at least half the run (wedged) and some not.
TEST(TrialEngineFold, MaxRoundsCutMatchesResults) {
  EngineConfig config;
  config.population = 1 << 16;
  config.num_active = 2;
  config.channels = 4;
  config.max_rounds = 3;
  auto program = MakeTwoActiveProgram();
  const TrialFold fold = CheckFoldMatchesResults(config, *program, 400);
  EXPECT_GT(fold.wedged, 0);
  EXPECT_GT(fold.timed_out, fold.wedged);
  EXPECT_EQ(fold.unsolved, fold.timed_out);
}

// Every max_rounds cut from 1 through h + 3 (h = 6), without
// stop_when_solved: folds of sets where some lanes time out and some
// solve.
TEST(TrialEngineFold, EveryMaxRoundsCutMatchesResults) {
  EngineConfig config;
  config.population = 1 << 12;
  config.num_active = 2;
  config.channels = 64;
  config.stop_when_solved = false;
  auto program = MakeTwoActiveProgram();
  std::int64_t mixed_sets = 0;
  for (std::int64_t max_rounds = 1; max_rounds <= 6 + 3; ++max_rounds) {
    SCOPED_TRACE(::testing::Message() << "max_rounds " << max_rounds);
    config.max_rounds = max_rounds;
    const TrialFold fold = CheckFoldMatchesResults(config, *program, 100);
    // The fold merges four lane widths of 100 trials each.
    mixed_sets += fold.timed_out > 0 && fold.unsolved < 4 * 100;
  }
  EXPECT_GT(mixed_sets, 0);
}

// Trials that run per trial fold their RunResults: a whole chunk the lanes
// decline (|A| = 3 outside the duel) and a jammed config outside the
// lane-fusible set, whose layer counters the fold must carry.
TEST(TrialEngineFold, FallbacksMatchResults) {
  EngineConfig config;
  config.population = 1024;
  config.num_active = 3;
  config.channels = 16;
  config.max_rounds = 3;  // see NonDuelWideActiveSetFallsBack
  auto program = MakeTwoActiveProgram();
  const TrialFold declined = CheckFoldMatchesResults(config, *program, 200);
  EXPECT_EQ(declined.trial_fallbacks, 4 * 200);
  EXPECT_EQ(declined.trial_lanes_peak, 0);

  config.num_active = 2;
  config.max_rounds = 500;
  config.faults.jam_rate = 0.2;
  const TrialFold jammed = CheckFoldMatchesResults(config, *program, 200);
  EXPECT_EQ(jammed.trial_fallbacks, 4 * 200);
  EXPECT_GT(jammed.faults_injected, 0);
  EXPECT_GT(jammed.unsolved, 0);
}

// ---------------------------------------------------------------------------
// Contract checks.
// ---------------------------------------------------------------------------

TEST(TrialEngine, RejectsXoshiro) {
  EngineConfig config;
  config.population = 256;
  config.num_active = 2;
  config.channels = 16;
  config.rng = support::RngKind::kXoshiro;
  auto program = MakeTwoActiveProgram();
  TrialBatchEngine engine;
  std::vector<std::uint64_t> seeds{1, 2, 3};
  std::vector<RunResult> results(seeds.size());
  try {
    engine.Run(config, *program, seeds, results);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("philox"), std::string::npos);
  }
}

TEST(TrialEngine, RejectsBadConfig) {
  auto program = MakeTwoActiveProgram();
  TrialBatchEngine engine;
  std::vector<std::uint64_t> seeds{1};
  std::vector<RunResult> results(1);
  EngineConfig config;
  config.num_active = 0;
  config.rng = support::RngKind::kPhilox;
  EXPECT_THROW(engine.Run(config, *program, seeds, results),
               std::invalid_argument);
  EXPECT_THROW(TrialBatchEngine(0), std::exception);
}

// ---------------------------------------------------------------------------
// Harness integration: RunTrials with lane_width > 1 must produce the same
// statistics as lane width 1 for every thread count — trials are
// seed-indexed, so the threads x lane-width sharding grid is invisible.
// ---------------------------------------------------------------------------

TEST(TrialEngineHarness, ThreadsTimesLaneWidthIdentity) {
  harness::TrialSpec spec;
  spec.population = 256;
  spec.num_active = 2;
  spec.channels = 16;
  spec.rng = support::RngKind::kPhilox;
  const harness::ProtocolHandle handle =
      harness::HandleFor(harness::AlgorithmByName("two_active"));
  constexpr std::int32_t kTrials = 301;  // not a multiple of any lane width
  spec.lane_width = 1;
  const harness::TrialSetResult want =
      harness::RunTrials(spec, handle, kTrials, /*keep_runs=*/false,
                         /*threads=*/1);
  for (const std::int32_t threads : {1, 3}) {
    for (const std::int32_t lanes : {4, 32}) {
      SCOPED_TRACE(::testing::Message()
                   << "threads=" << threads << " lanes=" << lanes);
      spec.lane_width = lanes;
      const harness::TrialSetResult got =
          harness::RunTrials(spec, handle, kTrials, /*keep_runs=*/false,
                             threads);
      EXPECT_EQ(want.solved_rounds, got.solved_rounds);
      EXPECT_EQ(want.unsolved, got.unsolved);
      EXPECT_EQ(want.timed_out, got.timed_out);
      EXPECT_EQ(want.wedged, got.wedged);
      EXPECT_EQ(want.deluded, got.deluded);
      EXPECT_DOUBLE_EQ(want.summary.mean, got.summary.mean);
      EXPECT_EQ(want.summary.max, got.summary.max);
    }
  }
}

}  // namespace
}  // namespace crmc::sim
