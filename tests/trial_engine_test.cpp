// Trial-parallel executor parity suite: TrialBatchEngine against the
// per-trial BatchEngine and the coroutine oracle.
//
// The executor's contract is bit-exactness per trial: running W seeds as
// lockstep SIMD lanes must reproduce every per-trial result field exactly,
// for every lane width, SIMD backend, and (lane-fusible or fallback)
// config. The sweeps below cover 2000+ seeds on the headline two_active
// shape plus the duel, channel-cap, run-to-completion, timeout and
// instrumentation variants, the per-lane fallback for faults / adversaries
// / protocols without a trial program, the philox-only rejection, and the
// threads x lane-width statistics identity at the harness level.
#include <gtest/gtest.h>

#include <cstdint>
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

namespace crmc::sim {
namespace {

void ExpectSameResult(const RunResult& want, const RunResult& got,
                      std::uint64_t seed, const char* label) {
  SCOPED_TRACE(::testing::Message() << label << " seed=" << seed);
  EXPECT_EQ(want.solved, got.solved);
  EXPECT_EQ(want.solved_round, got.solved_round);
  EXPECT_EQ(want.all_solved_rounds, got.all_solved_rounds);
  EXPECT_EQ(want.rounds_executed, got.rounds_executed);
  EXPECT_EQ(want.timed_out, got.timed_out);
  EXPECT_EQ(want.all_terminated, got.all_terminated);
  EXPECT_EQ(want.total_transmissions, got.total_transmissions);
  EXPECT_EQ(want.jams_injected, got.jams_injected);
  EXPECT_EQ(want.erasures_injected, got.erasures_injected);
  EXPECT_EQ(want.cd_flips_injected, got.cd_flips_injected);
  EXPECT_EQ(want.faults_injected, got.faults_injected);
  EXPECT_EQ(want.crashed_nodes, got.crashed_nodes);
  EXPECT_EQ(want.adv_jams_spent, got.adv_jams_spent);
  EXPECT_EQ(want.adv_jams_effective, got.adv_jams_effective);
  EXPECT_EQ(want.adv_rounds_held, got.adv_rounds_held);
  EXPECT_EQ(want.adv_jams_echo, got.adv_jams_echo);
  EXPECT_EQ(want.adv_jams_backoff, got.adv_jams_backoff);
  EXPECT_EQ(want.epochs_used, got.epochs_used);
  EXPECT_EQ(want.retries, got.retries);
  EXPECT_EQ(want.confirm_rounds, got.confirm_rounds);
  EXPECT_EQ(want.backoff_rounds, got.backoff_rounds);
  EXPECT_EQ(want.confirmed, got.confirmed);
  EXPECT_EQ(want.adaptive_confirm_extra, got.adaptive_confirm_extra);
  EXPECT_EQ(want.adaptive_backoff_trimmed, got.adaptive_backoff_trimmed);
  EXPECT_EQ(want.confirm_quorum_peak, got.confirm_quorum_peak);
  EXPECT_EQ(want.stall_rounds, got.stall_rounds);
  EXPECT_EQ(want.wedged, got.wedged);
  EXPECT_EQ(want.assumption_violated, got.assumption_violated);
  EXPECT_EQ(want.max_node_transmissions, got.max_node_transmissions);
  EXPECT_DOUBLE_EQ(want.mean_node_transmissions, got.mean_node_transmissions);
  EXPECT_EQ(want.node_transmissions, got.node_transmissions);
}

// Runs `seeds` trials through the trial-parallel executor (one Run call —
// the engine chunks internally), the per-trial BatchEngine, and the
// coroutine oracle, requiring three-way bit-exact agreement per seed. The
// executor's fused_rounds must also match the per-trial batch engine's
// when expect_same_fused holds: on the lane path every round is fused,
// exactly like a pristine per-trial FastRound run; on the fallback path
// the trials literally run on a BatchEngine. Programs whose per-trial twin
// materializes rounds the lane path fuses (general's LeafElection stage,
// and LeafElection itself, have no per-trial FastRound) pass
// expect_same_fused = false — fused_rounds is executor diagnostics, not
// model output.
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
    const RunResult batch = batch_engine.Run(config, program);
    ExpectSameResult(batch, lanes[t], config.seed, "trial-vs-batch");
    if (expect_same_fused) {
      EXPECT_EQ(batch.fused_rounds, lanes[t].fused_rounds);
    }
    const RunResult coro = Engine::Run(config, coroutine);
    ExpectSameResult(coro, lanes[t], config.seed, "trial-vs-coroutine");
    if (::testing::Test::HasFailure()) break;  // one seed's dump is enough
  }
}

// CheckTrialParity swept over every compiled SIMD backend — the acceptance
// bar for a new trial-program twin is 2000+ bit-exact seeds per backend.
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
      ExpectSameResult(want[t], got[t], seeds[t], "lane-width");
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
// Family twins (full trial-parallel coverage): every protocol of the
// composed general algorithm — Reduce, IDReduction, LeafElection, the CD
// knockout, and general itself — runs 2000+ seeds per compiled SIMD
// backend, bit-exact against the per-trial BatchEngine and the coroutine
// oracle. Configs mirror the per-trial parity suite
// (tests/batch_engine_test.cpp) so the three-engine agreement covers the
// same shapes.
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
  // The per-trial batch engine materializes the LeafElection stage (no
  // FastRound there); the lane path fuses every round — fused_rounds is
  // executor diagnostics and legitimately differs.
  CheckTrialParityAllBackends(config, core::MakeGeneral(), *program, 2000,
                              /*expect_same_fused=*/false);
}

TEST(TrialEngineFamilyParity, GeneralFewChannelsKnockoutFallback) {
  // C below min_channels routes general onto its O(1)-channel knockout
  // protocol — the twin's fallback_ path, exercised end to end.
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
  config.stop_when_solved = false;  // lanes retire on termination instead
  auto program = MakeGeneralProgram();
  CheckTrialParity(config, core::MakeGeneral(), *program, 300, 32, 10'000,
                   /*expect_same_fused=*/false);
}

TEST(TrialEngineFamilyParity, GeneralTimeoutMidReduce) {
  EngineConfig config;
  config.population = 1 << 16;
  config.num_active = 256;
  config.channels = 64;
  config.max_rounds = 4;  // stop mid-Reduce: every lane times out together
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
  EXPECT_EQ(narrow.epochs_used, wide.epochs_used);
  EXPECT_EQ(narrow.retries, wide.retries);
  EXPECT_EQ(narrow.confirm_rounds, wide.confirm_rounds);
  EXPECT_EQ(narrow.backoff_rounds, wide.backoff_rounds);
  EXPECT_EQ(narrow.adv_jams_spent, wide.adv_jams_spent);
  EXPECT_EQ(narrow.adv_rounds_held, wide.adv_rounds_held);
  EXPECT_EQ(narrow.adv_jams_echo, wide.adv_jams_echo);
  EXPECT_EQ(narrow.adv_jams_backoff, wide.adv_jams_backoff);
  EXPECT_EQ(narrow.adaptive_confirm_extra, wide.adaptive_confirm_extra);
  EXPECT_EQ(narrow.adaptive_backoff_trimmed, wide.adaptive_backoff_trimmed);
  EXPECT_EQ(narrow.confirm_quorum_peak, wide.confirm_quorum_peak);
  EXPECT_EQ(narrow.rounds_total, wide.rounds_total);
}

// Forwards everything to an inner program but reports no trial twin — the
// pre-twin shape of the family programs, keeping the wholesale-fallback
// path under test now that every shipped family program has a twin.
class TwinlessProgram : public StepProgram {
 public:
  explicit TwinlessProgram(std::unique_ptr<StepProgram> inner)
      : inner_(std::move(inner)) {}
  std::string_view name() const override { return inner_->name(); }
  bool identical_draw_order() const override {
    return inner_->identical_draw_order();
  }
  void Reset(const BatchContext& ctx) override { inner_->Reset(ctx); }
  void EmitActions(const BatchContext& ctx, std::span<const NodeId> alive,
                   std::span<mac::Action> actions) override {
    inner_->EmitActions(ctx, alive, actions);
  }
  void Advance(const BatchContext& ctx, std::span<const NodeId> alive,
               std::span<const mac::Action> actions,
               std::span<const mac::Feedback> feedback,
               std::span<std::uint8_t> finished) override {
    inner_->Advance(ctx, alive, actions, feedback, finished);
  }
  bool FastRound(const BatchContext& ctx, std::span<const NodeId> alive,
                 std::span<std::int64_t> node_tx,
                 std::span<std::uint8_t> finished,
                 FastRoundEffects* effects) override {
    return inner_->FastRound(ctx, alive, node_tx, finished, effects);
  }
  bool LockstepRestored(const BatchContext& ctx,
                        std::span<const NodeId> alive) override {
    return inner_->LockstepRestored(ctx, alive);
  }

 private:
  std::unique_ptr<StepProgram> inner_;
};

TEST(TrialEngineFallback, ProtocolWithoutTrialProgram) {
  EngineConfig config;
  config.population = 1024;
  config.num_active = 64;
  config.channels = 64;
  TwinlessProgram program(MakeGeneralProgram());
  ASSERT_EQ(program.MakeTrialProgram(), nullptr);
  CheckTrialParity(config, core::MakeGeneral(), program, 200);

  // The wholesale fallback must be visible in the executor diagnostics.
  config.rng = support::RngKind::kPhilox;
  TrialBatchEngine engine(8);
  std::vector<std::uint64_t> seeds{1, 2, 3};
  std::vector<RunResult> results(seeds.size());
  engine.Run(config, program, seeds, results);
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
  // two_active has a trial program, but its non-duel lane path only covers
  // |A| = 2; a wider active set must fall back wholesale (TrialProgram
  // Reset declines), still bit-exact.
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
    ExpectSameResult(want, lanes[t], config.seed, "no-fused");
    EXPECT_EQ(lanes[t].fused_rounds, 0);
    if (::testing::Test::HasFailure()) break;
  }
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
