// Parity suite: BatchEngine + step programs against the coroutine engine.
//
// Every shipped step program is draw-order identical to its coroutine, so
// each seed must reproduce the coroutine run *bit-exactly* — same solved
// round, same round count, same transmission totals and layer counters,
// same trace (ExpectSameRun, tests/run_compare.h). The loops below sweep
// thousands of seeds per program (at least 2000 for TwoActive and the
// general algorithm).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/general.h"
#include "core/id_reduction.h"
#include "core/leaf_election.h"
#include "core/reduce.h"
#include "core/two_active.h"
#include "sim/batch_engine.h"
#include "sim/engine.h"
#include "sim/step_program.h"
#include "simd/dispatch.h"
#include "support/rng.h"
#include "run_compare.h"

namespace crmc::sim {
namespace {

// Runs `seeds` seeds of `config` through both engines and requires
// bit-exact agreement. The BatchEngine and program instances are reused
// across seeds, exercising the scratch-reuse path a Monte-Carlo sweep
// takes. `fused` = false forces the materialized round on every round.
// Returns how many runs satisfy `reached` (0 without one), so a caller can
// show that the runs it compared exercised what it meant to compare.
int CheckParity(EngineConfig config, const ProtocolFactory& coroutine,
                StepProgram& program, int seeds,
                std::uint64_t seed_base = 10'000, bool fused = true,
                bool (*reached)(const RunResult&) = nullptr) {
  BatchEngine engine;
  engine.set_fused_rounds(fused);
  int hits = 0;
  for (int t = 0; t < seeds; ++t) {
    config.seed = seed_base + static_cast<std::uint64_t>(t);
    const RunResult coro = Engine::Run(config, coroutine);
    const RunResult batch = engine.Run(config, program);
    SCOPED_TRACE(::testing::Message() << "seed=" << config.seed);
    ExpectSameRun(coro, batch);
    if (::testing::Test::HasFailure()) break;  // one seed's dump is enough
    if (reached != nullptr && reached(batch)) ++hits;
  }
  return hits;
}

TEST(BatchEngineParity, TwoActive2000Seeds) {
  EngineConfig config;
  config.population = 256;
  config.num_active = 2;
  config.channels = 16;
  auto program = MakeTwoActiveProgram();
  CheckParity(config, core::MakeTwoActive(), *program, 2000);
}

TEST(BatchEngineParity, TwoActiveSingleChannelDuel) {
  EngineConfig config;
  config.population = 1024;
  config.num_active = 2;
  config.channels = 1;
  auto program = MakeTwoActiveProgram();
  CheckParity(config, core::MakeTwoActive(), *program, 500);
}

TEST(BatchEngineParity, TwoActiveChannelCap) {
  EngineConfig config;
  config.population = 1 << 14;
  config.num_active = 2;
  config.channels = 1024;
  core::TwoActiveParams params;
  params.channel_cap = 48;  // non-power-of-two cap -> FloorPow2 = 32
  auto program = MakeTwoActiveProgram(params);
  CheckParity(config, core::MakeTwoActive(params), *program, 300);
}

TEST(BatchEngineParity, General2000Seeds) {
  EngineConfig config;
  config.population = 1024;
  config.num_active = 64;
  config.channels = 64;
  auto program = MakeGeneralProgram();
  CheckParity(config, core::MakeGeneral(), *program, 2000);
}

TEST(BatchEngineParity, GeneralLargePopulation) {
  EngineConfig config;
  config.population = 1 << 20;
  config.num_active = 128;
  config.channels = 256;
  auto program = MakeGeneralProgram();
  CheckParity(config, core::MakeGeneral(), *program, 200);
}

// The crmcbench `sweep_general_large` point (n = 2^20, |A| = 4096, C = 256)
// over both generators, both round paths and every available SIMD backend
// (the AVX2 xoshiro coin rounds and the AVX-512 stream seeding only engage
// at this width), with per-node transmission counts and the alive curve
// compared entry by entry. The batch engine samples no node IDs while the
// coroutine engine still does, so this also checks that no batch result
// depends on the ID stream at this size.
TEST(BatchEngineParity, GeneralBenchmarkShape) {
  EngineConfig config;
  config.population = 1 << 20;
  config.num_active = 4096;
  config.channels = 256;
  config.record_node_transmissions = true;
  config.record_active_counts = true;
  auto program = MakeGeneralProgram();
  const simd::Backend original = simd::ActiveBackend();
  for (const simd::Backend backend : simd::AllBackends()) {
    if (!simd::BackendAvailable(backend)) continue;
    simd::SetBackend(backend);
    for (const support::RngKind kind :
         {support::RngKind::kXoshiro, support::RngKind::kPhilox}) {
      config.rng = kind;
      for (const bool fused : {true, false}) {
        SCOPED_TRACE(::testing::Message()
                     << simd::ToString(backend)
                     << " philox=" << (kind == support::RngKind::kPhilox)
                     << " fused=" << fused);
        CheckParity(config, core::MakeGeneral(), *program, 16, 93'000, fused);
        if (::testing::Test::HasFailure()) break;
      }
      if (::testing::Test::HasFailure()) break;
      EngineConfig jammed = config;
      jammed.max_rounds = 2000;
      jammed.faults.jam_rate = 0.1;
      SCOPED_TRACE(simd::ToString(backend));
      CheckParity(jammed, core::MakeGeneral(), *program, 4, 94'000);
      if (::testing::Test::HasFailure()) break;
    }
    if (::testing::Test::HasFailure()) break;
  }
  simd::SetBackend(original);
}

TEST(BatchEngineParity, GeneralFewChannelsFallback) {
  EngineConfig config;
  config.population = 1024;
  config.num_active = 32;
  config.channels = 4;  // effective channels < min_channels -> knockout
  auto program = MakeGeneralProgram();
  CheckParity(config, core::MakeGeneral(), *program, 500);
}

TEST(BatchEngineParity, GeneralRecordsEverything) {
  EngineConfig config;
  config.population = 4096;
  config.num_active = 48;
  config.channels = 64;
  config.record_active_counts = true;
  config.record_trace = true;
  config.record_node_transmissions = true;
  auto program = MakeGeneralProgram();
  CheckParity(config, core::MakeGeneral(), *program, 100);
}

TEST(BatchEngineParity, GeneralRunToCompletion) {
  EngineConfig config;
  config.population = 512;
  config.num_active = 16;
  config.channels = 32;
  config.stop_when_solved = false;  // run every node to termination
  auto program = MakeGeneralProgram();
  CheckParity(config, core::MakeGeneral(), *program, 200);
}

TEST(BatchEngineParity, GeneralTimeout) {
  EngineConfig config;
  config.population = 1 << 16;
  config.num_active = 256;
  config.channels = 64;
  config.max_rounds = 4;  // stop mid-Reduce
  auto program = MakeGeneralProgram();
  CheckParity(config, core::MakeGeneral(), *program, 100);
}

// Materialized-path parity for the standalone Reduce and IDReduction
// programs. Their EmitActions/Advance (and Reduce's LockstepRestored) only
// run off the fused path: with fused rounds off, under faults, adversaries
// and the robust layer. Each variant runs under both generators.
void CheckMaterializedParity(const EngineConfig& base,
                             const ProtocolFactory& coroutine,
                             StepProgram& program, int seeds) {
  // `reached`, where set, must hold for some run of the variant: the
  // adversarial passes must compare nonzero adversary and robust counters,
  // not just agree on zeros.
  struct Variant {
    const char* name;
    bool fused;
    void (*apply)(EngineConfig&);
    bool (*reached)(const RunResult&) = nullptr;
  };
  const Variant variants[] = {
      {"materialized", false, [](EngineConfig&) {}},
      {"crash", true, [](EngineConfig& c) { c.faults.crash_rate = 0.02; }},
      {"erasure", true,
       [](EngineConfig& c) { c.faults.erasure_rate = 0.05; }},
      {"flaky_cd", true,
       [](EngineConfig& c) { c.faults.flaky_cd_rate = 0.05; }},
      {"jam", true, [](EngineConfig& c) { c.faults.jam_rate = 0.1; }},
      // Observation-free, so the run stays fused between jams and asks
      // LockstepRestored whether to re-fuse after each one. The first two
      // jams hit a top channel that a primary-channel knockout never uses,
      // so the run outlives them; the third hits the primary.
      {"scripted_jams", true,
       [](EngineConfig& c) {
         c.channels = std::max(c.channels, 2);
         c.adversary.kind = adversary::Kind::kScripted;
         c.adversary.budget = 3;
         c.adversary.script = {{1, c.channels}, {3, c.channels}, {5, 1}};
       }},
      {"greedy_reactive", true,
       [](EngineConfig& c) {
         c.adversary.kind = adversary::Kind::kGreedyReactive;
         c.adversary.budget = 20;
       },
       [](const RunResult& r) { return r.adv_jams_spent > 0; }},
      {"robust_hardened", true,
       [](EngineConfig& c) {
         c.robust.enabled = true;
         c.robust.policy = robust::PolicyKind::kHardened;
         c.adversary.kind = adversary::Kind::kProbing;
         c.adversary.budget = 40;
       },
       [](const RunResult& r) {
         return r.adv_jams_spent > 0 && r.epochs_used > 1;
       }},
  };
  for (const support::RngKind kind :
       {support::RngKind::kXoshiro, support::RngKind::kPhilox}) {
    for (const Variant& v : variants) {
      EngineConfig config = base;
      config.rng = kind;
      config.max_rounds = 2000;
      v.apply(config);
      SCOPED_TRACE(::testing::Message()
                   << v.name
                   << " philox=" << (kind == support::RngKind::kPhilox));
      const int hits = CheckParity(config, coroutine, program, seeds, 20'000,
                                   v.fused, v.reached);
      if (::testing::Test::HasFailure()) return;
      if (v.reached != nullptr) {
        EXPECT_GT(hits, 0);
      }
    }
  }
}

TEST(BatchEngineParity, ReduceOnly) {
  EngineConfig config;
  config.population = 4096;
  config.num_active = 32;
  config.channels = 1;
  config.stop_when_solved = false;
  auto program = MakeReduceProgram();
  CheckParity(config, core::MakeReduceOnly(), *program, 500);
  CheckMaterializedParity(config, core::MakeReduceOnly(), *program, 60);
}

TEST(BatchEngineParity, IdReductionOnly) {
  EngineConfig config;
  config.population = 1 << 16;
  config.num_active = 16;
  config.channels = 64;
  config.stop_when_solved = false;
  auto program = MakeIdReductionProgram();
  CheckParity(config, core::MakeIdReductionOnly(), *program, 500);
  CheckMaterializedParity(config, core::MakeIdReductionOnly(), *program, 60);
}

TEST(BatchEngineParity, KnockoutCd) {
  EngineConfig config;
  config.population = 1 << 12;
  config.num_active = 64;
  config.channels = 1;
  auto program = MakeKnockoutCdProgram();
  CheckParity(config, core::MakeKnockoutCd(), *program, 500);
  CheckMaterializedParity(config, core::MakeKnockoutCd(), *program, 60);
}

// LeafElection is deterministic given the leaf assignment (it draws no
// randomness), so parity is swept over random distinct-leaf cohorts
// instead of seeds.
void CheckLeafElectionParity(bool force_binary) {
  constexpr std::int32_t kNumLeaves = 16;
  support::RandomSource leaf_rng(424242);
  for (int rep = 0; rep < 100; ++rep) {
    const auto k = static_cast<std::int32_t>(leaf_rng.UniformInt(1, 12));
    const std::vector<std::int64_t> sampled =
        support::SampleWithoutReplacement(kNumLeaves, k, leaf_rng);
    std::vector<std::int32_t> leaves(sampled.begin(), sampled.end());

    EngineConfig config;
    config.num_active = k;
    config.channels = 2 * kNumLeaves - 1;
    config.seed = 1000 + static_cast<std::uint64_t>(rep);
    core::LeafElectionParams params;
    params.force_binary_search = force_binary;
    auto program = MakeLeafElectionProgram(leaves, kNumLeaves, params);
    const RunResult coro = Engine::Run(
        config, core::MakeLeafElectionOnly(leaves, kNumLeaves, params));
    const RunResult batch = BatchEngine::RunOnce(config, *program);
    SCOPED_TRACE(::testing::Message() << "seed=" << config.seed);
    ExpectSameRun(coro, batch);
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(BatchEngineParity, LeafElection) { CheckLeafElectionParity(false); }

TEST(BatchEngineParity, LeafElectionForceBinary) {
  CheckLeafElectionParity(true);
}

// ---------------------------------------------------------------------------
// Fault-injection parity: the adversary's draws come from dedicated streams
// keyed on the action sequence, so faulty runs must stay bit-exact too —
// including the fault counters, crash compaction, the stall watchdog, and
// the graceful assumption-violation abort.
// ---------------------------------------------------------------------------

TEST(BatchEngineFaultParity, TwoActiveUnderFaults2000Seeds) {
  EngineConfig config;
  config.population = 256;
  config.num_active = 2;
  config.channels = 16;
  config.max_rounds = 500;
  config.faults.jam_rate = 0.15;
  config.faults.flaky_cd_rate = 0.05;
  auto program = MakeTwoActiveProgram();
  CheckParity(config, core::MakeTwoActive(), *program, 2000);
}

TEST(BatchEngineFaultParity, GeneralUnderJamming) {
  EngineConfig config;
  config.population = 1024;
  config.num_active = 64;
  config.channels = 64;
  config.max_rounds = 2000;
  config.faults.jam_rate = 0.2;
  auto program = MakeGeneralProgram();
  CheckParity(config, core::MakeGeneral(), *program, 300);
}

TEST(BatchEngineFaultParity, GeneralUnderCrashes) {
  EngineConfig config;
  config.population = 1024;
  config.num_active = 64;
  config.channels = 64;
  config.max_rounds = 2000;
  config.faults.crash_rate = 0.01;
  auto program = MakeGeneralProgram();
  CheckParity(config, core::MakeGeneral(), *program, 300);
}

TEST(BatchEngineFaultParity, GeneralUnderAllFaults) {
  EngineConfig config;
  config.population = 1024;
  config.num_active = 64;
  config.channels = 64;
  config.max_rounds = 2000;
  config.faults.jam_rate = 0.1;
  config.faults.erasure_rate = 0.05;  // triggers assumption-violation aborts
  config.faults.flaky_cd_rate = 0.02;
  config.faults.crash_rate = 0.005;
  config.faults.fault_seed = 7;
  auto program = MakeGeneralProgram();
  CheckParity(config, core::MakeGeneral(), *program, 300);
}

TEST(BatchEngineFaultParity, KnockoutUnderFlakyCd) {
  EngineConfig config;
  config.population = 1 << 12;
  config.num_active = 64;
  config.channels = 1;
  config.max_rounds = 2000;
  config.faults.flaky_cd_rate = 0.05;
  auto program = MakeKnockoutCdProgram();
  CheckParity(config, core::MakeKnockoutCd(), *program, 200);
}

// The standalone Reduce and IDReduction programs under every fault kind at
// once, both generators. The coroutine twin's runs must show that jams,
// erasures, CD flips and crashes all fired, and for IDReduction that some
// node was renamed at a confirm round.
void CheckStandaloneUnderAllFaults(EngineConfig config,
                                   const ProtocolFactory& coroutine,
                                   StepProgram& program,
                                   const char* confirm_mark) {
  config.max_rounds = 2000;
  config.stop_when_solved = false;
  config.faults.jam_rate = 0.1;
  config.faults.erasure_rate = 0.05;
  config.faults.flaky_cd_rate = 0.05;
  config.faults.crash_rate = 0.01;
  for (const support::RngKind kind :
       {support::RngKind::kXoshiro, support::RngKind::kPhilox}) {
    config.rng = kind;
    SCOPED_TRACE(::testing::Message()
                 << "philox=" << (kind == support::RngKind::kPhilox));
    BatchEngine engine;
    std::int64_t jams = 0, erasures = 0, flips = 0, crashed = 0, confirms = 0;
    for (int t = 0; t < 300; ++t) {
      config.seed = 71'000 + static_cast<std::uint64_t>(t);
      const RunResult coro = Engine::Run(config, coroutine);
      const RunResult batch = engine.Run(config, program);
      SCOPED_TRACE(::testing::Message() << "seed=" << config.seed);
      ExpectSameRun(coro, batch);
      if (::testing::Test::HasFailure()) return;
      jams += batch.jams_injected;
      erasures += batch.erasures_injected;
      flips += batch.cd_flips_injected;
      crashed += batch.crashed_nodes;
      if (confirm_mark != nullptr && coro.LastPhaseMark(confirm_mark) >= 0) {
        ++confirms;
      }
    }
    EXPECT_GT(jams, 0);
    EXPECT_GT(erasures, 0);
    EXPECT_GT(flips, 0);
    EXPECT_GT(crashed, 0);
    if (confirm_mark != nullptr) {
      EXPECT_GT(confirms, 0);
    }
  }
}

TEST(BatchEngineFaultParity, ReduceUnderAllFaults) {
  EngineConfig config;
  config.population = 4096;
  config.num_active = 32;
  config.channels = 1;
  auto program = MakeReduceProgram();
  CheckStandaloneUnderAllFaults(config, core::MakeReduceOnly(), *program,
                                nullptr);
}

TEST(BatchEngineFaultParity, IdReductionUnderAllFaults) {
  EngineConfig config;
  config.population = 1 << 16;
  config.num_active = 16;
  config.channels = 64;
  auto program = MakeIdReductionProgram();
  CheckStandaloneUnderAllFaults(config, core::MakeIdReductionOnly(), *program,
                                "idr_renamed");
}

// The fault_seed must select a different adversary over the same protocol
// randomness — and the same fault_seed must reproduce the same run.
TEST(BatchEngineFaultParity, FaultSeedSelectsAdversary) {
  EngineConfig config;
  config.population = 1024;
  config.num_active = 64;
  config.channels = 64;
  config.max_rounds = 2000;
  config.seed = 42;
  config.faults.jam_rate = 0.3;
  auto program = MakeGeneralProgram();
  BatchEngine engine;
  const RunResult a0 = engine.Run(config, *program);
  config.faults.fault_seed = 1;
  const RunResult a1 = engine.Run(config, *program);
  config.faults.fault_seed = 0;
  const RunResult again = engine.Run(config, *program);
  EXPECT_EQ(a0.rounds_executed, again.rounds_executed);
  EXPECT_EQ(a0.jams_injected, again.jams_injected);
  EXPECT_EQ(a0.solved_round, again.solved_round);
  // Different adversaries virtually never jam the exact same schedule.
  EXPECT_TRUE(a0.rounds_executed != a1.rounds_executed ||
              a0.jams_injected != a1.jams_injected ||
              a0.solved_round != a1.solved_round);
}

// ---------------------------------------------------------------------------
// Philox mode (ISSUE 3): config.rng = kPhilox swaps every stream onto the
// counter-based generator the simd kernels vectorize. The parity contract
// is unchanged — both engines must agree bit-exactly on every seed,
// including under faults.
// ---------------------------------------------------------------------------

TEST(BatchEnginePhiloxParity, TwoActive2000Seeds) {
  EngineConfig config;
  config.population = 256;
  config.num_active = 2;
  config.channels = 16;
  config.rng = support::RngKind::kPhilox;
  auto program = MakeTwoActiveProgram();
  CheckParity(config, core::MakeTwoActive(), *program, 2000);
}

TEST(BatchEnginePhiloxParity, General2000Seeds) {
  EngineConfig config;
  config.population = 1024;
  config.num_active = 64;
  config.channels = 64;
  config.rng = support::RngKind::kPhilox;
  auto program = MakeGeneralProgram();
  CheckParity(config, core::MakeGeneral(), *program, 2000);
}

TEST(BatchEnginePhiloxParity, KnockoutCd) {
  EngineConfig config;
  config.population = 1 << 12;
  config.num_active = 128;
  config.channels = 1;
  config.rng = support::RngKind::kPhilox;
  auto program = MakeKnockoutCdProgram();
  CheckParity(config, core::MakeKnockoutCd(), *program, 200);
}

TEST(BatchEnginePhiloxParity, GeneralUnderAllFaults) {
  EngineConfig config;
  config.population = 1024;
  config.num_active = 64;
  config.channels = 64;
  config.max_rounds = 2000;
  config.rng = support::RngKind::kPhilox;
  config.faults.jam_rate = 0.1;
  config.faults.erasure_rate = 0.05;
  config.faults.flaky_cd_rate = 0.02;
  config.faults.crash_rate = 0.005;
  config.faults.fault_seed = 7;
  auto program = MakeGeneralProgram();
  CheckParity(config, core::MakeGeneral(), *program, 300);
}

TEST(BatchEnginePhiloxParity, DistinctFromXoshiroStreams) {
  // Sanity: the two kinds are different generators, not aliases — a sweep
  // under philox must diverge from the same sweep under xoshiro.
  EngineConfig config;
  config.population = 1024;
  config.num_active = 64;
  config.channels = 64;
  auto program = MakeGeneralProgram();
  BatchEngine engine;
  int differing = 0;
  for (int t = 0; t < 50; ++t) {
    config.seed = 31'000 + static_cast<std::uint64_t>(t);
    config.rng = support::RngKind::kXoshiro;
    const RunResult x = engine.Run(config, *program);
    config.rng = support::RngKind::kPhilox;
    const RunResult p = engine.Run(config, *program);
    if (x.solved_round != p.solved_round ||
        x.total_transmissions != p.total_transmissions) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0);
}

// The fused-round fast path must be a pure optimisation: disabling it and
// re-running the same seeds through the generic per-round loop has to give
// identical results on every program that uses it.
TEST(BatchEngine, FusedRoundsMatchGenericPath) {
  for (const support::RngKind kind :
       {support::RngKind::kXoshiro, support::RngKind::kPhilox}) {
    for (const bool two_active : {true, false}) {
      EngineConfig config;
      config.population = two_active ? 1 << 12 : 1024;
      config.num_active = two_active ? 2 : 64;
      config.channels = 64;
      config.rng = kind;
      auto program = two_active ? MakeTwoActiveProgram() : MakeGeneralProgram();
      BatchEngine fused;
      BatchEngine generic;
      generic.set_fused_rounds(false);
      for (int t = 0; t < 300; ++t) {
        config.seed = 52'000 + static_cast<std::uint64_t>(t);
        const RunResult a = fused.Run(config, *program);
        const RunResult b = generic.Run(config, *program);
        SCOPED_TRACE(::testing::Message() << "seed=" << config.seed);
        ExpectSameRun(a, b);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Fused-round accounting, and re-fusing after a materialized adversary jam
// (the adv_perturbed pin used to be permanent: one jam sent the rest of the
// run down the generic path even after the lanes healed).
// ---------------------------------------------------------------------------

TEST(BatchEngineFused, CounterCountsEveryFusedRound) {
  EngineConfig config;
  config.population = 1 << 12;
  config.num_active = 2;
  config.channels = 16;
  auto program = MakeTwoActiveProgram();
  BatchEngine fused;
  BatchEngine generic;
  generic.set_fused_rounds(false);
  for (int t = 0; t < 200; ++t) {
    config.seed = 61'000 + static_cast<std::uint64_t>(t);
    const RunResult a = fused.Run(config, *program);
    // Pristine two_active fuses every round, the solving round included.
    EXPECT_EQ(a.fused_rounds, a.rounds_executed);
    const RunResult b = generic.Run(config, *program);
    EXPECT_EQ(b.fused_rounds, 0);
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(BatchEngineFused, ScriptedJamReFusesDuel) {
  // C = 1 duel: the duel is *always* in lockstep, so a scripted jam costs
  // the generic path exactly its own round — the very next planned round
  // re-fuses. That gives an exact formula for the counter: every executed
  // round is fused except the jammed ones.
  EngineConfig config;
  config.population = 1024;
  config.num_active = 2;
  config.channels = 1;
  config.adversary.kind = adversary::Kind::kScripted;
  config.adversary.budget = 2;
  config.adversary.per_round_cap = 1;
  config.adversary.script.push_back({2, 1});
  config.adversary.script.push_back({5, 1});
  auto program = MakeTwoActiveProgram();
  BatchEngine engine;
  for (int t = 0; t < 500; ++t) {
    config.seed = 62'000 + static_cast<std::uint64_t>(t);
    const RunResult batch = engine.Run(config, *program);
    std::int64_t jammed = 0;
    for (const std::int64_t r : {2, 5}) {
      if (r < batch.rounds_executed) ++jammed;
    }
    EXPECT_EQ(batch.fused_rounds, batch.rounds_executed - jammed)
        << "seed=" << config.seed
        << " rounds_executed=" << batch.rounds_executed;
    const RunResult coro = Engine::Run(config, core::MakeTwoActive());
    SCOPED_TRACE(::testing::Message() << "seed=" << config.seed);
    ExpectSameRun(coro, batch);
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(BatchEngineFused, ScriptedJamReFusesMultiChannel) {
  // C = 16: a single jam in round 1 lands mid-rename/search, where it may
  // genuinely split the pair's phases (those runs stay generic — correct).
  // But on a healthy fraction of seeds the lanes stay or return to
  // lockstep, and the LockstepRestored probe must re-fuse them: more fused
  // rounds than the single pre-jam round. Without re-fusing the counter
  // could never exceed 1 on any seed.
  EngineConfig config;
  config.population = 256;
  config.num_active = 2;
  config.channels = 16;
  config.adversary.kind = adversary::Kind::kScripted;
  config.adversary.budget = 1;
  config.adversary.script.push_back({1, 1});
  auto program = MakeTwoActiveProgram();
  BatchEngine engine;
  int eligible = 0;
  int refused = 0;
  for (int t = 0; t < 500; ++t) {
    config.seed = 63'000 + static_cast<std::uint64_t>(t);
    const RunResult batch = engine.Run(config, *program);
    const RunResult coro = Engine::Run(config, core::MakeTwoActive());
    SCOPED_TRACE(::testing::Message() << "seed=" << config.seed);
    ExpectSameRun(coro, batch);
    if (::testing::Test::HasFailure()) return;
    if (batch.rounds_executed < 3) continue;  // no post-jam round executed
    ++eligible;
    // Round 0 fused, round 1 was the jam's generic round: any further
    // fused round means the run re-fused.
    if (batch.fused_rounds > 1) ++refused;
  }
  ASSERT_GT(eligible, 0);
  EXPECT_GT(refused, eligible / 4)
      << refused << " of " << eligible << " eligible runs re-fused";
}

// The knockout keeps no per-node state, so after a jam from an
// observation-free adversary (one that leaves the run on fused rounds) its
// LockstepRestored re-fuses the run on the next jam-free round. The fused
// runs must match runs forced onto the generic path, and runs must re-fuse:
// the camper jams rounds 0..budget-1 and the script jams rounds 1 and 3, so
// a fused round after round 0 of a jammed run means a re-fuse.
TEST(BatchEngineFused, ObservationFreeJamsReFuseKnockout) {
  EngineConfig config;
  config.population = 1 << 12;
  config.num_active = 64;
  config.channels = 1;
  auto program = MakeKnockoutCdProgram();
  BatchEngine fused;
  BatchEngine generic;
  generic.set_fused_rounds(false);
  for (const adversary::Kind kind :
       {adversary::Kind::kScripted, adversary::Kind::kPrimaryCamper}) {
    SCOPED_TRACE(adversary::ToString(kind));
    config.adversary = {};
    config.adversary.kind = kind;
    // Fused rounds a jammed run can have without re-fusing.
    std::int64_t before_jams = 0;
    if (kind == adversary::Kind::kScripted) {
      config.adversary.budget = 2;
      config.adversary.script = {{1, 1}, {3, 1}};
      before_jams = 1;
    } else {
      config.adversary.budget = 3;
    }
    int refused = 0;
    for (int t = 0; t < 600; ++t) {
      config.seed = 64'000 + static_cast<std::uint64_t>(t);
      const RunResult a = fused.Run(config, *program);
      const RunResult b = generic.Run(config, *program);
      SCOPED_TRACE(::testing::Message() << "seed=" << config.seed);
      ExpectSameRun(b, a);
      EXPECT_EQ(b.fused_rounds, 0);
      if (::testing::Test::HasFailure()) return;
      if (a.adv_jams_spent > 0 && a.fused_rounds > before_jams) ++refused;
    }
    EXPECT_GT(refused, 100);
  }
}

// Scratch reuse across *different* shapes: one engine instance must give
// the same answers as fresh instances when the channel count (and thus the
// resolver) changes between runs.
TEST(BatchEngine, ScratchReuseAcrossShapes) {
  auto program = MakeGeneralProgram();
  BatchEngine shared;
  for (int t = 0; t < 20; ++t) {
    EngineConfig config;
    config.population = 2048;
    config.num_active = (t % 2 == 0) ? 24 : 96;
    config.channels = (t % 2 == 0) ? 64 : 16;
    config.seed = 777 + static_cast<std::uint64_t>(t);
    const RunResult reused = shared.Run(config, *program);
    const RunResult fresh = BatchEngine::RunOnce(config, *program);
    SCOPED_TRACE(::testing::Message() << "seed=" << config.seed);
    ExpectSameRun(fresh, reused);
  }
}

// ---------------------------------------------------------------------------
// Reused programs against fresh instances. The general program and the
// LeafElection machine size their per-node columns on Reset without
// clearing them: a node's IDReduction and LeafElection values are set when
// it reaches that stage. So a reused instance must never read a value that
// an earlier run left behind. Every run of a reused program must match a
// fresh instance on a fresh engine, field by field.
// ---------------------------------------------------------------------------

void ExpectSameBatchResult(const RunResult& fresh, const RunResult& reused,
                           std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "seed=" << seed);
  ExpectSameRun(fresh, reused);
  EXPECT_EQ(fresh.fused_rounds, reused.fused_rounds);
}

TEST(BatchEngineReuse, GeneralProgramMatchesFreshInstances) {
  struct Leg {
    std::int64_t population;
    std::int32_t num_active;
    std::int32_t channels;
    std::uint64_t first_seed;
    int seeds;
    bool jammed;  // one scripted jam in round 1: materialized from there
  };
  // |A| 4096 -> 64 -> 4096, then a leaf-heavy small-C point, then the same
  // shapes on new seeds, jammed and pristine.
  const Leg legs[] = {
      {1 << 20, 4096, 256, 1, 40, false},
      {65536, 64, 64, 1, 300, false},
      {1 << 20, 4096, 256, 41, 40, false},
      {16, 16, 16, 1, 400, false},
      {65536, 64, 64, 5001, 300, true},
      {16, 16, 16, 9001, 400, true},
      {1 << 20, 4096, 256, 81, 40, true},
      {16, 16, 16, 20001, 400, false},
  };
  for (const support::RngKind kind :
       {support::RngKind::kXoshiro, support::RngKind::kPhilox}) {
    auto reused = MakeGeneralProgram();
    BatchEngine engine;
    for (const Leg& leg : legs) {
      EngineConfig config;
      config.population = leg.population;
      config.num_active = leg.num_active;
      config.channels = leg.channels;
      config.rng = kind;
      if (leg.jammed) {
        config.adversary.kind = adversary::Kind::kScripted;
        config.adversary.budget = 1;
        config.adversary.script.push_back({1, 2});
      }
      // On a pristine run FastRound declines exactly the LeafElection
      // rounds, so these count the rounds the leg spent there.
      std::int64_t leaf_rounds = 0;
      for (int t = 0; t < leg.seeds; ++t) {
        config.seed = leg.first_seed + static_cast<std::uint64_t>(t);
        const RunResult got = engine.Run(config, *reused);
        const auto fresh = MakeGeneralProgram();
        const RunResult want = BatchEngine::RunOnce(config, *fresh);
        ExpectSameBatchResult(want, got, config.seed);
        if (::testing::Test::HasFailure()) return;
        if (!leg.jammed) leaf_rounds += got.rounds_executed - got.fused_rounds;
      }
      if (!leg.jammed) {
        EXPECT_GT(leaf_rounds, 0) << "|A|=" << leg.num_active;
      }
    }
  }
}

// The standalone Reduce, IDReduction and CD knockout programs run on the
// same stage code as the general program, so each reused instance must
// match fresh ones across n, |A|, C and jammed vs. pristine legs.
TEST(BatchEngineReuse, StandaloneStageProgramsMatchFreshInstances) {
  struct Leg {
    std::int64_t population;
    std::int32_t num_active;
    std::int32_t channels;
    bool jammed;  // one scripted jam on the primary channel in round 1
  };
  const Leg legs[] = {
      {1 << 16, 64, 64, false}, {4096, 16, 32, false}, {1 << 16, 64, 64, true},
      {1 << 20, 256, 256, false}, {4096, 16, 32, true}, {1 << 16, 8, 16, false},
  };
  const struct {
    const char* name;
    StepProgramFactory make;
  } programs[] = {
      {"reduce", [] { return MakeReduceProgram(); }},
      {"id_reduction", [] { return MakeIdReductionProgram(); }},
      {"knockout_cd", [] { return MakeKnockoutCdProgram(); }},
  };
  for (const auto& p : programs) {
    SCOPED_TRACE(p.name);
    for (const support::RngKind kind :
         {support::RngKind::kXoshiro, support::RngKind::kPhilox}) {
      const auto reused = p.make();
      BatchEngine engine;
      std::uint64_t seed = 81'000;
      for (const Leg& leg : legs) {
        EngineConfig config;
        config.population = leg.population;
        config.num_active = leg.num_active;
        config.channels = leg.channels;
        config.rng = kind;
        config.stop_when_solved = false;
        config.max_rounds = 2000;
        if (leg.jammed) {
          config.adversary.kind = adversary::Kind::kScripted;
          config.adversary.budget = 1;
          config.adversary.script.push_back({1, 1});
        }
        for (int t = 0; t < 40; ++t) {
          config.seed = seed++;
          const RunResult got = engine.Run(config, *reused);
          const auto fresh = p.make();
          const RunResult want = BatchEngine::RunOnce(config, *fresh);
          ExpectSameBatchResult(want, got, config.seed);
          if (::testing::Test::HasFailure()) return;
        }
      }
    }
  }
}

TEST(BatchEngineReuse, LeafElectionProgramMatchesFreshInstances) {
  constexpr std::int32_t kNumLeaves = 16;
  support::RandomSource leaf_rng(515151);
  for (int rep = 0; rep < 40; ++rep) {
    const auto k = static_cast<std::int32_t>(leaf_rng.UniformInt(2, 12));
    const std::vector<std::int64_t> sampled =
        support::SampleWithoutReplacement(kNumLeaves, k, leaf_rng);
    const std::vector<std::int32_t> leaves(sampled.begin(), sampled.end());
    const auto reused = MakeLeafElectionProgram(leaves, kNumLeaves);
    BatchEngine engine;
    std::uint64_t seed = 3000 + 10 * static_cast<std::uint64_t>(rep);
    for (const std::int32_t channels : {2 * kNumLeaves - 1, 64, 256, 31}) {
      EngineConfig config;
      config.population = 1024;
      config.num_active = k;
      config.channels = channels;
      config.seed = seed++;
      const RunResult got = engine.Run(config, *reused);
      const auto fresh = MakeLeafElectionProgram(leaves, kNumLeaves);
      const RunResult want = BatchEngine::RunOnce(config, *fresh);
      ExpectSameBatchResult(want, got, config.seed);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(BatchEngine, RejectsBadConfig) {
  auto program = MakeGeneralProgram();
  BatchEngine engine;
  EngineConfig config;
  config.num_active = 0;
  EXPECT_THROW(engine.Run(config, *program), std::invalid_argument);
  config.num_active = 8;
  config.population = 4;  // population < num_active
  EXPECT_THROW(engine.Run(config, *program), std::invalid_argument);
}

// The batch engine draws no ID sample, so the config validator is the only
// guard on more active nodes than the population holds.
TEST(BatchEngine, ActiveAbovePopulationNamesTheCause) {
  auto program = MakeGeneralProgram();
  BatchEngine engine;
  EngineConfig config;
  config.population = 4095;
  config.num_active = 4096;
  config.channels = 256;
  try {
    engine.Run(config, *program);
    ADD_FAILURE() << "num_active > population was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds population"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace crmc::sim
