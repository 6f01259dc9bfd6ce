// Tests for the robust execution layer (src/robust/): spec validation with
// distinct config errors, epoch seeding and backoff helpers, wrapped-run
// purity (a wrapped pristine run is bit-identical to an unwrapped one),
// delivery-confirmation semantics against a camping jammer, watchdog-forced
// epoch retries, scripted-adversary restart determinism across engines and
// RNG kinds, the deluded failure bucket, and batch-vs-coroutine parity for
// wrapped runs under reactive adversaries and oblivious faults.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "adversary/adversary.h"
#include "core/general.h"
#include "core/two_active.h"
#include "harness/runner.h"
#include "mac/channel.h"
#include "robust/robust.h"
#include "sim/batch_engine.h"
#include "sim/engine.h"
#include "sim/node_context.h"
#include "sim/step_program.h"
#include "sim/task.h"
#include "support/rng.h"

namespace crmc {
namespace {

using adversary::AdversarySpec;
using adversary::Kind;
using mac::Action;
using robust::RobustSpec;

// --- spec validation --------------------------------------------------------

std::string ThrownMessage(const RobustSpec& spec) {
  try {
    spec.Validate();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(RobustSpecTest, DefaultIsInertAndValid) {
  const RobustSpec spec;
  EXPECT_FALSE(spec.Active());
  EXPECT_NO_THROW(spec.Validate());
}

TEST(RobustSpecTest, ValidateRejectsEachConstraintDistinctly) {
  RobustSpec spec;
  spec.max_epochs = 4;  // tuning without --robust
  EXPECT_NE(ThrownMessage(spec).find("require --robust"), std::string::npos);
  spec = RobustSpec{};
  spec.enabled = true;
  spec.max_epochs = 0;
  EXPECT_NE(ThrownMessage(spec).find("max_epochs must be >= 1"),
            std::string::npos);
  spec = RobustSpec{};
  spec.enabled = true;
  spec.confirm_attempts = -1;
  EXPECT_NE(ThrownMessage(spec).find("confirm_attempts must be in [0, 1024]"),
            std::string::npos);
  spec.confirm_attempts = 2000;
  EXPECT_NE(ThrownMessage(spec).find("confirm_attempts must be in [0, 1024]"),
            std::string::npos);
  spec = RobustSpec{};
  spec.enabled = true;
  spec.backoff_base = -1;
  EXPECT_NE(ThrownMessage(spec).find("backoff base must be >= 0"),
            std::string::npos);
  spec = RobustSpec{};
  spec.enabled = true;
  spec.backoff_base = 8;
  spec.backoff_cap = 4;
  // The message must name both flags (the CLI surfaces it verbatim) and be
  // distinct from the backoff-base check.
  EXPECT_NE(ThrownMessage(spec).find(
                "backoff cap (--backoff-cap) must be >= the backoff base "
                "(--backoff)"),
            std::string::npos);
  // A --backoff-cap below even the *default* base of 2 must be rejected the
  // same way (the historically silent degenerate honeypot schedule).
  spec = RobustSpec{};
  spec.enabled = true;
  spec.backoff_cap = 1;
  EXPECT_NE(ThrownMessage(spec).find("--backoff-cap"), std::string::npos);
  spec = RobustSpec{};
  spec.enabled = false;
  spec.policy = robust::PolicyKind::kAdaptive;  // tuning without --robust
  EXPECT_NE(ThrownMessage(spec).find("require --robust"), std::string::npos);
  spec = RobustSpec{};
  spec.enabled = true;
  spec.epoch_round_budget = -1;
  EXPECT_NE(ThrownMessage(spec).find("epoch round budget must be >= 0"),
            std::string::npos);
  spec = RobustSpec{};
  spec.enabled = true;
  spec.stall_round_budget = -1;
  EXPECT_NE(ThrownMessage(spec).find("stall round budget must be >= 0"),
            std::string::npos);
}

TEST(RobustSpecTest, PolicyNamesRoundTrip) {
  for (const robust::PolicyKind policy :
       {robust::PolicyKind::kStatic, robust::PolicyKind::kAdaptive,
        robust::PolicyKind::kHardened}) {
    const auto parsed = robust::ParsePolicyKind(robust::ToString(policy));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_FALSE(robust::ParsePolicyKind("dynamic").has_value());
  RobustSpec spec;
  EXPECT_FALSE(spec.Adaptive());  // off by default, and off when disabled
  spec.policy = robust::PolicyKind::kAdaptive;
  EXPECT_FALSE(spec.Adaptive());
  spec.enabled = true;
  EXPECT_TRUE(spec.Adaptive());
  // Hardened subsumes adaptive: every adaptive estimator stays live.
  spec.policy = robust::PolicyKind::kHardened;
  EXPECT_TRUE(spec.Adaptive());
  EXPECT_TRUE(spec.Hardened());
  spec.enabled = false;
  EXPECT_FALSE(spec.Hardened());
}

TEST(RobustSpecTest, EngineConfigValidationCoversRobust) {
  sim::EngineConfig config;
  config.num_active = 2;
  config.robust.enabled = true;
  config.robust.max_epochs = 0;
  EXPECT_THROW(sim::ValidateEngineConfig(config), std::invalid_argument);
  config.robust.max_epochs = 4;
  EXPECT_NO_THROW(sim::ValidateEngineConfig(config));
}

// --- helper functions -------------------------------------------------------

TEST(RobustHelpers, EpochSeedZeroIsIdentityAndLaterEpochsDiffer) {
  for (const std::uint64_t seed : {0ULL, 1ULL, 42ULL, 0xDEADBEEFULL}) {
    EXPECT_EQ(robust::EpochSeed(seed, 0), seed);
    std::vector<std::uint64_t> salted{seed};
    for (std::int32_t e = 1; e < 6; ++e) {
      const std::uint64_t s = robust::EpochSeed(seed, e);
      for (const std::uint64_t prev : salted) EXPECT_NE(s, prev);
      salted.push_back(s);
    }
  }
}

TEST(RobustHelpers, BackoffGrowsGeometricallyToTheCap) {
  RobustSpec spec;
  spec.backoff_base = 2;
  spec.backoff_cap = 16;
  EXPECT_EQ(robust::BackoffRounds(spec, 0), 0);
  EXPECT_EQ(robust::BackoffRounds(spec, 1), 2);
  EXPECT_EQ(robust::BackoffRounds(spec, 2), 4);
  EXPECT_EQ(robust::BackoffRounds(spec, 3), 8);
  EXPECT_EQ(robust::BackoffRounds(spec, 4), 16);
  EXPECT_EQ(robust::BackoffRounds(spec, 5), 16);   // cap binds
  EXPECT_EQ(robust::BackoffRounds(spec, 40), 16);  // no shift overflow
  spec.backoff_base = 0;
  EXPECT_EQ(robust::BackoffRounds(spec, 3), 0);  // base 0 disables the pause
}

TEST(RobustHelpers, WatchdogBudgetsDeriveOrObeyOverrides) {
  RobustSpec spec;
  spec.enabled = true;
  const std::int64_t derived = robust::EpochRoundBudget(spec, 1 << 20, 64);
  EXPECT_GT(derived, robust::ReduceRoundBudget(1 << 20) +
                         robust::RenameRoundBudget(1 << 20, 64) +
                         robust::ElectRoundBudget(1 << 20, 64));
  spec.epoch_round_budget = 123;
  EXPECT_EQ(robust::EpochRoundBudget(spec, 1 << 20, 64), 123);
  EXPECT_GT(robust::StallRoundBudget(RobustSpec{}, 1 << 20), 0);
  spec.stall_round_budget = 9;
  EXPECT_EQ(robust::StallRoundBudget(spec, 1 << 20), 9);
  // Budgets grow with the instance — a bigger population buys more rounds.
  EXPECT_GT(robust::EpochRoundBudget(RobustSpec{}, 1 << 20, 64),
            robust::EpochRoundBudget(RobustSpec{}, 1 << 8, 64));
}

TEST(RobustHelpers, ConfirmQuorumEscalatesWithSuppressionAndClamps) {
  // No observed suppression: the static floor stands.
  EXPECT_EQ(robust::ConfirmQuorum(0.0, 1 << 16, 3), 3);
  EXPECT_EQ(robust::ConfirmQuorum(-0.5, 1 << 16, 3), 3);
  // confirm_attempts 0 disables the exchange under every estimate.
  EXPECT_EQ(robust::ConfirmQuorum(0.9, 1 << 16, 0), 0);
  // The w.h.p. bound: smallest k with p^k <= 1/n. At p = 0.5, n = 2^16
  // that is exactly 16 attempts.
  EXPECT_EQ(robust::ConfirmQuorum(0.5, 1 << 16, 3), 16);
  // Quorum grows monotonically with the suppression estimate...
  EXPECT_GT(robust::ConfirmQuorum(0.9, 1 << 16, 3),
            robust::ConfirmQuorum(0.5, 1 << 16, 3));
  // ...and with the population (more nodes, stronger w.h.p. target).
  EXPECT_GT(robust::ConfirmQuorum(0.5, 1 << 20, 3),
            robust::ConfirmQuorum(0.5, 1 << 10, 3));
  // A certain-suppression estimate clamps at the hard ceiling instead of
  // demanding infinitely many echoes; tiny populations stay well-defined.
  EXPECT_EQ(robust::ConfirmQuorum(1.0, 1 << 16, 3), robust::kMaxConfirmQuorum);
  EXPECT_EQ(robust::ConfirmQuorum(0.999999, 1 << 16, 3),
            robust::kMaxConfirmQuorum);
  EXPECT_GE(robust::ConfirmQuorum(0.5, 1, 3), 3);
  // The floor binds whenever the derived k is smaller.
  EXPECT_EQ(robust::ConfirmQuorum(0.01, 4, 5), 5);
}

TEST(RobustHelpers, FindPrimaryWinnerPicksTheLoneTransmitter) {
  std::vector<Action> actions(4);
  EXPECT_EQ(robust::FindPrimaryWinner(actions), -1);
  actions[2] = Action::Transmit(mac::kPrimaryChannel);
  EXPECT_EQ(robust::FindPrimaryWinner(actions), 2);
  actions[1] = Action::Transmit(3);  // side-channel transmit is not primary
  EXPECT_EQ(robust::FindPrimaryWinner(actions), 2);
}

// --- shared run comparison --------------------------------------------------

void ExpectIdenticalRuns(const sim::RunResult& a, const sim::RunResult& b) {
  EXPECT_EQ(a.solved, b.solved);
  EXPECT_EQ(a.solved_round, b.solved_round);
  EXPECT_EQ(a.all_solved_rounds, b.all_solved_rounds);
  EXPECT_EQ(a.rounds_executed, b.rounds_executed);
  EXPECT_EQ(a.timed_out, b.timed_out);
  EXPECT_EQ(a.all_terminated, b.all_terminated);
  EXPECT_EQ(a.total_transmissions, b.total_transmissions);
  EXPECT_EQ(a.max_node_transmissions, b.max_node_transmissions);
  EXPECT_DOUBLE_EQ(a.mean_node_transmissions, b.mean_node_transmissions);
  EXPECT_EQ(a.jams_injected, b.jams_injected);
  EXPECT_EQ(a.erasures_injected, b.erasures_injected);
  EXPECT_EQ(a.cd_flips_injected, b.cd_flips_injected);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.crashed_nodes, b.crashed_nodes);
  EXPECT_EQ(a.adv_jams_spent, b.adv_jams_spent);
  EXPECT_EQ(a.adv_jams_effective, b.adv_jams_effective);
  EXPECT_EQ(a.stall_rounds, b.stall_rounds);
  EXPECT_EQ(a.wedged, b.wedged);
  EXPECT_EQ(a.assumption_violated, b.assumption_violated);
  EXPECT_EQ(a.epochs_used, b.epochs_used);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.confirm_rounds, b.confirm_rounds);
  EXPECT_EQ(a.backoff_rounds, b.backoff_rounds);
  EXPECT_EQ(a.confirmed, b.confirmed);
  EXPECT_EQ(a.adv_rounds_held, b.adv_rounds_held);
  EXPECT_EQ(a.adv_jams_echo, b.adv_jams_echo);
  EXPECT_EQ(a.adv_jams_backoff, b.adv_jams_backoff);
  EXPECT_EQ(a.adaptive_confirm_extra, b.adaptive_confirm_extra);
  EXPECT_EQ(a.adaptive_backoff_trimmed, b.adaptive_backoff_trimmed);
  EXPECT_EQ(a.confirm_quorum_peak, b.confirm_quorum_peak);
  EXPECT_EQ(a.probe_rounds_detected, b.probe_rounds_detected);
  EXPECT_EQ(a.obfuscation_rounds, b.obfuscation_rounds);
}

// Wrapped-vs-unwrapped comparison: the execution must be bit-identical; the
// robust accounting fields legitimately differ (the wrapper reports its own
// epoch bookkeeping) and are checked by the caller.
void ExpectSameExecution(const sim::RunResult& bare,
                         const sim::RunResult& wrapped) {
  EXPECT_EQ(bare.solved, wrapped.solved);
  EXPECT_EQ(bare.solved_round, wrapped.solved_round);
  EXPECT_EQ(bare.all_solved_rounds, wrapped.all_solved_rounds);
  EXPECT_EQ(bare.rounds_executed, wrapped.rounds_executed);
  EXPECT_EQ(bare.timed_out, wrapped.timed_out);
  EXPECT_EQ(bare.all_terminated, wrapped.all_terminated);
  EXPECT_EQ(bare.total_transmissions, wrapped.total_transmissions);
  EXPECT_EQ(bare.max_node_transmissions, wrapped.max_node_transmissions);
  EXPECT_EQ(bare.stall_rounds, wrapped.stall_rounds);
  EXPECT_EQ(bare.wedged, wrapped.wedged);
  EXPECT_EQ(bare.assumption_violated, wrapped.assumption_violated);
}

// --- wrapped-run purity -----------------------------------------------------

TEST(RobustEngine, WrappedPristineRunIsBitIdenticalToUnwrapped) {
  // Acceptance gate: --robust over a pristine (unjammed) run inserts zero
  // rounds and re-salts nothing — epoch 0 uses the unsalted seed, so the
  // execution is bit-identical to an unwrapped run in both engines.
  sim::EngineConfig bare;
  bare.population = 1 << 12;
  bare.num_active = 32;
  bare.channels = 16;
  bare.max_rounds = 2000;
  for (const support::RngKind rng :
       {support::RngKind::kXoshiro, support::RngKind::kPhilox}) {
    bare.rng = rng;
    sim::EngineConfig wrapped = bare;
    wrapped.robust.enabled = true;
    const auto factory = core::MakeGeneral();
    auto program = sim::MakeGeneralProgram();
    sim::BatchEngine engine;
    for (std::uint64_t seed = 7'000; seed < 7'010; ++seed) {
      bare.seed = seed;
      wrapped.seed = seed;
      SCOPED_TRACE(::testing::Message() << "seed=" << seed);
      const sim::RunResult base = sim::Engine::Run(bare, factory);
      const sim::RunResult coro = sim::Engine::Run(wrapped, factory);
      const sim::RunResult batch = engine.Run(wrapped, *program);
      ExpectSameExecution(base, coro);
      ExpectIdenticalRuns(coro, batch);
      EXPECT_EQ(coro.epochs_used, 1);
      EXPECT_EQ(coro.retries, 0);
      EXPECT_EQ(coro.confirm_rounds, 0);
      EXPECT_EQ(coro.backoff_rounds, 0);
      EXPECT_TRUE(coro.confirmed);  // solved pristine => confirmed
    }
  }
}

TEST(RobustEngine, WrappedZeroBudgetAdversaryIsAlsoPristine) {
  sim::EngineConfig bare;
  bare.population = 256;
  bare.num_active = 2;
  bare.channels = 16;
  bare.max_rounds = 2000;
  sim::EngineConfig wrapped = bare;
  wrapped.robust.enabled = true;
  wrapped.adversary.kind = Kind::kPrimaryCamper;
  wrapped.adversary.budget = 0;
  const auto factory = core::MakeTwoActive();
  for (std::uint64_t seed = 8'000; seed < 8'020; ++seed) {
    bare.seed = seed;
    wrapped.seed = seed;
    const sim::RunResult base = sim::Engine::Run(bare, factory);
    const sim::RunResult guarded = sim::Engine::Run(wrapped, factory);
    ExpectSameExecution(base, guarded);
    EXPECT_EQ(guarded.adv_jams_spent, 0);
    EXPECT_EQ(guarded.epochs_used, 1);
  }
}

// --- delivery confirmation --------------------------------------------------

sim::Task<void> TransmitPrimaryForever(sim::NodeContext& ctx) {
  for (;;) co_await ctx.Transmit(mac::kPrimaryChannel);
}

sim::EngineConfig OneForeverConfig(std::int64_t max_rounds) {
  sim::EngineConfig config;
  config.population = 8;
  config.num_active = 1;
  config.channels = 4;
  config.max_rounds = max_rounds;
  config.seed = 42;
  return config;
}

TEST(RobustEngine, EchoRoundsForceTheCamperToSpendOnEveryClaim) {
  // One lone transmitter vs a camper with budget 7. Bare: the camper jams
  // rounds 0..6, round 7 delivers. Wrapped with confirm_attempts 3: every
  // suppressed candidate spawns echo rounds the camper must also jam —
  //   round 0 protocol (jam, 6 left), rounds 1-3 echoes (jams, 3 left),
  //   round 4 protocol (jam, 2 left), rounds 5-6 echoes (jams, 0 left),
  //   round 7 echo: unjammed, delivers => solved and confirmed.
  // Same budget, same solve round, but 6 of the 8 rounds were confirmation
  // exchanges the adversary had to pay for.
  const auto protocol = [](sim::NodeContext& ctx) {
    return TransmitPrimaryForever(ctx);
  };
  sim::EngineConfig bare = OneForeverConfig(40);
  bare.adversary.kind = Kind::kPrimaryCamper;
  bare.adversary.budget = 7;
  const sim::RunResult plain = sim::Engine::Run(bare, protocol);
  EXPECT_EQ(plain.solved_round, 7);

  sim::EngineConfig wrapped = bare;
  wrapped.robust.enabled = true;  // confirm_attempts defaults to 3
  const sim::RunResult r = sim::Engine::Run(wrapped, protocol);
  EXPECT_TRUE(r.solved);
  EXPECT_TRUE(r.confirmed);
  EXPECT_EQ(r.solved_round, 7);
  EXPECT_EQ(r.confirm_rounds, 6);
  EXPECT_EQ(r.adv_jams_spent, 7);
  EXPECT_EQ(r.adv_jams_effective, 7);
  EXPECT_EQ(r.epochs_used, 1);
  EXPECT_EQ(r.retries, 0);
}

TEST(RobustEngine, ConfirmAttemptsZeroDisablesTheEchoExchange) {
  sim::EngineConfig config = OneForeverConfig(40);
  config.adversary.kind = Kind::kPrimaryCamper;
  config.adversary.budget = 7;
  config.robust.enabled = true;
  config.robust.confirm_attempts = 0;
  const sim::RunResult r = sim::Engine::Run(config, [](sim::NodeContext& ctx) {
    return TransmitPrimaryForever(ctx);
  });
  EXPECT_EQ(r.solved_round, 7);  // identical to the bare camper run
  EXPECT_EQ(r.confirm_rounds, 0);
  EXPECT_TRUE(r.confirmed);
}

// --- adaptive policy ---------------------------------------------------------

TEST(RobustAdaptive, PristineAdaptiveRunIsBitIdenticalToStatic) {
  // Acceptance gate for ISSUE 7: with nothing to adapt to (no suppression,
  // no retries), --robust-policy adaptive must be bit-identical to the
  // static wrapper — and therefore to the bare run — on both engines. The
  // estimators only ever see data once an echo round happens.
  sim::EngineConfig wrapped;
  wrapped.population = 1 << 12;
  wrapped.num_active = 32;
  wrapped.channels = 16;
  wrapped.max_rounds = 2000;
  wrapped.robust.enabled = true;
  for (const support::RngKind rng :
       {support::RngKind::kXoshiro, support::RngKind::kPhilox}) {
    wrapped.rng = rng;
    sim::EngineConfig adaptive = wrapped;
    adaptive.robust.policy = robust::PolicyKind::kAdaptive;
    const auto factory = core::MakeGeneral();
    auto program = sim::MakeGeneralProgram();
    sim::BatchEngine engine;
    for (std::uint64_t seed = 61'000; seed < 61'010; ++seed) {
      wrapped.seed = seed;
      adaptive.seed = seed;
      SCOPED_TRACE(::testing::Message() << "seed=" << seed);
      const sim::RunResult stat = sim::Engine::Run(wrapped, factory);
      const sim::RunResult coro = sim::Engine::Run(adaptive, factory);
      const sim::RunResult batch = engine.Run(adaptive, *program);
      ExpectIdenticalRuns(stat, coro);
      ExpectIdenticalRuns(coro, batch);
      EXPECT_EQ(coro.adaptive_confirm_extra, 0);
      EXPECT_EQ(coro.adaptive_backoff_trimmed, 0);
      EXPECT_TRUE(coro.confirmed);
    }
  }
}

TEST(RobustAdaptive, QuorumEscalatesWithinTheExchangeAndDrainsTheJammer) {
  // One lone transmitter vs a camper with budget 7, adaptive policy. The
  // first suppressed claim opens an echo exchange whose loop bound is
  // re-evaluated every round: each jammed echo raises the suppression
  // estimate, which raises the quorum, which keeps the exchange alive —
  // the camper must keep paying until it is broke, inside ONE exchange.
  //   round 0 protocol (jam, 6 left), rounds 1..6 echoes (all jammed, 0
  //   left), round 7 echo: unjammed, delivers => confirmed, epoch 0.
  // The static wrapper solves this too (see EchoRoundsForceTheCamper...)
  // but needs a second protocol candidate; adaptive never lets go.
  sim::EngineConfig config = OneForeverConfig(40);
  config.adversary.kind = Kind::kPrimaryCamper;
  config.adversary.budget = 7;
  config.robust.enabled = true;
  config.robust.policy = robust::PolicyKind::kAdaptive;  // floor stays 3
  const sim::RunResult r = sim::Engine::Run(config, [](sim::NodeContext& ctx) {
    return TransmitPrimaryForever(ctx);
  });
  EXPECT_TRUE(r.solved);
  EXPECT_TRUE(r.confirmed);
  EXPECT_EQ(r.solved_round, 7);
  EXPECT_EQ(r.confirm_rounds, 7);  // one exchange of 7 echoes
  EXPECT_EQ(r.epochs_used, 1);
  EXPECT_EQ(r.adv_jams_spent, 7);
  EXPECT_EQ(r.adv_jams_echo, 6);       // echo strikes (protocol round apart)
  EXPECT_GT(r.confirm_quorum_peak, 3);  // escalated beyond the floor
  EXPECT_GT(r.adaptive_confirm_extra, 0);
  // The watchdog budget was extended per adaptive echo — the exchange must
  // not have tripped an epoch retry.
  EXPECT_EQ(r.retries, 0);
}

TEST(RobustAdaptive, HoneypotTrimsWhenTheAdversaryNeverSpendsOnBackoff) {
  // Same forced-retry setup as EpochWatchdogForcesDeterministicRetries
  // (static: backoff pauses 2 then 4 rounds). No adversary ever jams a
  // backoff round, so from epoch 2 on the adaptive policy trims the
  // honeypot to a single probe round: pauses 2 then 1, three rounds
  // reclaimed, same solve.
  sim::EngineConfig config;
  config.population = 1024;
  config.num_active = 64;
  config.channels = 64;
  config.max_rounds = 4000;
  config.seed = 204;
  config.robust.enabled = true;
  config.robust.policy = robust::PolicyKind::kAdaptive;
  config.robust.max_epochs = 3;
  config.robust.epoch_round_budget = 8;
  const sim::RunResult coro = sim::Engine::Run(config, core::MakeGeneral());
  EXPECT_TRUE(coro.solved);
  EXPECT_TRUE(coro.confirmed);
  EXPECT_EQ(coro.retries, 2);
  EXPECT_EQ(coro.backoff_rounds, 3);
  EXPECT_EQ(coro.adaptive_backoff_trimmed, 3);
  sim::BatchEngine engine;
  auto program = sim::MakeGeneralProgram();
  const sim::RunResult batch = engine.Run(config, *program);
  ExpectIdenticalRuns(coro, batch);
}

TEST(RobustAdaptive, HarnessAggregatesAdaptiveAndHoldAccounting) {
  harness::TrialSpec spec;
  spec.population = 256;
  spec.num_active = 1;
  spec.channels = 4;
  spec.max_rounds = 200;
  spec.use_batch_engine = false;  // num_active 1 custom protocol: coroutine
  spec.adversary.kind = Kind::kPrimaryCamper;
  spec.adversary.budget = 7;
  spec.robust.enabled = true;
  spec.robust.policy = robust::PolicyKind::kAdaptive;
  const harness::TrialSetResult r = harness::RunTrials(
      spec,
      sim::ProtocolFactory([](sim::NodeContext& ctx) {
        return TransmitPrimaryForever(ctx);
      }),
      4);
  EXPECT_EQ(r.confirmed, 4);
  EXPECT_EQ(r.adv_jams_echo, 4 * 6);
  EXPECT_GT(r.confirm_quorum_peak, 3);
  EXPECT_GT(r.adaptive_confirm_extra, 0);
  EXPECT_GT(r.rounds_total, 0);
}

TEST(RobustAdaptive, CachedQuorumMatchesRecomputation) {
  // EpochDriver caches confirm_attempts() and refreshes it where the
  // estimator's inputs change. A test-local model of the estimator (the
  // last kEstimatorSamples banked epoch samples plus the running epoch's,
  // upper median, ConfirmQuorum) must agree with it after every step of
  // random candidate / echo / epoch sequences, for every policy.
  for (const robust::PolicyKind policy :
       {robust::PolicyKind::kStatic, robust::PolicyKind::kAdaptive,
        robust::PolicyKind::kHardened}) {
    for (const std::int64_t n : {std::int64_t{2}, std::int64_t{65536},
                                 std::int64_t{1} << 20}) {
      for (const double suppress : {0.1, 0.5, 0.9, 1.0}) {
        SCOPED_TRACE(::testing::Message()
                     << robust::ToString(policy) << " n=" << n
                     << " suppress=" << suppress);
        RobustSpec spec;
        spec.enabled = true;
        spec.policy = policy;
        const bool adaptive = policy != robust::PolicyKind::kStatic;
        robust::EpochDriver driver(spec, n, 16, /*run_seed=*/n);
        std::vector<double> ring;  // banked samples, oldest first
        std::int64_t echoes = 0;
        std::int64_t failures = 0;
        std::int32_t peak = 0;
        const auto expected_quorum = [&] {
          if (!adaptive) return spec.confirm_attempts;
          std::vector<double> samples = ring;
          if (echoes > 0) {
            samples.push_back(static_cast<double>(failures + 1) /
                              static_cast<double>(echoes + 2));
          }
          double estimate = 0.0;
          if (!samples.empty()) {
            std::sort(samples.begin(), samples.end());
            estimate = samples[samples.size() / 2];
          }
          return robust::ConfirmQuorum(estimate, n, spec.confirm_attempts);
        };
        support::RandomSource rng(static_cast<std::uint64_t>(n) ^
                                  static_cast<std::uint64_t>(suppress * 64));
        for (int step = 0; step < 600; ++step) {
          const std::int64_t pick = rng.UniformInt(0, 99);
          if (pick < 5) {
            driver.BeginNextEpoch();
            if (adaptive && echoes > 0) {
              ring.push_back(static_cast<double>(failures + 1) /
                             static_cast<double>(echoes + 2));
              if (ring.size() > robust::kEstimatorSamples) {
                ring.erase(ring.begin());
              }
              echoes = 0;
              failures = 0;
            }
          } else if (pick < 15) {
            driver.NoteCandidate();
          } else {
            const bool delivered = !rng.Bernoulli(suppress);
            driver.NoteEchoRound(delivered, delivered ? 0 : 1);
            if (adaptive) {
              ++echoes;
              failures += delivered ? 0 : 1;
              peak = std::max(peak, expected_quorum());
            }
          }
          ASSERT_EQ(driver.confirm_attempts(), expected_quorum())
              << "step " << step;
          ASSERT_EQ(driver.confirm_quorum_peak(), peak) << "step " << step;
        }
      }
    }
  }
}

// --- hardened policy ---------------------------------------------------------

TEST(RobustHardened, PristineHardenedRunIsBitIdenticalToStatic) {
  // Acceptance gate for ISSUE 10: with no adversary there is nothing to
  // obfuscate — no retry epoch ever happens, so the chaff machinery stays
  // dormant and --robust-policy hardened is bit-identical to the static
  // wrapper (and therefore to the bare run) on both engines and RNG kinds.
  sim::EngineConfig wrapped;
  wrapped.population = 1 << 12;
  wrapped.num_active = 32;
  wrapped.channels = 16;
  wrapped.max_rounds = 2000;
  wrapped.robust.enabled = true;
  for (const support::RngKind rng :
       {support::RngKind::kXoshiro, support::RngKind::kPhilox}) {
    wrapped.rng = rng;
    sim::EngineConfig hardened = wrapped;
    hardened.robust.policy = robust::PolicyKind::kHardened;
    const auto factory = core::MakeGeneral();
    auto program = sim::MakeGeneralProgram();
    sim::BatchEngine engine;
    for (std::uint64_t seed = 62'000; seed < 62'010; ++seed) {
      wrapped.seed = seed;
      hardened.seed = seed;
      SCOPED_TRACE(::testing::Message() << "seed=" << seed);
      const sim::RunResult stat = sim::Engine::Run(wrapped, factory);
      const sim::RunResult coro = sim::Engine::Run(hardened, factory);
      const sim::RunResult batch = engine.Run(hardened, *program);
      ExpectIdenticalRuns(stat, coro);
      ExpectIdenticalRuns(coro, batch);
      EXPECT_EQ(coro.obfuscation_rounds, 0);
      EXPECT_EQ(coro.probe_rounds_detected, 0);
      EXPECT_TRUE(coro.confirmed);
    }
  }
}

TEST(RobustHardened, UnchargedRetriesAndChaffOutlastTheSaturatingCamper) {
  // The round-3 headline. A camper with budget 4000 saturates the primary
  // channel: every epoch it touches dies by spend, not by bad luck. The
  // adaptive policy charges those deaths against max_epochs and runs out of
  // retries while the camper is still solvent. Hardened applies the jam
  // credit to the retry ledger too — jam-covered failures are uncharged —
  // so it simply keeps retrying until the camper is broke, then confirms.
  // The chaff counters prove the obfuscation layer was live: dummy confirm
  // rounds were fabricated, and the camper was caught jamming them.
  sim::EngineConfig config;
  config.population = 1 << 12;
  config.num_active = 2;
  config.channels = 16;
  config.max_rounds = 40'000;
  config.seed = 1;
  config.adversary.kind = Kind::kPrimaryCamper;
  config.adversary.budget = 4000;
  config.robust.enabled = true;
  config.robust.max_epochs = 4;
  config.robust.policy = robust::PolicyKind::kAdaptive;
  const auto factory = core::MakeTwoActive();
  const sim::RunResult lost = sim::Engine::Run(config, factory);
  EXPECT_FALSE(lost.confirmed);
  EXPECT_EQ(lost.epochs_used, 4);  // retries exhausted at max_epochs

  config.robust.policy = robust::PolicyKind::kHardened;
  const sim::RunResult coro = sim::Engine::Run(config, factory);
  EXPECT_TRUE(coro.solved);
  EXPECT_TRUE(coro.confirmed);
  // More epochs than max_epochs allows: the surplus retries were
  // jam-covered and therefore free.
  EXPECT_GT(coro.epochs_used, config.robust.max_epochs);
  EXPECT_GT(coro.obfuscation_rounds, 0);
  EXPECT_GT(coro.probe_rounds_detected, 0);
  // The camper had to go (nearly) broke before the confirm landed.
  EXPECT_GE(coro.adv_jams_spent, 3'900);
  sim::BatchEngine engine;
  auto program = sim::MakeTwoActiveProgram();
  const sim::RunResult batch = engine.Run(config, *program);
  ExpectIdenticalRuns(coro, batch);
}

TEST(RobustHardened, HarnessAggregatesTheHardenedCounters) {
  harness::TrialSpec spec;
  spec.population = 1 << 12;
  spec.num_active = 2;
  spec.channels = 16;
  spec.max_rounds = 40'000;
  spec.adversary.kind = Kind::kPrimaryCamper;
  // Enough budget to force retry epochs (chaff only arms from epoch 1).
  spec.adversary.budget = 4000;
  spec.robust.enabled = true;
  spec.robust.max_epochs = 4;
  spec.robust.policy = robust::PolicyKind::kHardened;
  const harness::TrialSetResult r =
      harness::RunTrials(spec, core::MakeTwoActive(), 2);
  EXPECT_EQ(r.confirmed, 2);
  EXPECT_GT(r.obfuscation_rounds, 0);
  EXPECT_GT(r.probe_rounds_detected, 0);
}

// --- watchdogs and epoch retry ----------------------------------------------

TEST(RobustEngine, EpochWatchdogForcesDeterministicRetries) {
  // An epoch budget far below the solve time kills epochs 0 and 1 after
  // exactly 8 rounds each; the final epoch (no retry left) runs to its
  // natural end and solves. Backoff pauses 2 then 4 rounds (base 2).
  sim::EngineConfig config;
  config.population = 1024;
  config.num_active = 64;
  config.channels = 64;
  config.max_rounds = 4000;
  // Seed chosen so neither epoch 0 nor the re-salted epoch 1 gets a lucky
  // lone delivery inside the 8-round budget (the general algorithm can
  // solve in as few as 3 rounds when one node lands alone on primary).
  config.seed = 204;
  config.robust.enabled = true;
  config.robust.max_epochs = 3;
  config.robust.epoch_round_budget = 8;
  const sim::RunResult coro = sim::Engine::Run(config, core::MakeGeneral());
  EXPECT_TRUE(coro.solved);
  EXPECT_TRUE(coro.confirmed);
  EXPECT_EQ(coro.retries, 2);
  EXPECT_EQ(coro.epochs_used, 3);
  EXPECT_EQ(coro.backoff_rounds, 6);
  sim::BatchEngine engine;
  auto program = sim::MakeGeneralProgram();
  const sim::RunResult batch = engine.Run(config, *program);
  ExpectIdenticalRuns(coro, batch);
}

TEST(RobustEngine, ScriptedRestartReplayIsDeterministicAcrossEnginesAndRngs) {
  // Scripted jams plus a tight epoch budget force restarts; the whole
  // multi-epoch execution (restart rounds, re-salted streams, backoff
  // schedule) must replay bit-identically run-over-run, across both
  // engines, for both RNG kinds.
  for (const support::RngKind rng :
       {support::RngKind::kXoshiro, support::RngKind::kPhilox}) {
    sim::EngineConfig config;
    config.population = 1024;
    config.num_active = 64;
    config.channels = 64;
    config.max_rounds = 4000;
    config.rng = rng;
    config.adversary.kind = Kind::kScripted;
    config.adversary.budget = 12;
    config.adversary.script = {{0, 1}, {1, 1}, {2, 1}, {3, 1},
                               {4, 1}, {5, 1}, {6, 1}, {7, 1},
                               {8, 1}, {9, 1}, {10, 1}, {11, 1}};
    config.robust.enabled = true;
    config.robust.max_epochs = 4;
    config.robust.epoch_round_budget = 12;
    const auto factory = core::MakeGeneral();
    auto program = sim::MakeGeneralProgram();
    sim::BatchEngine engine;
    for (std::uint64_t seed = 21'000; seed < 21'030; ++seed) {
      config.seed = seed;
      SCOPED_TRACE(::testing::Message()
                   << "rng=" << (rng == support::RngKind::kXoshiro ? "xoshiro"
                                                                   : "philox")
                   << " seed=" << seed);
      const sim::RunResult first = sim::Engine::Run(config, factory);
      const sim::RunResult again = sim::Engine::Run(config, factory);
      const sim::RunResult batch = engine.Run(config, *program);
      ExpectIdenticalRuns(first, again);
      ExpectIdenticalRuns(first, batch);
      // The scripted jams hold the primary channel for all of epoch 0's
      // 12-round budget, so at least one restart is forced; later (clean)
      // epochs may solve inside the budget, so the exact count varies.
      EXPECT_GE(first.retries, 1);
      EXPECT_EQ(first.epochs_used, first.retries + 1);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// --- the headline: wrapped solves confirmed where bare fails ----------------

TEST(RobustEngine, WrappedSolvesConfirmedWhereBareFailsOutright) {
  // A camper with budget >= max_rounds suppresses every candidate: the bare
  // run cannot solve. The wrapper retries epochs until the jammer's budget
  // is drained (backoff and echo rounds are honeypots it keeps paying for),
  // then a clean epoch solves with confirmation.
  sim::EngineConfig bare;
  bare.population = 1024;
  bare.num_active = 64;
  bare.channels = 64;
  bare.max_rounds = 100;
  bare.adversary.kind = Kind::kPrimaryCamper;
  bare.adversary.budget = 200;
  sim::EngineConfig wrapped = bare;
  wrapped.max_rounds = 20'000;
  wrapped.robust.enabled = true;
  wrapped.robust.max_epochs = 8;
  wrapped.robust.epoch_round_budget = 400;
  const auto factory = core::MakeGeneral();
  auto program = sim::MakeGeneralProgram();
  sim::BatchEngine engine;
  for (std::uint64_t seed = 31'000; seed < 31'005; ++seed) {
    bare.seed = seed;
    wrapped.seed = seed;
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    const sim::RunResult broken = sim::Engine::Run(bare, factory);
    EXPECT_FALSE(broken.solved);
    const sim::RunResult coro = sim::Engine::Run(wrapped, factory);
    EXPECT_TRUE(coro.solved);
    EXPECT_TRUE(coro.confirmed);
    EXPECT_GT(coro.retries, 0);
    const sim::RunResult batch = engine.Run(wrapped, *program);
    ExpectIdenticalRuns(coro, batch);
  }
}

// --- harness breakdown ------------------------------------------------------

TEST(RobustHarness, DeludedBucketCountsSilentFailures) {
  // Regression for the silent-failure asymmetry: jammed TwoActive runs where
  // both nodes terminate believing the problem solved used to vanish into
  // the generic unsolved count. They now land in the deluded bucket, which
  // is exactly the unsolved trials that neither timed out nor aborted.
  harness::TrialSpec spec;
  spec.population = 4096;
  spec.num_active = 2;
  spec.channels = 16;
  spec.max_rounds = 64;
  spec.adversary.kind = Kind::kPrimaryCamper;
  spec.adversary.budget = 80;
  const harness::TrialSetResult r =
      harness::RunTrials(spec, core::MakeTwoActive(), 40);
  EXPECT_EQ(r.unsolved, 40);
  EXPECT_GT(r.deluded, 0);
  EXPECT_EQ(r.deluded, r.unsolved - r.timed_out - r.aborted);
}

TEST(RobustHarness, PristineWrappedTrialsConfirmWithoutOverhead) {
  harness::TrialSpec spec;
  spec.population = 4096;
  spec.num_active = 2;
  spec.channels = 16;
  spec.max_rounds = 2000;
  spec.robust.enabled = true;
  const harness::TrialSetResult r =
      harness::RunTrials(spec, core::MakeTwoActive(), 20);
  EXPECT_EQ(r.unsolved, 0);
  EXPECT_EQ(r.confirmed, 20);
  EXPECT_EQ(r.epochs_used, 20);  // one epoch per trial
  EXPECT_EQ(r.retries, 0);
  EXPECT_EQ(r.confirm_rounds, 0);
  EXPECT_EQ(r.backoff_rounds, 0);
  EXPECT_EQ(r.deluded, 0);
}

// --- batch-vs-coroutine parity for wrapped runs ----------------------------

void CheckParity(sim::EngineConfig config,
                 const sim::ProtocolFactory& coroutine,
                 sim::StepProgram& program, int seeds,
                 std::uint64_t seed_base) {
  sim::BatchEngine engine;
  for (int t = 0; t < seeds; ++t) {
    config.seed = seed_base + static_cast<std::uint64_t>(t);
    const sim::RunResult coro = sim::Engine::Run(config, coroutine);
    const sim::RunResult batch = engine.Run(config, program);
    SCOPED_TRACE(::testing::Message() << "seed=" << config.seed);
    ExpectIdenticalRuns(coro, batch);
    if (::testing::Test::HasFailure()) break;
  }
}

AdversarySpec StrategySpec(Kind kind) {
  AdversarySpec spec;
  spec.kind = kind;
  spec.budget = 24;
  spec.per_round_cap = kind == Kind::kPrimaryCamper ? 1 : 3;
  return spec;
}

TEST(RobustParity, WrappedTwoActiveAllStrategies) {
  for (const Kind kind : {Kind::kPrimaryCamper, Kind::kGreedyReactive,
                          Kind::kRandomBudgeted, Kind::kPhaseTracking}) {
    sim::EngineConfig config;
    config.population = 256;
    config.num_active = 2;
    config.channels = 16;
    config.max_rounds = 4000;
    config.adversary = StrategySpec(kind);
    config.robust.enabled = true;
    auto program = sim::MakeTwoActiveProgram();
    CheckParity(config, core::MakeTwoActive(), *program, 400, 51'000);
  }
}

TEST(RobustParity, WrappedGeneralAllStrategiesBothRngKinds) {
  for (const support::RngKind rng :
       {support::RngKind::kXoshiro, support::RngKind::kPhilox}) {
    for (const Kind kind : {Kind::kPrimaryCamper, Kind::kGreedyReactive,
                            Kind::kPhaseTracking}) {
      sim::EngineConfig config;
      config.population = 1024;
      config.num_active = 64;
      config.channels = 64;
      config.max_rounds = 4000;
      config.rng = rng;
      config.adversary = StrategySpec(kind);
      config.robust.enabled = true;
      auto program = sim::MakeGeneralProgram();
      CheckParity(config, core::MakeGeneral(), *program, 100, 52'000);
    }
  }
}

TEST(RobustParity, MultiEpochRunsWithCrashesStayBitExact) {
  // The hardest parity surface: oblivious faults (including node crashes,
  // which persist across epoch restarts) composed with a camper strong
  // enough to force retries. Both engines must agree on every epoch's
  // restart set, fabricated rounds, and final accounting.
  sim::EngineConfig config;
  config.population = 1024;
  config.num_active = 64;
  config.channels = 64;
  config.max_rounds = 20'000;
  config.adversary.kind = Kind::kPrimaryCamper;
  config.adversary.budget = 200;
  config.faults.erasure_rate = 0.02;
  config.faults.flaky_cd_rate = 0.01;
  config.faults.crash_rate = 0.001;
  config.faults.fault_seed = 3;
  config.robust.enabled = true;
  config.robust.max_epochs = 8;
  config.robust.epoch_round_budget = 400;
  auto program = sim::MakeGeneralProgram();
  CheckParity(config, core::MakeGeneral(), *program, 60, 53'000);
}

}  // namespace
}  // namespace crmc
