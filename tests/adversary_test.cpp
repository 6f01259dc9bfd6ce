// Tests for the budgeted adaptive-adversary subsystem (src/adversary/):
// spec validation (including the jam-rate conflict bugfix), BudgetLedger
// never overspending (property test), resolver-level jam semantics,
// scripted replay determinism, zero-budget purity, oblivious_rate
// equivalence, and batch-vs-coroutine parity under every strategy for both
// RNG kinds.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "adversary/adversary.h"
#include "adversary/budget.h"
#include "adversary/observation.h"
#include "core/general.h"
#include "core/two_active.h"
#include "mac/channel.h"
#include "mac/resolver.h"
#include "robust/robust.h"
#include "sim/batch_engine.h"
#include "sim/engine.h"
#include "sim/node_context.h"
#include "sim/step_program.h"
#include "sim/task.h"
#include "support/rng.h"
#include "run_compare.h"

namespace crmc {
namespace {

using adversary::AdversaryRun;
using adversary::AdversarySpec;
using adversary::BudgetLedger;
using adversary::Kind;
using adversary::ObsMode;
using adversary::ScriptEntry;
using mac::Action;
using mac::Feedback;
using mac::Message;
using mac::Resolver;
using mac::RoundSummary;
using sim::ExpectSameRun;

// --- parsing and validation ------------------------------------------------

TEST(AdversarySpecTest, KindNamesRoundTrip) {
  for (const Kind kind :
       {Kind::kNone, Kind::kObliviousRate, Kind::kPrimaryCamper,
        Kind::kGreedyReactive, Kind::kRandomBudgeted, Kind::kScripted,
        Kind::kPhaseTracking, Kind::kLookahead, Kind::kLearning,
        Kind::kProbing}) {
    const auto parsed = adversary::ParseAdversaryKind(adversary::ToString(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(adversary::ParseAdversaryKind("camper").has_value());
  EXPECT_FALSE(adversary::ParseObsMode("both").has_value());
  EXPECT_EQ(*adversary::ParseObsMode("activity"), ObsMode::kActivity);
  EXPECT_EQ(*adversary::ParseObsMode("full"), ObsMode::kFull);
}

std::string ThrownMessage(const AdversarySpec& spec) {
  try {
    spec.Validate();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(AdversarySpecTest, DefaultIsInactiveAndValid) {
  const AdversarySpec spec;
  EXPECT_FALSE(spec.Active());
  EXPECT_FALSE(spec.Budgeted());
  EXPECT_NO_THROW(spec.Validate());
}

TEST(AdversarySpecTest, ValidateRejectsEachConstraintDistinctly) {
  AdversarySpec spec;
  spec.kind = Kind::kObliviousRate;
  spec.rate = 1.5;
  EXPECT_NE(ThrownMessage(spec).find("rate must be in [0, 1]"),
            std::string::npos);
  spec = AdversarySpec{};
  spec.kind = Kind::kGreedyReactive;
  spec.rate = 0.5;
  EXPECT_NE(ThrownMessage(spec).find("only applies to --adversary"),
            std::string::npos);
  spec = AdversarySpec{};
  spec.kind = Kind::kPrimaryCamper;
  spec.budget = -1;
  EXPECT_NE(ThrownMessage(spec).find("budget must be >= 0"),
            std::string::npos);
  spec = AdversarySpec{};
  spec.kind = Kind::kObliviousRate;
  spec.budget = 10;
  EXPECT_NE(ThrownMessage(spec).find("budget only applies"),
            std::string::npos);
  spec = AdversarySpec{};
  spec.kind = Kind::kRandomBudgeted;
  spec.per_round_cap = 0;
  EXPECT_NE(ThrownMessage(spec).find("cap must be >= 1"), std::string::npos);
  spec = AdversarySpec{};
  spec.kind = Kind::kPrimaryCamper;
  spec.script.push_back({0, 1});
  EXPECT_NE(ThrownMessage(spec).find("script only applies"),
            std::string::npos);
  spec = AdversarySpec{};
  spec.kind = Kind::kScripted;
  EXPECT_NE(ThrownMessage(spec).find("non-empty script"), std::string::npos);
  spec.script.push_back({-1, 1});
  EXPECT_NE(ThrownMessage(spec).find("round >= 0"), std::string::npos);
  spec = AdversarySpec{};
  spec.kind = Kind::kProbing;
  spec.probe_budget = -1;
  EXPECT_NE(ThrownMessage(spec).find("probe budget must be >= 0"),
            std::string::npos);
  spec = AdversarySpec{};
  spec.kind = Kind::kLookahead;
  spec.probe_budget = 8;
  EXPECT_NE(ThrownMessage(spec).find("only applies to the probing adversary"),
            std::string::npos);
  spec = AdversarySpec{};
  spec.kind = Kind::kProbing;
  spec.budget = 100;
  spec.probe_budget = 8;
  EXPECT_EQ(ThrownMessage(spec), "");
}

// The satellite bugfix: an adversary combined with an explicit jam_rate must
// be a distinct hard error from ValidateEngineConfig, never silent
// double-jamming.
TEST(AdversarySpecTest, ObliviousRatePlusJamRateIsDistinctConfigError) {
  sim::EngineConfig config;
  config.num_active = 2;
  config.adversary.kind = Kind::kObliviousRate;
  config.adversary.rate = 0.1;
  config.faults.jam_rate = 0.2;
  try {
    sim::ValidateEngineConfig(config);
    FAIL() << "conflicting config must throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("conflicting fault configuration"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("oblivious_rate"), std::string::npos) << what;
    EXPECT_NE(what.find("--jam-rate"), std::string::npos) << what;
  }
}

TEST(AdversarySpecTest, ReactiveAdversaryPlusJamRateAlsoConflicts) {
  sim::EngineConfig config;
  config.num_active = 2;
  config.adversary.kind = Kind::kGreedyReactive;
  config.adversary.budget = 5;
  config.faults.jam_rate = 0.2;
  EXPECT_THROW(sim::ValidateEngineConfig(config), std::invalid_argument);
  // Other fault kinds compose fine with an adversary.
  config.faults.jam_rate = 0.0;
  config.faults.erasure_rate = 0.1;
  config.faults.crash_rate = 0.01;
  EXPECT_NO_THROW(sim::ValidateEngineConfig(config));
}

TEST(AdversarySpecTest, ScriptChannelBeyondNetworkRejected) {
  sim::EngineConfig config;
  config.num_active = 2;
  config.channels = 4;
  config.adversary.kind = Kind::kScripted;
  config.adversary.budget = 1;
  config.adversary.script.push_back({0, 9});
  EXPECT_THROW(sim::ValidateEngineConfig(config), std::invalid_argument);
  config.adversary.script.back().channel = 4;
  EXPECT_NO_THROW(sim::ValidateEngineConfig(config));
}

// --- BudgetLedger ----------------------------------------------------------

TEST(BudgetLedgerTest, AllowanceBindsOnCapRemainingAndChannels) {
  BudgetLedger ledger(/*total=*/5, /*per_round_cap=*/3);
  EXPECT_EQ(ledger.RoundAllowance(/*channels=*/8), 3);   // cap binds
  EXPECT_EQ(ledger.RoundAllowance(/*channels=*/2), 2);   // channels bind
  ledger.Charge(3);
  EXPECT_EQ(ledger.spent(), 3);
  EXPECT_EQ(ledger.RoundAllowance(8), 2);  // remaining budget binds
  ledger.Charge(2);
  EXPECT_EQ(ledger.remaining(), 0);
  EXPECT_EQ(ledger.RoundAllowance(8), 0);
}

TEST(BudgetLedgerTest, ZeroBudgetLedgerGrantsNothing) {
  const BudgetLedger ledger;
  EXPECT_EQ(ledger.RoundAllowance(64), 0);
  EXPECT_EQ(ledger.total(), 0);
}

// Property test: across thousands of randomized (strategy, budget, cap,
// channels) configurations, the driver never lets a strategy overspend the
// budget, exceed the per-round cap, or emit an invalid jam set.
TEST(BudgetLedgerTest, DriverNeverOverspendsAcross2000Seeds) {
  support::RandomSource meta(0xB0D6E7);
  for (int trial = 0; trial < 2000; ++trial) {
    AdversarySpec spec;
    const std::int64_t pick = meta.UniformInt(0, 6);
    spec.kind = pick == 0   ? Kind::kPrimaryCamper
                : pick == 1 ? Kind::kGreedyReactive
                : pick == 2 ? Kind::kRandomBudgeted
                : pick == 3 ? Kind::kPhaseTracking
                : pick == 4 ? Kind::kLookahead
                : pick == 5 ? Kind::kLearning
                            : Kind::kScripted;
    spec.budget = meta.UniformInt(0, 40);
    spec.per_round_cap = static_cast<std::int32_t>(meta.UniformInt(1, 6));
    spec.adv_seed = static_cast<std::uint64_t>(trial);
    const auto channels = static_cast<std::int32_t>(meta.UniformInt(1, 12));
    if (spec.kind == Kind::kScripted) {
      const std::int64_t entries = meta.UniformInt(1, 30);
      for (std::int64_t e = 0; e < entries; ++e) {
        spec.script.push_back(
            {meta.UniformInt(0, 19),
             static_cast<mac::ChannelId>(meta.UniformInt(1, channels))});
      }
    }
    AdversaryRun run(spec, /*run_seed=*/0x5EED + trial);
    ASSERT_TRUE(run.active());
    std::int64_t total = 0;
    for (std::int64_t round = 0; round < 20; ++round) {
      const auto jams = run.PlanRound(round, channels);
      ASSERT_LE(static_cast<std::int64_t>(jams.size()), spec.per_round_cap);
      ASSERT_LE(static_cast<std::int32_t>(jams.size()), channels);
      for (std::size_t i = 0; i < jams.size(); ++i) {
        ASSERT_GE(jams[i], 1);
        ASSERT_LE(jams[i], channels);
        for (std::size_t j = 0; j < i; ++j) ASSERT_NE(jams[i], jams[j]);
      }
      total += static_cast<std::int64_t>(jams.size());
      ASSERT_LE(total, spec.budget);
      ASSERT_EQ(run.ledger().spent(), total);
    }
    // Once the budget is gone, every further round plans nothing.
    if (run.ledger().remaining() == 0) {
      EXPECT_TRUE(run.PlanRound(99, channels).empty());
    }
  }
}

// --- resolver-level jam semantics ------------------------------------------

TEST(AdversaryResolver, JamForcesCollisionAndSuppressesLoneDelivery) {
  Resolver r(4);
  std::vector<Feedback> fb;
  const std::vector<mac::ChannelId> jams{1};
  const RoundSummary s = r.Resolve(
      std::vector<Action>{Action::Transmit(1, Message{5}), Action::Listen(1),
                          Action::Transmit(2, Message{7})},
      fb, nullptr, jams);
  EXPECT_TRUE(fb[0].Collision());  // lone transmitter drowned by the jam
  EXPECT_TRUE(fb[1].Collision());
  EXPECT_TRUE(fb[2].MessageHeard());  // channel 2 untouched by the jam
  EXPECT_EQ(s.primary_transmitters, 1);
  EXPECT_FALSE(s.primary_lone_delivered);
  EXPECT_EQ(s.lone_deliveries, 1);  // channel 2 only
  EXPECT_EQ(s.adv_jams, 1);
  EXPECT_EQ(s.adv_jams_effective, 1);
}

TEST(AdversaryResolver, JamOnCollisionOrEmptyChannelSpendsWithoutEffect) {
  Resolver r(4);
  std::vector<Feedback> fb;
  const std::vector<mac::ChannelId> jams{2, 3};  // 2: collision, 3: empty
  const RoundSummary s = r.Resolve(
      std::vector<Action>{Action::Transmit(1, Message{5}),
                          Action::Transmit(2), Action::Transmit(2)},
      fb, nullptr, jams);
  EXPECT_TRUE(fb[0].MessageHeard());  // primary unaffected
  EXPECT_TRUE(fb[1].Collision());
  EXPECT_TRUE(fb[2].Collision());
  EXPECT_TRUE(s.primary_lone_delivered);
  EXPECT_EQ(s.adv_jams, 2);
  EXPECT_EQ(s.adv_jams_effective, 0);  // neither jam met a lone transmitter
}

TEST(AdversaryResolver, JamMarkOnUntouchedChannelClearsNextRound) {
  Resolver r(4);
  std::vector<Feedback> fb;
  // Round 1: jam channel 3, which nobody touches.
  r.Resolve(std::vector<Action>{Action::Transmit(1, Message{1})}, fb, nullptr,
            std::vector<mac::ChannelId>{3});
  // Round 2: a lone transmission on channel 3 must deliver — the stale jam
  // mark may not leak across rounds.
  const RoundSummary s = r.Resolve(
      std::vector<Action>{Action::Transmit(3, Message{9}), Action::Listen(3)},
      fb);
  EXPECT_TRUE(fb[0].MessageHeard());
  EXPECT_TRUE(fb[1].MessageHeard());
  EXPECT_EQ(s.lone_deliveries, 1);
  EXPECT_EQ(s.adv_jams, 0);
}

TEST(AdversaryResolver, ObliviousDrawsSkipAdversaryJammedChannels) {
  // erasure_rate 1 would erase every lone delivery; on the adversary-jammed
  // channel no oblivious draw happens at all, so the feedback is the jam's
  // collision, not an erasure's silence — and the fault counters stay 0 for
  // that channel.
  mac::FaultSpec spec;
  spec.erasure_rate = 1.0;
  mac::FaultInjector inj(spec, /*run_seed=*/1);
  Resolver r(4);
  std::vector<Feedback> fb;
  const RoundSummary s = r.Resolve(
      std::vector<Action>{Action::Transmit(1, Message{5}),
                          Action::Transmit(2, Message{6})},
      fb, &inj, std::vector<mac::ChannelId>{1});
  EXPECT_TRUE(fb[0].Collision());        // adversary jam, not erasure
  EXPECT_TRUE(fb[1].Silence());          // oblivious erasure still fires
  EXPECT_EQ(inj.counters().erasures, 1);  // channel 2 only
  EXPECT_EQ(s.adv_jams_effective, 1);
  EXPECT_EQ(s.lone_deliveries, 0);
}

// --- engine-level semantics ------------------------------------------------

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

TEST(AdversaryEngine, ScriptedJamDelaysSolveByExactlyItsRounds) {
  // One lone transmitter solves in round 0 pristine; a scripted jam on the
  // primary channel in rounds 0 and 1 pushes the solve to round 2.
  sim::EngineConfig config = OneForeverConfig(10);
  config.adversary.kind = Kind::kScripted;
  config.adversary.budget = 2;
  config.adversary.script = {{0, 1}, {1, 1}};
  const sim::RunResult r = sim::Engine::Run(config, [](sim::NodeContext& ctx) {
    return TransmitPrimaryForever(ctx);
  });
  EXPECT_TRUE(r.solved);
  EXPECT_EQ(r.solved_round, 2);
  EXPECT_EQ(r.adv_jams_spent, 2);
  EXPECT_EQ(r.adv_jams_effective, 2);
}

TEST(AdversaryEngine, ScriptedJamOnIdleChannelIsSpentButIneffective) {
  sim::EngineConfig config = OneForeverConfig(10);
  config.adversary.kind = Kind::kScripted;
  config.adversary.budget = 1;
  config.adversary.script = {{0, 3}};  // nobody transmits on channel 3
  const sim::RunResult r = sim::Engine::Run(config, [](sim::NodeContext& ctx) {
    return TransmitPrimaryForever(ctx);
  });
  EXPECT_TRUE(r.solved);
  EXPECT_EQ(r.solved_round, 0);
  EXPECT_EQ(r.adv_jams_spent, 1);
  EXPECT_EQ(r.adv_jams_effective, 0);
}

TEST(AdversaryEngine, BudgetTruncatesScript) {
  sim::EngineConfig config = OneForeverConfig(10);
  config.adversary.kind = Kind::kScripted;
  config.adversary.budget = 1;  // script asks for 2 jams; only 1 affordable
  config.adversary.script = {{0, 1}, {1, 1}};
  const sim::RunResult r = sim::Engine::Run(config, [](sim::NodeContext& ctx) {
    return TransmitPrimaryForever(ctx);
  });
  EXPECT_EQ(r.solved_round, 1);
  EXPECT_EQ(r.adv_jams_spent, 1);
}

TEST(AdversaryEngine, PrimaryCamperHoldsTheSolveChannelWhileBudgetLasts) {
  sim::EngineConfig config = OneForeverConfig(20);
  config.adversary.kind = Kind::kPrimaryCamper;
  config.adversary.budget = 7;
  const sim::RunResult r = sim::Engine::Run(config, [](sim::NodeContext& ctx) {
    return TransmitPrimaryForever(ctx);
  });
  EXPECT_EQ(r.solved_round, 7);  // exactly budget-many suppressed rounds
  EXPECT_EQ(r.adv_jams_spent, 7);
  EXPECT_EQ(r.adv_jams_effective, 7);
}

// --- lookahead and learning strategies -------------------------------------

// Drives an AdversaryRun by hand through a scripted activity pattern and
// checks the wrapper-aware strategies' hold/strike decisions round by round.
struct StrategyHarness {
  explicit StrategyHarness(Kind kind, ObsMode obs = ObsMode::kFull)
      : resolver(4) {
    AdversarySpec spec;
    spec.kind = kind;
    spec.budget = 1000;
    spec.per_round_cap = 3;
    spec.obs = obs;
    run = AdversaryRun(spec, /*run_seed=*/0xC0FFEE);
  }

  // Plans the next round, resolves `actions` under the planned jams, and
  // feeds the observation back. Returns the planned jam set.
  std::vector<mac::ChannelId> Step(std::vector<Action> actions) {
    const auto jams = run.PlanRound(round, /*channels=*/4);
    const std::vector<mac::ChannelId> planned(jams.begin(), jams.end());
    std::vector<Feedback> fb;
    resolver.Resolve(actions, fb, nullptr, planned);
    run.ObserveRound(resolver, round);
    ++round;
    return planned;
  }

  Resolver resolver;
  AdversaryRun run;
  std::int64_t round = 0;
};

const std::vector<Action> kSilent{Action::Listen(1)};

TEST(AdversaryStrategies, LookaheadStrikesVerdictRoundThenHoldsHoneypots) {
  StrategyHarness h(Kind::kLookahead);
  // No observation yet: the opening round is jammed like a verdict round.
  EXPECT_EQ(h.Step(kSilent), std::vector<mac::ChannelId>{1});
  // First silent round observed -> lone strike on primary (a robust-layer
  // verdict/echo round also looks like this; the strike is worth one jam).
  EXPECT_EQ(h.Step(kSilent), std::vector<mac::ChannelId>{1});
  // Silence streak >= 2 reads as a backoff honeypot: hold, indefinitely.
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(h.Step(kSilent).empty());
  EXPECT_EQ(h.run.rounds_held(), 3);
  EXPECT_EQ(h.run.ledger().spent(), 2);
  // Activity resumes this round; the plan itself still sees silence (hold),
  // the strike lands next round once the activity has been observed.
  EXPECT_TRUE(h.Step({Action::Transmit(1, Message{1}), Action::Transmit(2),
                      Action::Transmit(2), Action::Transmit(3, Message{3})})
                  .empty());
  // Observed sparse activity triggers the endgame strike: primary first,
  // then side channels sparsest-first (ch3 with 1 tx before ch2 with 2).
  EXPECT_EQ(
      h.Step({Action::Transmit(1), Action::Transmit(1), Action::Transmit(1)}),
      (std::vector<mac::ChannelId>{1, 3, 2}));
  // The dense primary (3+ tx) just observed reads as broadcast: hold.
  EXPECT_TRUE(h.Step(kSilent).empty());
  EXPECT_EQ(h.run.rounds_held(), 5);
}

TEST(AdversaryStrategies, LearningBanksTheGapAndStopsPayingTheSilenceToll) {
  StrategyHarness h(Kind::kLearning);
  EXPECT_EQ(h.Step(kSilent), std::vector<mac::ChannelId>{1});  // opening
  // Pre-bank, learning behaves exactly like lookahead: strike the first
  // silent round, hold from the second.
  EXPECT_EQ(h.Step(kSilent), std::vector<mac::ChannelId>{1});
  EXPECT_TRUE(h.Step(kSilent).empty());
  EXPECT_TRUE(h.Step({Action::Transmit(1, Message{9})}).empty());
  // That completed 3-round silence run, bounded by activity, banks
  // longest_gap = 3. From now on silence up to 2*3 = 6 rounds is explained
  // by the learned doubling schedule: no first-round toll, pure hold.
  EXPECT_EQ(h.Step(kSilent), std::vector<mac::ChannelId>{1});  // endgame
  const std::int64_t spent_before = h.run.ledger().spent();
  for (int i = 0; i < 6; ++i) EXPECT_TRUE(h.Step(kSilent).empty());
  EXPECT_EQ(h.run.ledger().spent(), spent_before);
  // The 7th silent round exceeds the learned cap: silence the schedule
  // cannot explain reads as a stalled all-listen stage — strike.
  EXPECT_EQ(h.Step(kSilent), std::vector<mac::ChannelId>{1});
}

TEST(AdversaryStrategies, ProbingCalibratesKillDepthAndRetargetsIt) {
  StrategyHarness h(Kind::kProbing);
  const std::vector<Action> kCollision{Action::Transmit(1),
                                       Action::Transmit(1)};
  // Probing never opens blind: round 0 has no observation and is a hold
  // (lookahead would jam it).
  EXPECT_TRUE(h.Step(kCollision).empty());
  // The observed collision triggers the calibration strike: camp primary
  // until a sustained 2-round silence reads as the epoch's death...
  EXPECT_EQ(h.Step(kSilent), std::vector<mac::ChannelId>{1});
  EXPECT_EQ(h.Step(kSilent), std::vector<mac::ChannelId>{1});
  // ...which banks kill_depth = 2 jams. The post-engagement linger camps
  // the primary for kLingerRounds more rounds to catch a late emergence.
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(h.Step(kSilent), std::vector<mac::ChannelId>{1}) << "linger " << i;
  }
  // Linger exhausted, world quiet: pure hold, no spend.
  EXPECT_TRUE(h.Step(kSilent).empty());
  EXPECT_TRUE(h.Step(kSilent).empty());
  const std::int64_t calibration_spend = h.run.ledger().spent();
  EXPECT_EQ(calibration_spend, 8);  // 2 strike + 6 linger
  // A fresh trigger re-strikes at the banked depth + margin (2 + 2 = 4)
  // instead of the full probe budget (24): even under *continuous*
  // contention the strike window plus linger bound the spend, after which
  // the probing adversary holds despite ongoing activity.
  EXPECT_TRUE(h.Step(kCollision).empty());  // trigger observed next round
  for (int i = 0; i < 10; ++i) {            // 4 strike + 6 linger
    EXPECT_EQ(h.Step(kCollision), std::vector<mac::ChannelId>{1})
        << "retarget " << i;
  }
  EXPECT_TRUE(h.Step(kCollision).empty());
  EXPECT_EQ(h.run.ledger().spent(), calibration_spend + 10);
}

TEST(AdversaryStrategies, ProbingFightsLonePrimaryClaimsUntilSilence) {
  StrategyHarness h(Kind::kProbing);
  const std::vector<Action> kLone{Action::Transmit(1)};
  EXPECT_TRUE(h.Step(kLone).empty());  // no observation yet
  // An observed lone primary transmitter is a live claim (a delivery or a
  // robust-wrapper echo): fight it every round it persists, even though no
  // calibration strike is open.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(h.Step(kLone), std::vector<mac::ChannelId>{1}) << "fight " << i;
  }
  // The claim goes quiet; the fight ends but the linger still camps the
  // primary in case the winner re-emerges.
  EXPECT_EQ(h.Step(kSilent), std::vector<mac::ChannelId>{1});
}

// Activity-only eavesdropping censors transmitter counts, so every sighting
// of the primary channel reads as a lone claim. Under 40 rounds of 2-way
// primary collisions, full observation calibrates once (a 24-jam strike
// plus the 6-jam linger) and then holds; activity observation instead
// fights every round it has seen, all but the blind opening round.
TEST(AdversaryStrategies, ProbingUnderActivityObservationFightsPrimarySightings) {
  const std::vector<Action> kCollision{Action::Transmit(1),
                                       Action::Transmit(1)};
  StrategyHarness full(Kind::kProbing);
  StrategyHarness activity(Kind::kProbing, ObsMode::kActivity);
  int full_jammed = 0;
  int activity_jammed = 0;
  int full_last_jam = -1;
  for (int i = 0; i < 40; ++i) {
    const auto full_jams = full.Step(kCollision);
    const auto activity_jams = activity.Step(kCollision);
    if (!full_jams.empty()) {
      ++full_jammed;
      full_last_jam = i;
      EXPECT_EQ(full_jams, std::vector<mac::ChannelId>{1}) << "round " << i;
    }
    if (!activity_jams.empty()) {
      ++activity_jammed;
      EXPECT_EQ(activity_jams, std::vector<mac::ChannelId>{1})
          << "round " << i;
    }
  }
  EXPECT_EQ(full.run.ledger().spent(), 30);
  EXPECT_EQ(full_jammed, 30);
  EXPECT_EQ(full_last_jam, 30);  // rounds 1-30, then a hold to the end
  EXPECT_EQ(activity.run.ledger().spent(), 39);
  EXPECT_EQ(activity_jammed, 39);
}

TEST(AdversaryStrategies, HoldAccountingCountsAllowanceRoundsWithoutJams) {
  // A camper never holds; an exhausted ledger never holds (no allowance).
  sim::EngineConfig config = OneForeverConfig(20);
  config.adversary.kind = Kind::kPrimaryCamper;
  config.adversary.budget = 7;
  const sim::RunResult camper =
      sim::Engine::Run(config, [](sim::NodeContext& ctx) {
        return TransmitPrimaryForever(ctx);
      });
  EXPECT_EQ(camper.adv_rounds_held, 0);
}

// --- the driver's repeat path and in-place reset ---------------------------

const Kind kAllKinds[] = {
    Kind::kNone,          Kind::kObliviousRate, Kind::kPrimaryCamper,
    Kind::kGreedyReactive, Kind::kRandomBudgeted, Kind::kScripted,
    Kind::kPhaseTracking, Kind::kLookahead,     Kind::kLearning,
    Kind::kProbing};

// A budgeted spec of `kind` on four channels; the script, the probe budget,
// the per-round cap and the observation mode vary with `variant`. Variants
// 0-3 hold budgets of 200 or more; from 4 on the budget is a few dozen
// channel-rounds, which a striker spends within its first engagements.
AdversarySpec DriverSpec(Kind kind, int variant) {
  AdversarySpec spec;
  spec.kind = kind;
  spec.obs = variant % 2 == 0 ? ObsMode::kFull : ObsMode::kActivity;
  spec.adv_seed = static_cast<std::uint64_t>(variant);
  if (!spec.Budgeted()) return spec;
  spec.budget = variant < 4 ? 200 + 40 * variant : 7 * variant;
  spec.per_round_cap = 1 + variant % 3;
  if (kind == Kind::kProbing) spec.probe_budget = 3 + variant;
  if (kind == Kind::kScripted) {
    for (std::int64_t round = variant; round < 300; round += 3 + variant) {
      spec.script.push_back(
          {round, static_cast<mac::ChannelId>(1 + round % 4)});
    }
  }
  return spec;
}

// One of the activity patterns a robust run repeats: silence, a lone
// primary claim (an echo), a primary collision (chaff), side-channel play,
// a dense primary.
std::vector<Action> PatternActions(std::int64_t pattern) {
  switch (pattern) {
    case 0:
      return {Action::Listen(1), Action::Listen(1)};
    case 1:
      return {Action::Transmit(1, Message{7}), Action::Listen(1)};
    case 2:
      return {Action::Transmit(1), Action::Transmit(1), Action::Listen(1)};
    case 3:
      return {Action::Transmit(2, Message{2}), Action::Transmit(3),
              Action::Transmit(3), Action::Listen(4)};
    default:
      return {Action::Transmit(1), Action::Transmit(1), Action::Transmit(1),
              Action::Transmit(4, Message{4})};
  }
}

// A round that repeats the previous round's actions changes no sighting, so
// the driver only re-stamps its observation, and a strategy that can tell
// its plan is unchanged grants a lease the driver keeps the plan under
// (Adversary::lease). Two drivers see the same activity in long repeated
// trains; one observes every round in full, the other takes the repeat
// path on every round after a train's first (its resolver re-judges those
// rounds, as the round loop does). Their jam plans, holds and spend must
// match round for round, for every kind. The variants run per-round caps
// of 1 to 3, and from variant 4 on budgets so small that ledgers run dry
// inside trains. Now and then neither driver plans a long train's second
// round, so a lease must also end when the strategy never digested the
// observation the next round repeats. The test counts that each way a
// probing lease ends is reached.
TEST(AdversaryRun, RepeatObservationMatchesFullObservation) {
  // Probing rounds where a kept plan could apply (a repeat with a plan
  // left to keep), and ledgers that ran dry with their train still going.
  std::int64_t probing_repeat_jams = 0;
  std::int64_t probing_dry_mid_train = 0;
  std::int64_t unplanned_rounds = 0;
  // Probing leases that ended: a strike window used up with the train
  // still going, a fresh (non-repeated) observation, an unplanned round,
  // and a ledger run dry.
  std::int64_t window_out_mid_train = 0;
  std::int64_t fresh_observation_ends_lease = 0;
  std::int64_t unplanned_mid_lease = 0;
  std::int64_t dry_mid_lease = 0;
  for (const Kind kind : kAllKinds) {
    for (int variant = 0; variant < 8; ++variant) {
      SCOPED_TRACE(::testing::Message() << adversary::ToString(kind)
                                        << " variant " << variant);
      const AdversarySpec spec = DriverSpec(kind, variant);
      AdversaryRun full(spec, /*run_seed=*/0xFEED + variant);
      AdversaryRun repeated(spec, /*run_seed=*/0xFEED + variant);
      ASSERT_EQ(full.needs_observation(), repeated.needs_observation());
      Resolver full_resolver(4);
      Resolver repeat_resolver(4);
      support::RandomSource meta(0x7EA1 + variant);
      std::int64_t round = 0;
      while (round < 400) {
        const std::vector<Action> actions =
            PatternActions(meta.UniformInt(0, 4));
        // A skipped plan opens a long train: a state digested from an
        // older observation (a fight where the repeat shows a collision)
        // would plan differently for longer than a strike and its linger.
        const bool skip_second = meta.UniformInt(0, 5) == 0;
        const std::int64_t train = skip_second ? 48 : meta.UniformInt(1, 24);
        for (std::int64_t rep = 0; rep < train; ++rep, ++round) {
          std::vector<mac::ChannelId> want;
          std::vector<mac::ChannelId> got;
          const std::int64_t lease = repeated.lease();
          const bool probing = kind == Kind::kProbing;
          if (rep == 1 && skip_second) {
            ++unplanned_rounds;
            unplanned_mid_lease += probing && lease > 0 ? 1 : 0;
          } else {
            const bool had_budget = full.ledger().remaining() > 0;
            const auto full_jams = full.PlanRound(round, 4);
            want.assign(full_jams.begin(), full_jams.end());
            const auto repeat_jams = repeated.PlanRound(round, 4);
            got.assign(repeat_jams.begin(), repeat_jams.end());
            ASSERT_EQ(got, want) << "round " << round;
            if (probing) {
              probing_repeat_jams += rep > 0 && !got.empty() ? 1 : 0;
              probing_dry_mid_train += had_budget &&
                                               full.ledger().remaining() == 0 &&
                                               rep > 0 && rep + 1 < train
                                           ? 1
                                           : 0;
              // Only a strike's lease is finite, so a lease of 1 kept
              // here is a window's last round.
              window_out_mid_train += lease == 1 && repeated.lease() == 0 &&
                                              had_budget && rep > 0 &&
                                              !(rep == 2 && skip_second) &&
                                              rep + 1 < train
                                          ? 1
                                          : 0;
              fresh_observation_ends_lease +=
                  lease > 0 && had_budget && rep == 0 ? 1 : 0;
              dry_mid_lease += lease > 0 && !had_budget ? 1 : 0;
            }
          }
          full_resolver.Tally(actions, nullptr, want);
          full.ObserveRound(full_resolver, round);
          if (rep == 0) {
            repeat_resolver.Tally(actions, nullptr, got);
          } else {
            repeat_resolver.Retally(nullptr, got);
          }
          repeated.ObserveRound(repeat_resolver, round, rep > 0);
          ASSERT_EQ(repeated.rounds_held(), full.rounds_held())
              << "round " << round;
          ASSERT_EQ(repeated.ledger().spent(), full.ledger().spent())
              << "round " << round;
        }
      }
    }
  }
  EXPECT_GT(probing_repeat_jams, 0);
  EXPECT_GT(probing_dry_mid_train, 0);
  EXPECT_GT(unplanned_rounds, 0);
  EXPECT_GT(window_out_mid_train, 0);
  EXPECT_GT(fresh_observation_ends_lease, 0);
  EXPECT_GT(unplanned_mid_lease, 0);
  EXPECT_GT(dry_mid_lease, 0);
}

// The round loop keeps one driver per engine and resets it for every run.
// A driver reset through a sequence of specs — the same kind several times
// in a row (its strategy reset in place, with another script, probe budget
// or observation mode), another kind, an inactive one — must plan exactly
// what a freshly built driver plans for each. Activity comes in short
// repeated trains, observed as repeats. Every run but each fourth ends in
// silence and every other run opens with it, so state a reset leaves
// behind (a silence streak, a strike, a script cursor) shows in the next
// run's plans; each fourth run ends in an echo train instead, so a reset
// can meet a live lease with kept rounds not yet settled.
TEST(AdversaryRun, ResetMatchesFreshDriver) {
  std::int64_t resets_mid_lease = 0;
  std::vector<AdversarySpec> specs;
  for (const Kind kind : kAllKinds) {
    for (int variant = 0; variant < 3; ++variant) {
      specs.push_back(DriverSpec(kind, variant));
    }
  }
  support::RandomSource meta(0x2E5E7);
  for (int run = 0; run < 60; ++run) {
    specs.push_back(DriverSpec(kAllKinds[meta.UniformInt(0, 9)],
                               static_cast<int>(meta.UniformInt(0, 3))));
  }
  AdversaryRun reused;
  for (std::size_t run = 0; run < specs.size(); ++run) {
    const AdversarySpec& spec = specs[run];
    const std::uint64_t run_seed = 0xAB00 + run;
    SCOPED_TRACE(::testing::Message()
                 << "run " << run << " " << adversary::ToString(spec.kind));
    resets_mid_lease += reused.lease() > 0 ? 1 : 0;
    reused.Reset(spec, run_seed);
    AdversaryRun fresh(spec, run_seed);
    ASSERT_EQ(reused.lease(), 0);
    ASSERT_EQ(reused.active(), fresh.active());
    ASSERT_EQ(reused.needs_observation(), fresh.needs_observation());
    ASSERT_EQ(reused.rounds_held(), 0);
    ASSERT_EQ(reused.ledger().spent(), 0);
    ASSERT_EQ(reused.ledger().total(), fresh.ledger().total());
    Resolver reused_resolver(4);
    Resolver fresh_resolver(4);
    std::int64_t pattern = -1;
    for (std::int64_t round = 0; round < 64; ++round) {
      const bool echo_tail = run % 4 == 3 && round >= 56;
      const bool silent =
          !echo_tail && (round >= 60 || (run % 2 == 0 && round < 3));
      const std::int64_t previous = pattern;
      if (silent) {
        pattern = 0;
      } else if (echo_tail) {
        pattern = 1;  // a lone primary claim: the probing striker fights
      } else if (pattern < 0 || meta.UniformInt(0, 2) == 0) {
        pattern = meta.UniformInt(0, 4);
      }
      const bool repeat = pattern == previous;
      const std::vector<Action> actions = PatternActions(pattern);
      const auto a = reused.PlanRound(round, 4);
      const std::vector<mac::ChannelId> got(a.begin(), a.end());
      const auto b = fresh.PlanRound(round, 4);
      const std::vector<mac::ChannelId> want(b.begin(), b.end());
      ASSERT_EQ(got, want) << "round " << round;
      if (repeat) {
        reused_resolver.Retally(nullptr, got);
        fresh_resolver.Retally(nullptr, want);
      } else {
        reused_resolver.Tally(actions, nullptr, got);
        fresh_resolver.Tally(actions, nullptr, want);
      }
      reused.ObserveRound(reused_resolver, round, repeat);
      fresh.ObserveRound(fresh_resolver, round, repeat);
    }
    EXPECT_EQ(reused.rounds_held(), fresh.rounds_held());
    EXPECT_EQ(reused.ledger().spent(), fresh.ledger().spent());
  }
  EXPECT_GT(resets_mid_lease, 0);
}

// --- determinism and purity ------------------------------------------------


TEST(AdversaryEngine, ScriptedReplayIsDeterministic) {
  sim::EngineConfig config;
  config.population = 1024;
  config.num_active = 16;
  config.channels = 8;
  config.max_rounds = 200;
  config.seed = 77;
  config.adversary.kind = Kind::kScripted;
  config.adversary.budget = 6;
  config.adversary.per_round_cap = 2;
  config.adversary.script = {{0, 1}, {0, 2}, {3, 1}, {5, 4}, {7, 1}, {9, 2}};
  const auto factory = core::MakeGeneral();
  const sim::RunResult first = sim::Engine::Run(config, factory);
  const sim::RunResult second = sim::Engine::Run(config, factory);
  ExpectSameRun(first, second);
  EXPECT_GT(first.adv_jams_spent, 0);
}

TEST(AdversaryEngine, ZeroBudgetIsBitIdenticalToPristine) {
  // A budgeted adversary with nothing to spend must leave no trace — the
  // run is bit-identical to one without the adversary layer, coroutine and
  // batch engines alike.
  sim::EngineConfig pristine;
  pristine.population = 1 << 12;
  pristine.num_active = 32;
  pristine.channels = 16;
  pristine.max_rounds = 2000;
  pristine.record_trace = true;
  for (const Kind kind : {Kind::kPrimaryCamper, Kind::kGreedyReactive,
                          Kind::kRandomBudgeted, Kind::kPhaseTracking}) {
    for (std::uint64_t seed = 900; seed < 910; ++seed) {
      pristine.seed = seed;
      sim::EngineConfig adv = pristine;
      adv.adversary.kind = kind;
      adv.adversary.budget = 0;
      const auto factory = core::MakeGeneral();
      const sim::RunResult base = sim::Engine::Run(pristine, factory);
      const sim::RunResult guarded = sim::Engine::Run(adv, factory);
      ExpectSameRun(base, guarded);
      EXPECT_EQ(guarded.adv_jams_spent, 0);
    }
  }
}

TEST(AdversaryEngine, ObliviousRateIsBitIdenticalToJamRate) {
  sim::EngineConfig jammed;
  jammed.population = 1 << 12;
  jammed.num_active = 32;
  jammed.channels = 16;
  jammed.max_rounds = 2000;
  jammed.faults.jam_rate = 0.08;
  jammed.faults.fault_seed = 5;
  sim::EngineConfig lowered = jammed;
  lowered.faults.jam_rate = 0.0;
  lowered.adversary.kind = Kind::kObliviousRate;
  lowered.adversary.rate = 0.08;
  const auto factory = core::MakeGeneral();
  for (std::uint64_t seed = 300; seed < 320; ++seed) {
    jammed.seed = seed;
    lowered.seed = seed;
    const sim::RunResult a = sim::Engine::Run(jammed, factory);
    const sim::RunResult b = sim::Engine::Run(lowered, factory);
    ExpectSameRun(a, b);
    EXPECT_EQ(b.adv_jams_spent, 0);  // oblivious jams land in jams_injected
  }
}

TEST(AdversaryEngine, AdvSeedSelectsADifferentSchedule) {
  sim::EngineConfig config;
  config.population = 1 << 10;
  config.num_active = 2;
  config.channels = 8;
  config.max_rounds = 400;
  config.seed = 11;
  config.adversary.kind = Kind::kRandomBudgeted;
  config.adversary.budget = 64;
  config.adversary.per_round_cap = 4;
  const auto factory = core::MakeTwoActive();
  config.adversary.adv_seed = 1;
  const sim::RunResult a = sim::Engine::Run(config, factory);
  config.adversary.adv_seed = 2;
  const sim::RunResult b = sim::Engine::Run(config, factory);
  // Same protocol randomness, different jamming schedule: some observable
  // difference must appear across a handful of statistics.
  EXPECT_TRUE(a.solved_round != b.solved_round ||
              a.total_transmissions != b.total_transmissions ||
              a.adv_jams_effective != b.adv_jams_effective);
}

// --- batch-vs-coroutine parity under every strategy ------------------------

void CheckAdversaryParity(sim::EngineConfig config,
                          const sim::ProtocolFactory& coroutine,
                          sim::StepProgram& program, int seeds,
                          std::uint64_t seed_base = 41'000) {
  sim::BatchEngine engine;
  for (int t = 0; t < seeds; ++t) {
    config.seed = seed_base + static_cast<std::uint64_t>(t);
    const sim::RunResult coro = sim::Engine::Run(config, coroutine);
    const sim::RunResult batch = engine.Run(config, program);
    SCOPED_TRACE(::testing::Message() << "seed=" << config.seed);
    ExpectSameRun(coro, batch);
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

sim::EngineConfig TwoActiveConfig(support::RngKind rng) {
  sim::EngineConfig config;
  config.population = 256;
  config.num_active = 2;
  config.channels = 16;
  config.max_rounds = 4000;
  config.rng = rng;
  return config;
}

sim::EngineConfig GeneralConfig(support::RngKind rng) {
  sim::EngineConfig config;
  config.population = 1024;
  config.num_active = 64;
  config.channels = 64;
  config.max_rounds = 4000;
  config.rng = rng;
  return config;
}

TEST(AdversaryParity, TwoActiveCamper2000Seeds) {
  sim::EngineConfig config = TwoActiveConfig(support::RngKind::kXoshiro);
  config.adversary = StrategySpec(Kind::kPrimaryCamper);
  auto program = sim::MakeTwoActiveProgram();
  CheckAdversaryParity(config, core::MakeTwoActive(), *program, 2000);
}

TEST(AdversaryParity, TwoActiveGreedy2000Seeds) {
  sim::EngineConfig config = TwoActiveConfig(support::RngKind::kXoshiro);
  config.adversary = StrategySpec(Kind::kGreedyReactive);
  auto program = sim::MakeTwoActiveProgram();
  CheckAdversaryParity(config, core::MakeTwoActive(), *program, 2000);
}

TEST(AdversaryParity, TwoActiveRandom2000Seeds) {
  sim::EngineConfig config = TwoActiveConfig(support::RngKind::kXoshiro);
  config.adversary = StrategySpec(Kind::kRandomBudgeted);
  auto program = sim::MakeTwoActiveProgram();
  CheckAdversaryParity(config, core::MakeTwoActive(), *program, 2000);
}

TEST(AdversaryParity, TwoActivePhaseTracking2000Seeds) {
  sim::EngineConfig config = TwoActiveConfig(support::RngKind::kXoshiro);
  config.adversary = StrategySpec(Kind::kPhaseTracking);
  auto program = sim::MakeTwoActiveProgram();
  CheckAdversaryParity(config, core::MakeTwoActive(), *program, 2000);
}

TEST(AdversaryParity, TwoActiveLookahead2000Seeds) {
  sim::EngineConfig config = TwoActiveConfig(support::RngKind::kXoshiro);
  config.adversary = StrategySpec(Kind::kLookahead);
  auto program = sim::MakeTwoActiveProgram();
  CheckAdversaryParity(config, core::MakeTwoActive(), *program, 2000);
}

TEST(AdversaryParity, TwoActiveLearning2000Seeds) {
  sim::EngineConfig config = TwoActiveConfig(support::RngKind::kXoshiro);
  config.adversary = StrategySpec(Kind::kLearning);
  auto program = sim::MakeTwoActiveProgram();
  CheckAdversaryParity(config, core::MakeTwoActive(), *program, 2000);
}

TEST(AdversaryParity, TwoActiveProbing2000Seeds) {
  sim::EngineConfig config = TwoActiveConfig(support::RngKind::kXoshiro);
  config.adversary = StrategySpec(Kind::kProbing);
  auto program = sim::MakeTwoActiveProgram();
  CheckAdversaryParity(config, core::MakeTwoActive(), *program, 2000);
}

TEST(AdversaryParity, TwoActiveAllStrategiesPhilox) {
  for (const Kind kind :
       {Kind::kPrimaryCamper, Kind::kGreedyReactive, Kind::kRandomBudgeted,
        Kind::kPhaseTracking, Kind::kLookahead, Kind::kLearning,
        Kind::kProbing}) {
    sim::EngineConfig config = TwoActiveConfig(support::RngKind::kPhilox);
    config.adversary = StrategySpec(kind);
    auto program = sim::MakeTwoActiveProgram();
    CheckAdversaryParity(config, core::MakeTwoActive(), *program, 700);
  }
}

TEST(AdversaryParity, GeneralAllStrategiesBothRngKinds) {
  for (const support::RngKind rng :
       {support::RngKind::kXoshiro, support::RngKind::kPhilox}) {
    for (const Kind kind :
         {Kind::kPrimaryCamper, Kind::kGreedyReactive, Kind::kRandomBudgeted,
          Kind::kPhaseTracking, Kind::kLookahead, Kind::kLearning,
          Kind::kProbing}) {
      sim::EngineConfig config = GeneralConfig(rng);
      config.adversary = StrategySpec(kind);
      auto program = sim::MakeGeneralProgram();
      CheckAdversaryParity(config, core::MakeGeneral(), *program, 150);
    }
  }
}

// The wrapper-aware strategies only earn their name against the robust
// layer: these parity suites drive the fabricated backoff/echo rounds (the
// code paths that split adv_jams into echo/backoff and feed the adaptive
// estimators) through both engines, static and adaptive policy alike.
robust::RobustSpec ParityWrapper(robust::PolicyKind policy) {
  robust::RobustSpec spec;
  spec.enabled = true;
  spec.policy = policy;
  spec.max_epochs = 8;
  spec.confirm_attempts = 2;
  return spec;
}

TEST(AdversaryParity, RobustStaticLookaheadTwoActive) {
  for (const Kind kind : {Kind::kLookahead, Kind::kLearning}) {
    sim::EngineConfig config = TwoActiveConfig(support::RngKind::kXoshiro);
    config.adversary = StrategySpec(kind);
    config.robust = ParityWrapper(robust::PolicyKind::kStatic);
    auto program = sim::MakeTwoActiveProgram();
    CheckAdversaryParity(config, core::MakeTwoActive(), *program, 600);
  }
}

TEST(AdversaryParity, RobustAdaptiveAllStrategiesTwoActive) {
  for (const Kind kind :
       {Kind::kPrimaryCamper, Kind::kPhaseTracking, Kind::kLookahead,
        Kind::kLearning, Kind::kProbing}) {
    sim::EngineConfig config = TwoActiveConfig(support::RngKind::kXoshiro);
    config.adversary = StrategySpec(kind);
    config.adversary.budget = 200;  // enough to provoke epoch retries
    config.robust = ParityWrapper(robust::PolicyKind::kAdaptive);
    auto program = sim::MakeTwoActiveProgram();
    CheckAdversaryParity(config, core::MakeTwoActive(), *program, 600);
  }
}

TEST(AdversaryParity, RobustHardenedAllStrategiesTwoActive) {
  // The gen-3 defense drives every hardened-only code path — salted chaff
  // draws, dummy confirm rounds, jam-credited watchdogs, uncharged retries —
  // from identical points in both engines. All four wrapper-aware
  // strategies, plus the camper whose saturation jamming exercises the
  // retry-side credit hardest.
  for (const Kind kind : {Kind::kPrimaryCamper, Kind::kLookahead,
                          Kind::kLearning, Kind::kProbing}) {
    sim::EngineConfig config = TwoActiveConfig(support::RngKind::kXoshiro);
    config.adversary = StrategySpec(kind);
    config.adversary.budget = 200;
    config.robust = ParityWrapper(robust::PolicyKind::kHardened);
    auto program = sim::MakeTwoActiveProgram();
    CheckAdversaryParity(config, core::MakeTwoActive(), *program, 600);
  }
}

TEST(AdversaryParity, RobustHardenedProbingGeneralBothRngKinds) {
  for (const support::RngKind rng :
       {support::RngKind::kXoshiro, support::RngKind::kPhilox}) {
    for (const Kind kind : {Kind::kProbing, Kind::kPrimaryCamper}) {
      sim::EngineConfig config = GeneralConfig(rng);
      config.adversary = StrategySpec(kind);
      config.adversary.budget = 400;
      config.robust = ParityWrapper(robust::PolicyKind::kHardened);
      auto program = sim::MakeGeneralProgram();
      CheckAdversaryParity(config, core::MakeGeneral(), *program, 100);
    }
  }
}

TEST(AdversaryParity, RobustAdaptiveLookaheadGeneralBothRngKinds) {
  for (const support::RngKind rng :
       {support::RngKind::kXoshiro, support::RngKind::kPhilox}) {
    for (const Kind kind : {Kind::kLookahead, Kind::kLearning}) {
      sim::EngineConfig config = GeneralConfig(rng);
      config.adversary = StrategySpec(kind);
      config.adversary.budget = 400;
      config.robust = ParityWrapper(robust::PolicyKind::kAdaptive);
      auto program = sim::MakeGeneralProgram();
      CheckAdversaryParity(config, core::MakeGeneral(), *program, 100);
    }
  }
}

TEST(AdversaryParity, RobustAdaptiveLookaheadComposedWithFaults) {
  // Erasures + flaky CD over the adaptive wrapper and the lookahead
  // adversary together: the full ISSUE 7 composition, both engines.
  sim::EngineConfig config = GeneralConfig(support::RngKind::kXoshiro);
  config.adversary = StrategySpec(Kind::kLookahead);
  config.adversary.budget = 300;
  config.robust = ParityWrapper(robust::PolicyKind::kAdaptive);
  config.faults.erasure_rate = 0.05;
  config.faults.flaky_cd_rate = 0.02;
  config.faults.fault_seed = 9;
  auto program = sim::MakeGeneralProgram();
  CheckAdversaryParity(config, core::MakeGeneral(), *program, 100);
}

TEST(AdversaryParity, GeneralActivityObservationGreedy) {
  sim::EngineConfig config = GeneralConfig(support::RngKind::kXoshiro);
  config.adversary = StrategySpec(Kind::kGreedyReactive);
  config.adversary.obs = ObsMode::kActivity;
  auto program = sim::MakeGeneralProgram();
  CheckAdversaryParity(config, core::MakeGeneral(), *program, 200);
}

TEST(AdversaryParity, GreedyComposedWithObliviousFaults) {
  // The adversary must stay bit-exact when layered on top of the PR 2 fault
  // machinery (erasures, flaky CD, crashes — everything except jam_rate,
  // which conflicts by design).
  sim::EngineConfig config = GeneralConfig(support::RngKind::kXoshiro);
  config.adversary = StrategySpec(Kind::kGreedyReactive);
  config.faults.erasure_rate = 0.02;
  config.faults.flaky_cd_rate = 0.01;
  config.faults.crash_rate = 0.001;
  config.faults.fault_seed = 3;
  auto program = sim::MakeGeneralProgram();
  CheckAdversaryParity(config, core::MakeGeneral(), *program, 200);
}

TEST(AdversaryParity, ScriptedParityTwoActive) {
  sim::EngineConfig config = TwoActiveConfig(support::RngKind::kXoshiro);
  config.adversary.kind = Kind::kScripted;
  config.adversary.budget = 8;
  config.adversary.per_round_cap = 2;
  config.adversary.script = {{0, 1}, {1, 2}, {2, 1}, {2, 3},
                             {4, 1}, {6, 5}, {8, 1}, {9, 2}};
  auto program = sim::MakeTwoActiveProgram();
  CheckAdversaryParity(config, core::MakeTwoActive(), *program, 500);
}

}  // namespace
}  // namespace crmc
