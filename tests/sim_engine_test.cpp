// Tests for the coroutine protocol machinery and the lockstep engine.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <vector>

#include "adversary/adversary.h"
#include "mac/channel.h"
#include "sim/engine.h"
#include "sim/node_context.h"
#include "sim/task.h"

namespace crmc::sim {
namespace {

using mac::Feedback;
using mac::kPrimaryChannel;

Task<void> TransmitRandomly(NodeContext& ctx);
Task<void> StopAfterTransmitting(NodeContext& ctx);

EngineConfig Config(std::int32_t num_active, std::int32_t channels,
                    std::uint64_t seed = 1) {
  EngineConfig c;
  c.num_active = num_active;
  c.channels = channels;
  c.seed = seed;
  return c;
}

// --- basic engine behaviour ------------------------------------------------

Task<void> TransmitOnceOnPrimary(NodeContext& ctx) {
  co_await ctx.Transmit(kPrimaryChannel);
}

TEST(Engine, LoneTransmitterSolvesInRoundZero) {
  const RunResult r = Engine::Run(Config(1, 1), [](NodeContext& ctx) {
    return TransmitOnceOnPrimary(ctx);
  });
  EXPECT_TRUE(r.solved);
  EXPECT_EQ(r.solved_round, 0);
  EXPECT_EQ(r.rounds_executed, 1);
  EXPECT_EQ(r.total_transmissions, 1);
}

TEST(Engine, TwoTransmittersDoNotSolve) {
  const RunResult r = Engine::Run(Config(2, 1), [](NodeContext& ctx) {
    return TransmitOnceOnPrimary(ctx);
  });
  EXPECT_FALSE(r.solved);
  EXPECT_TRUE(r.all_terminated);
  EXPECT_EQ(r.rounds_executed, 1);
}

Task<void> TransmitForever(NodeContext& ctx) {
  for (;;) co_await ctx.Transmit(2);
}

TEST(Engine, MaxRoundsStopsNonTerminatingProtocols) {
  EngineConfig c = Config(2, 2);
  c.max_rounds = 50;
  const RunResult r = Engine::Run(c, [](NodeContext& ctx) {
    return TransmitForever(ctx);
  });
  EXPECT_FALSE(r.solved);
  EXPECT_TRUE(r.timed_out);
  EXPECT_EQ(r.rounds_executed, 50);
  EXPECT_FALSE(r.all_terminated);
}

// Feedback is delivered correctly across rounds.
Task<void> ObserveThenReport(NodeContext& ctx) {
  // Round 0: node 0 transmits alone on channel 2, node 1 listens there.
  Feedback fb;
  if (ctx.index() == 0) {
    fb = co_await ctx.Transmit(2, mac::Message{42});
  } else {
    fb = co_await ctx.Listen(2);
  }
  if (!fb.MessageHeard() || fb.message.payload != 42) {
    throw std::runtime_error("wrong feedback in round 0");
  }
  // Round 1: both transmit on channel 2 -> collision for both.
  fb = co_await ctx.Transmit(2);
  if (!fb.Collision()) throw std::runtime_error("expected collision");
  // Round 2: both idle; node 0 listens on silent channel 1.
  if (ctx.index() == 0) {
    fb = co_await ctx.Listen(kPrimaryChannel);
    if (!fb.Silence()) throw std::runtime_error("expected silence");
  } else {
    co_await ctx.Sleep();
  }
}

TEST(Engine, DeliversObservationsAcrossRounds) {
  const RunResult r = Engine::Run(Config(2, 2), [](NodeContext& ctx) {
    return ObserveThenReport(ctx);
  });
  EXPECT_TRUE(r.all_terminated);
  EXPECT_EQ(r.rounds_executed, 3);
}

// --- nested tasks (steps) ---------------------------------------------------

Task<int> CountCollisions(NodeContext& ctx, int rounds) {
  int collisions = 0;
  for (int i = 0; i < rounds; ++i) {
    const Feedback fb = co_await ctx.Transmit(2);
    if (fb.Collision()) ++collisions;
  }
  co_return collisions;
}

Task<void> NestedProtocol(NodeContext& ctx) {
  const int first = co_await CountCollisions(ctx, 3);
  const int second = co_await CountCollisions(ctx, 2);
  ctx.RecordMetric("collisions", first + second);
}

TEST(Engine, NestedStepsComposeAndReturnValues) {
  const RunResult r = Engine::Run(Config(2, 2), [](NodeContext& ctx) {
    return NestedProtocol(ctx);
  });
  EXPECT_TRUE(r.all_terminated);
  EXPECT_EQ(r.rounds_executed, 5);
  const auto values = r.MetricValues("collisions");
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0], 5);  // both nodes collide in every round
  EXPECT_EQ(values[1], 5);
}

Task<int> ThrowingStep(NodeContext& ctx) {
  co_await ctx.Listen(kPrimaryChannel);
  throw std::runtime_error("step failed");
}

Task<void> ProtocolCatchingStepException(NodeContext& ctx) {
  try {
    (void)co_await ThrowingStep(ctx);
  } catch (const std::runtime_error&) {
    ctx.MarkPhase("caught");
  }
}

TEST(Engine, StepExceptionsPropagateToAwaiter) {
  const RunResult r = Engine::Run(Config(1, 1), [](NodeContext& ctx) {
    return ProtocolCatchingStepException(ctx);
  });
  EXPECT_TRUE(r.all_terminated);
  EXPECT_EQ(r.LastPhaseMark("caught"), 1);
}

Task<void> ThrowingProtocol(NodeContext& ctx) {
  co_await ctx.Listen(kPrimaryChannel);
  throw std::logic_error("protocol bug");
}

TEST(Engine, ProtocolExceptionsEscapeRun) {
  EXPECT_THROW(Engine::Run(Config(1, 1),
                           [](NodeContext& ctx) {
                             return ThrowingProtocol(ctx);
                           }),
               std::logic_error);
}

// --- context plumbing --------------------------------------------------------

Task<void> RecordIdentity(NodeContext& ctx) {
  ctx.RecordMetric("index", ctx.index());
  ctx.RecordMetric("unique_id", ctx.unique_id());
  ctx.RecordMetric("population", ctx.population());
  ctx.RecordMetric("channels", ctx.channels());
  co_await ctx.Sleep();
}

TEST(Engine, ContextExposesModelParameters) {
  EngineConfig c = Config(3, 7);
  c.population = 100;
  const RunResult r = Engine::Run(c, [](NodeContext& ctx) {
    return RecordIdentity(ctx);
  });
  const auto populations = r.MetricValues("population");
  const auto channels = r.MetricValues("channels");
  ASSERT_EQ(populations.size(), 3u);
  for (const auto v : populations) EXPECT_EQ(v, 100);
  for (const auto v : channels) EXPECT_EQ(v, 7);

  const auto ids = r.MetricValues("unique_id");
  ASSERT_EQ(ids.size(), 3u);
  std::set<std::int64_t> distinct(ids.begin(), ids.end());
  EXPECT_EQ(distinct.size(), 3u);
  for (const auto v : ids) {
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 100);
  }
}

TEST(Engine, DeterministicGivenSeed) {
  auto run = [](std::uint64_t seed) {
    EngineConfig c = Config(5, 4, seed);
    c.stop_when_solved = true;
    c.max_rounds = 100000;
    return Engine::Run(c, [](NodeContext& ctx) -> Task<void> {
      return TransmitRandomly(ctx);
    });
  };
  const RunResult a = run(7);
  const RunResult b = run(7);
  const RunResult c = run(8);
  EXPECT_EQ(a.solved, b.solved);
  EXPECT_EQ(a.solved_round, b.solved_round);
  EXPECT_EQ(a.total_transmissions, b.total_transmissions);
  // Different seed should (almost surely) differ somewhere.
  EXPECT_TRUE(a.solved_round != c.solved_round ||
              a.total_transmissions != c.total_transmissions);
}

Task<void> TransmitRandomly(NodeContext& ctx) {
  for (;;) {
    const auto ch =
        static_cast<mac::ChannelId>(ctx.rng().UniformInt(1, ctx.channels()));
    if (ctx.rng().Bernoulli(0.5)) {
      co_await ctx.Transmit(ch);
    } else {
      co_await ctx.Listen(ch);
    }
  }
}

// --- phase marks and active counts -------------------------------------------

Task<void> MarkedProtocol(NodeContext& ctx) {
  co_await ctx.Listen(kPrimaryChannel);
  co_await ctx.Listen(kPrimaryChannel);
  ctx.MarkPhase("after_two");
  co_await ctx.Listen(kPrimaryChannel);
  ctx.MarkPhase("after_three");
}

TEST(Engine, PhaseMarksRecordRounds) {
  const RunResult r = Engine::Run(Config(1, 1), [](NodeContext& ctx) {
    return MarkedProtocol(ctx);
  });
  EXPECT_EQ(r.LastPhaseMark("after_two"), 2);
  EXPECT_EQ(r.LastPhaseMark("after_three"), 3);
  EXPECT_EQ(r.LastPhaseMark("missing"), -1);
}

Task<void> StopAfter(NodeContext& ctx, int rounds) {
  for (int i = 0; i < rounds; ++i) co_await ctx.Listen(kPrimaryChannel);
}

TEST(Engine, ActiveCountsTrackTerminations) {
  EngineConfig c = Config(3, 1);
  c.record_active_counts = true;
  const RunResult r = Engine::Run(c, [](NodeContext& ctx) {
    return StopAfter(ctx, ctx.index() + 1);
  });
  // Node i listens for i+1 rounds: counts at round starts are 3, 2, 1.
  ASSERT_EQ(r.active_counts.size(), 3u);
  EXPECT_EQ(r.active_counts[0], 3);
  EXPECT_EQ(r.active_counts[1], 2);
  EXPECT_EQ(r.active_counts[2], 1);
}

// --- auto-beacon mode (wakeup-transform support) ------------------------------

Task<void> BeaconedListener(NodeContext& ctx) {
  ctx.SetAutoBeacon(true);
  // Three protocol rounds; the engine interleaves a primary-channel beacon
  // before each one.
  for (int i = 0; i < 3; ++i) {
    const Feedback fb = co_await ctx.Listen(2);
    ctx.RecordMetric("obs", static_cast<std::int64_t>(fb.observation));
  }
  ctx.SetAutoBeacon(false);
  co_await ctx.Listen(2);  // no beacon precedes this one
}

TEST(Engine, AutoBeaconInterleavesPrimaryTransmissions) {
  EngineConfig c = Config(1, 2);
  c.stop_when_solved = false;
  c.record_trace = true;
  const RunResult r = Engine::Run(c, [](NodeContext& ctx) {
    return BeaconedListener(ctx);
  });
  EXPECT_TRUE(r.all_terminated);
  // beacon, listen, beacon, listen, beacon, listen, then the bare listen.
  EXPECT_EQ(r.rounds_executed, 7);
  ASSERT_EQ(r.trace.size(), 7u);
  for (std::size_t round = 0; round < 7; ++round) {
    const bool beacon_round = round % 2 == 0 && round < 6;
    bool primary_tx = false;
    for (const auto& ev : r.trace[round].events) {
      if (ev.channel == mac::kPrimaryChannel && ev.transmitters == 1) {
        primary_tx = true;
      }
    }
    EXPECT_EQ(primary_tx, beacon_round) << "round " << round;
  }
  // The lone node's beacons are lone primary transmissions: solved at 0.
  EXPECT_TRUE(r.solved);
  EXPECT_EQ(r.solved_round, 0);
  // The protocol's own feedback stream is untouched by the beacons.
  for (const auto v : r.MetricValues("obs")) {
    EXPECT_EQ(v, static_cast<std::int64_t>(mac::Observation::kSilence));
  }
}

Task<void> BeaconedTalkers(NodeContext& ctx) {
  ctx.SetAutoBeacon(true);
  // Protocol rounds where both nodes transmit on channel 2 (collision).
  for (int i = 0; i < 2; ++i) {
    const Feedback fb = co_await ctx.Transmit(2);
    if (!fb.Collision()) throw std::runtime_error("expected collision");
  }
  ctx.SetAutoBeacon(false);
}

TEST(Engine, AutoBeaconKeepsNodesInLockstep) {
  EngineConfig c = Config(2, 2);
  c.stop_when_solved = false;
  const RunResult r = Engine::Run(c, [](NodeContext& ctx) {
    return BeaconedTalkers(ctx);
  });
  // Two beacons (colliding on the primary channel) + two protocol rounds.
  EXPECT_TRUE(r.all_terminated);
  EXPECT_EQ(r.rounds_executed, 4);
  EXPECT_FALSE(r.solved);  // beacons collide; protocol rounds are off-primary
  EXPECT_EQ(r.total_transmissions, 8);
}

TEST(Engine, RejectsBadConfig) {
  EXPECT_THROW(Engine::Run(Config(0, 1), nullptr), std::invalid_argument);
  EngineConfig bad_pop = Config(5, 1);
  bad_pop.population = 3;
  EXPECT_THROW(Engine::Run(bad_pop,
                           [](NodeContext& ctx) {
                             return TransmitOnceOnPrimary(ctx);
                           }),
               std::invalid_argument);
}

// Each constraint rejects with its own message, so a bad sweep config names
// the field at fault instead of a generic "invalid config".
TEST(Engine, RejectsBadConfigWithDistinctMessages) {
  const auto message_for = [](const EngineConfig& config) -> std::string {
    try {
      ValidateEngineConfig(config);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_NE(message_for(Config(0, 1)).find("activated node"),
            std::string::npos);
  EXPECT_NE(message_for(Config(2, 0)).find("channel"), std::string::npos);
  EngineConfig bad_rounds = Config(2, 1);
  bad_rounds.max_rounds = 0;
  EXPECT_NE(message_for(bad_rounds).find("max_rounds"), std::string::npos);
  EngineConfig bad_pop = Config(5, 1);
  bad_pop.population = 3;
  EXPECT_NE(message_for(bad_pop).find("exceeds population"),
            std::string::npos);
  EXPECT_EQ(message_for(Config(2, 1)), "");  // a valid config passes
}

TEST(Engine, StopWhenSolvedFalseRunsToCompletion) {
  EngineConfig c = Config(1, 1);
  c.stop_when_solved = false;
  const RunResult r = Engine::Run(c, [](NodeContext& ctx) {
    return StopAfterTransmitting(ctx);
  });
  EXPECT_TRUE(r.solved);
  EXPECT_EQ(r.solved_round, 0);
  EXPECT_TRUE(r.all_terminated);
  EXPECT_EQ(r.rounds_executed, 3);
}

Task<void> StopAfterTransmitting(NodeContext& ctx) {
  co_await ctx.Transmit(kPrimaryChannel);  // solves in round 0
  co_await ctx.Listen(kPrimaryChannel);
  co_await ctx.Listen(kPrimaryChannel);
}

// --- coroutine behaviours hosted by the shared round loop --------------------

Task<void> ReturnAtOnceOrListen(NodeContext& ctx) {
  if (ctx.index() == 0) co_return;  // ends before its first round
  for (;;) co_await ctx.Listen(2);
}

// A node whose protocol ends when first kicked never enters the alive set:
// it takes no crash draw in round 0's sweep, which crashes everyone else.
TEST(Engine, NodeEndingBeforeRoundZeroTakesNoCrashDraw) {
  EngineConfig c = Config(3, 2);
  c.faults.crash_rate = 1.0;
  const RunResult r = Engine::Run(c, [](NodeContext& ctx) {
    return ReturnAtOnceOrListen(ctx);
  });
  EXPECT_EQ(r.crashed_nodes, 2);
  EXPECT_EQ(r.rounds_executed, 0);
  EXPECT_FALSE(r.all_terminated);
}

// Node 0 transmits alone on the primary channel in round 0, which a
// scripted jam suppresses; the robust layer then inserts a confirmation
// echo (round 1) before the nodes advance, so the round the nodes resume
// into, and the one they see, is round 2.
Task<void> MarkAfterJammedLoneTransmission(NodeContext& ctx) {
  if (ctx.index() == 0) {
    co_await ctx.Transmit(kPrimaryChannel);
  } else {
    co_await ctx.Listen(2);
  }
  ctx.MarkPhase("resumed");
  co_await ctx.Sleep();
}

TEST(Engine, RoundAfterRobustEchoIsTheRoundAboutToExecute) {
  EngineConfig c = Config(2, 2);
  c.stop_when_solved = false;
  c.robust.enabled = true;
  c.adversary.kind = adversary::Kind::kScripted;
  c.adversary.budget = 1;
  c.adversary.script.push_back({0, kPrimaryChannel});
  const RunResult r = Engine::Run(c, [](NodeContext& ctx) {
    return MarkAfterJammedLoneTransmission(ctx);
  });
  EXPECT_EQ(r.confirm_rounds, 1);
  EXPECT_TRUE(r.solved);
  EXPECT_EQ(r.solved_round, 1);  // the echo delivered
  EXPECT_EQ(r.LastPhaseMark("resumed"), 2);
  EXPECT_EQ(r.rounds_executed, 3);
}

// --- RunResult accessors ----------------------------------------------------

// Node i idles i rounds, then marks "ready" (at round i) and records one
// metric; node 0 additionally records a second, private metric.
Task<void> MarkAndMeasure(NodeContext& ctx) {
  for (std::int64_t i = 0; i < ctx.index(); ++i) co_await ctx.Sleep();
  ctx.MarkPhase("ready");
  ctx.RecordMetric("twice_index", ctx.index() * 2);
  if (ctx.index() == 0) ctx.RecordMetric("only_zero", 7);
  co_await ctx.Sleep();
}

// The accessors answer from a linear scan on small runs and from a lazily
// built one-pass index on large ones; both paths must agree on the same
// semantics (max across nodes for marks, node order for metrics).
void CheckReportAccessors(std::int32_t num_active) {
  EngineConfig c = Config(num_active, 1);
  c.stop_when_solved = false;
  const RunResult r = Engine::Run(c, [](NodeContext& ctx) {
    return MarkAndMeasure(ctx);
  });
  ASSERT_EQ(r.node_reports.size(), static_cast<std::size_t>(num_active));

  EXPECT_EQ(r.LastPhaseMark("ready"), num_active - 1);
  EXPECT_EQ(r.LastPhaseMark("missing"), -1);

  const std::vector<std::int64_t> twice = r.MetricValues("twice_index");
  ASSERT_EQ(twice.size(), static_cast<std::size_t>(num_active));
  for (std::int32_t i = 0; i < num_active; ++i) {
    EXPECT_EQ(twice[static_cast<std::size_t>(i)], 2 * i);  // node order
  }
  EXPECT_EQ(r.MetricValues("only_zero"), (std::vector<std::int64_t>{7}));
  EXPECT_TRUE(r.MetricValues("missing").empty());

  // Repeated queries (served from the cached index when large) agree.
  EXPECT_EQ(r.LastPhaseMark("ready"), num_active - 1);
  EXPECT_EQ(r.MetricValues("twice_index"), twice);
}

TEST(RunResultAccessors, SmallRunUsesLinearScan) { CheckReportAccessors(4); }

TEST(RunResultAccessors, LargeRunUsesIndex) { CheckReportAccessors(40); }

}  // namespace
}  // namespace crmc::sim
