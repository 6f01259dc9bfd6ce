// Tests for the collision-detection model variants (Section 2's taxonomy):
// resolver semantics under each model, and the ablation showing the
// paper's algorithms rely on *strong* CD specifically.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/two_active.h"
#include "support/assert.h"
#include "harness/registry.h"
#include "mac/channel.h"
#include "mac/resolver.h"
#include "sim/batch_engine.h"
#include "sim/engine.h"
#include "sim/step_program.h"

namespace crmc {
namespace {

using mac::Action;
using mac::CdModel;
using mac::Feedback;
using mac::Message;
using mac::Resolver;

std::vector<Feedback> ResolveAll(Resolver& resolver,
                                 const std::vector<Action>& actions) {
  std::vector<Feedback> fb;
  resolver.Resolve(actions, fb);
  return fb;
}

TEST(CdModels, ReceiverOnlyBlindsTransmitters) {
  Resolver r(2, CdModel::kReceiverOnly);
  // Lone transmitter: receivers get the message, the transmitter nothing.
  auto fb = ResolveAll(r, {Action::Transmit(1, Message{9}),
                           Action::Listen(1)});
  EXPECT_TRUE(fb[0].Silence());  // transmitter learns nothing
  EXPECT_TRUE(fb[1].MessageHeard());
  EXPECT_EQ(fb[1].message.payload, 9u);
  // Collision: receivers do detect it.
  fb = ResolveAll(r, {Action::Transmit(1), Action::Transmit(1),
                      Action::Listen(1)});
  EXPECT_TRUE(fb[0].Silence());
  EXPECT_TRUE(fb[1].Silence());
  EXPECT_TRUE(fb[2].Collision());
}

TEST(CdModels, NoCdCollisionsReadAsSilence) {
  Resolver r(2, CdModel::kNone);
  auto fb = ResolveAll(r, {Action::Transmit(1), Action::Transmit(1),
                           Action::Listen(1)});
  EXPECT_TRUE(fb[0].Silence());
  EXPECT_TRUE(fb[1].Silence());
  EXPECT_TRUE(fb[2].Silence());  // collision indistinguishable from idle
  // A clean message still gets through.
  fb = ResolveAll(r, {Action::Transmit(2, Message{5}), Action::Listen(2)});
  EXPECT_TRUE(fb[0].Silence());
  EXPECT_TRUE(fb[1].MessageHeard());
}

TEST(CdModels, SolvedDetectionIsModelIndependent) {
  // "Solved" is defined by transmissions, not by what nodes perceive.
  for (const CdModel model :
       {CdModel::kStrong, CdModel::kReceiverOnly, CdModel::kNone}) {
    sim::EngineConfig config;
    config.num_active = 1;
    config.channels = 1;
    config.seed = 1;
    config.cd_model = model;
    const sim::RunResult r = sim::Engine::Run(
        config, [](sim::NodeContext& ctx) -> sim::ProtocolTask {
          co_await ctx.Transmit(mac::kPrimaryChannel);
        });
    EXPECT_TRUE(r.solved) << ToString(model);
    EXPECT_EQ(r.solved_round, 0);
  }
}

// The ablation: TwoActive needs transmitter-side CD. Under receiver-only
// CD a transmitter reads its own transmission back as silence — feedback
// that is impossible in the model the algorithm was designed for — and the
// protocol detects the broken assumption and aborts the run. Under strong
// CD the same seeds always solve.
TEST(CdAblation, TwoActiveRequiresStrongCd) {
  constexpr int kSeeds = 40;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    sim::EngineConfig config;
    config.num_active = 2;
    config.population = 1 << 16;
    config.channels = 64;
    config.seed = seed;
    config.max_rounds = 200;  // ~20x the strong-CD completion time
    config.cd_model = CdModel::kStrong;
    EXPECT_TRUE(sim::Engine::Run(config, core::MakeTwoActive()).solved)
        << "seed=" << seed;
    config.cd_model = CdModel::kReceiverOnly;
    EXPECT_THROW(sim::Engine::Run(config, core::MakeTwoActive()),
                 support::ProtocolAssumptionViolation)
        << "seed=" << seed;
  }
}

// The same ablation on two_active's step program, which reports the broken
// assumption as a result rather than throwing it: with no adversarial layer
// a breach is a bug, so BatchEngine raises it as the exception the
// coroutine throws, naming the failing check and where it is.
TEST(CdAblation, TwoActiveStepProgramRaisesBreach) {
  const auto program = sim::MakeTwoActiveProgram();
  sim::BatchEngine engine;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    sim::EngineConfig config;
    config.num_active = 2;
    config.population = 1 << 16;
    config.channels = 64;
    config.seed = seed;
    config.max_rounds = 200;
    config.cd_model = CdModel::kReceiverOnly;
    try {
      engine.Run(config, *program);
      ADD_FAILURE() << "no breach, seed=" << seed;
    } catch (const support::ProtocolAssumptionViolation& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("protocol model assumption violated: "
                           "!fb.Silence() at ",
                           0),
                0u)
          << what;
      EXPECT_NE(what.find("step_program.cpp:"), std::string::npos) << what;
      ASSERT_NE(e.where().expr, nullptr);
      EXPECT_STREQ(e.where().expr, "!fb.Silence()");
      EXPECT_EQ(e.where().thrown, nullptr);
    }
  }
}

// With an adversary active the same breach is what the adversarial layer
// broke: the run ends with assumption_violated (a static robust policy
// with one epoch has no retry) and nothing is thrown, on the step program
// and on the coroutine alike, which reach the same result.
TEST(CdAblation, TwoActiveBreachUnderAdversaryAborts) {
  const auto program = sim::MakeTwoActiveProgram();
  sim::BatchEngine engine;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    sim::EngineConfig config;
    config.num_active = 2;
    config.population = 1 << 16;
    config.channels = 64;
    config.seed = seed;
    config.max_rounds = 200;
    config.cd_model = CdModel::kReceiverOnly;
    config.adversary.kind = adversary::Kind::kProbing;
    config.adversary.budget = 64;
    config.robust.enabled = true;
    config.robust.policy = robust::PolicyKind::kStatic;
    config.robust.max_epochs = 1;
    sim::RunResult batch;
    ASSERT_NO_THROW(batch = engine.Run(config, *program)) << "seed=" << seed;
    EXPECT_TRUE(batch.assumption_violated) << "seed=" << seed;
    EXPECT_FALSE(batch.solved) << "seed=" << seed;
    sim::RunResult coro;
    ASSERT_NO_THROW(coro = sim::Engine::Run(config, core::MakeTwoActive()))
        << "seed=" << seed;
    EXPECT_TRUE(coro.assumption_violated) << "seed=" << seed;
    EXPECT_EQ(coro.rounds_executed, batch.rounds_executed) << "seed=" << seed;
  }
}

// A breach raised after the fact reads exactly like the check's own throw:
// the static note takes its value, and a breach caught from a throw is
// rethrown unchanged.
TEST(CdAblation, ThrowBreachFormatsAndRethrows) {
  const support::AssumptionBreach breach{"x > 0", "proto.cpp", 12,
                                         "saw %lld nodes", 3};
  try {
    support::ThrowBreach(breach);
  } catch (const support::ProtocolAssumptionViolation& e) {
    EXPECT_STREQ(e.what(),
                 "protocol model assumption violated: x > 0 at proto.cpp:12 "
                 "(saw 3 nodes)");
    EXPECT_STREQ(e.where().expr, "x > 0");
    EXPECT_EQ(e.where().line, 12);
    std::exception_ptr thrown = std::current_exception();
    support::AssumptionBreach caught = e.where();
    caught.thrown = &thrown;
    try {
      support::ThrowBreach(caught);
    } catch (const support::ProtocolAssumptionViolation& again) {
      EXPECT_EQ(&again, &e);  // the same exception object
    }
  }
}

// The no-CD baselines only act on clean messages, so degrading the model
// from strong CD to none must not change their behaviour at all.
TEST(CdModels, NoCdBaselinesAreModelOblivious) {
  for (const char* name : {"decay_no_cd", "daum_multichannel_no_cd",
                           "expected_o1_multichannel"}) {
    const auto factory = harness::AlgorithmByName(name).make();
    sim::EngineConfig config;
    config.num_active = 50;
    config.population = 1 << 10;
    config.channels = 16;
    config.seed = 77;
    config.max_rounds = 500000;
    config.cd_model = CdModel::kStrong;
    const sim::RunResult strong = sim::Engine::Run(config, factory);
    config.cd_model = CdModel::kNone;
    const sim::RunResult none = sim::Engine::Run(config, factory);
    EXPECT_EQ(strong.solved_round, none.solved_round) << name;
    EXPECT_EQ(strong.total_transmissions, none.total_transmissions) << name;
  }
}

TEST(CdModels, NoCdStillSolvableByDecay) {
  sim::EngineConfig config;
  config.num_active = 100;
  config.population = 1 << 10;
  config.channels = 1;
  config.cd_model = CdModel::kNone;
  config.max_rounds = 500000;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    config.seed = seed;
    const sim::RunResult r = sim::Engine::Run(
        config, harness::AlgorithmByName("decay_no_cd").make());
    ASSERT_TRUE(r.solved) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace crmc
