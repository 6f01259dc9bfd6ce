// Unit tests for the MAC model: per-round resolution semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "mac/channel.h"
#include "mac/faults.h"
#include "mac/resolver.h"
#include "support/rng.h"

namespace crmc::mac {
namespace {

std::vector<Feedback> ResolveAll(Resolver& resolver,
                                 const std::vector<Action>& actions) {
  std::vector<Feedback> fb;
  resolver.Resolve(actions, fb);
  return fb;
}

TEST(Resolver, SilenceWhenNobodyTransmits) {
  Resolver r(4);
  const auto fb = ResolveAll(r, {Action::Listen(1), Action::Listen(1)});
  EXPECT_TRUE(fb[0].Silence());
  EXPECT_TRUE(fb[1].Silence());
}

TEST(Resolver, LoneTransmitterDeliversMessageToEveryone) {
  Resolver r(4);
  const auto fb = ResolveAll(
      r, {Action::Transmit(2, Message{99}), Action::Listen(2),
          Action::Listen(2)});
  // The transmitter hears its own message back (strong CD semantics).
  EXPECT_TRUE(fb[0].MessageHeard());
  EXPECT_EQ(fb[0].message.payload, 99u);
  EXPECT_TRUE(fb[1].MessageHeard());
  EXPECT_EQ(fb[1].message.payload, 99u);
  EXPECT_TRUE(fb[2].MessageHeard());
}

TEST(Resolver, TwoTransmittersCollide) {
  Resolver r(4);
  const auto fb =
      ResolveAll(r, {Action::Transmit(3), Action::Transmit(3),
                     Action::Listen(3)});
  EXPECT_TRUE(fb[0].Collision());
  EXPECT_TRUE(fb[1].Collision());
  EXPECT_TRUE(fb[2].Collision());
}

TEST(Resolver, ChannelsAreIndependent) {
  Resolver r(4);
  const auto fb = ResolveAll(
      r, {Action::Transmit(1, Message{7}), Action::Transmit(2),
          Action::Transmit(2), Action::Listen(3), Action::Listen(4)});
  EXPECT_TRUE(fb[0].MessageHeard());
  EXPECT_TRUE(fb[1].Collision());
  EXPECT_TRUE(fb[2].Collision());
  EXPECT_TRUE(fb[3].Silence());
  EXPECT_TRUE(fb[4].Silence());
}

TEST(Resolver, IdleNodesObserveNothing) {
  Resolver r(2);
  const auto fb = ResolveAll(r, {Action::Idle(), Action::Transmit(1)});
  EXPECT_TRUE(fb[0].Silence());
  EXPECT_TRUE(fb[1].MessageHeard());
}

TEST(Resolver, SummaryCountsPrimaryTransmitters) {
  Resolver r(3);
  std::vector<Feedback> fb;
  const RoundSummary s1 = r.Resolve(
      std::vector<Action>{Action::Transmit(1), Action::Transmit(2),
                          Action::Listen(1)},
      fb);
  EXPECT_EQ(s1.primary_transmitters, 1);
  EXPECT_EQ(s1.total_transmissions, 2);
  EXPECT_EQ(s1.total_participants, 3);

  const RoundSummary s2 = r.Resolve(
      std::vector<Action>{Action::Transmit(1), Action::Transmit(1)}, fb);
  EXPECT_EQ(s2.primary_transmitters, 2);
}

TEST(Resolver, StateResetsBetweenRounds) {
  Resolver r(2);
  std::vector<Feedback> fb;
  r.Resolve(std::vector<Action>{Action::Transmit(1), Action::Transmit(1)},
            fb);
  EXPECT_TRUE(fb[0].Collision());
  r.Resolve(std::vector<Action>{Action::Listen(1), Action::Listen(1)}, fb);
  EXPECT_TRUE(fb[0].Silence());
  EXPECT_TRUE(fb[1].Silence());
}

TEST(Resolver, ActivityOfReportsCounts) {
  Resolver r(3);
  std::vector<Feedback> fb;
  r.Resolve(std::vector<Action>{Action::Transmit(2), Action::Listen(2),
                                Action::Listen(2)},
            fb);
  EXPECT_EQ(r.ActivityOf(2).transmitters, 1);
  EXPECT_EQ(r.ActivityOf(2).listeners, 2);
  EXPECT_EQ(r.ActivityOf(1).transmitters, 0);
}

TEST(Resolver, RejectsZeroChannels) {
  EXPECT_THROW(Resolver(0), std::invalid_argument);
}

TEST(Resolver, ManyTransmittersStillCollision) {
  Resolver r(1);
  std::vector<Action> actions(50, Action::Transmit(1));
  std::vector<Feedback> fb;
  r.Resolve(actions, fb);
  for (const Feedback& f : fb) EXPECT_TRUE(f.Collision());
}

// The resolver clears only the channels the *previous* round touched. A
// channel that collided in round 1 and has no transmitter in round 2 must
// come back clean: no stale activity in feedback, touched_channels, or
// ActivityOf. (BatchEngine leans on this: it hands the resolver a different
// alive-prefix of actions every round and reuses it across whole trials.)
TEST(Resolver, ScratchStateDoesNotLeakAcrossRounds) {
  Resolver r(8);
  std::vector<Feedback> fb;
  // Round 1: collision on channel 5, lone message on channel 2.
  r.Resolve(std::vector<Action>{Action::Transmit(5), Action::Transmit(5),
                                Action::Transmit(2, Message{9})},
            fb);
  ASSERT_EQ(r.touched_channels().size(), 2u);
  EXPECT_TRUE(fb[0].Collision());

  // Round 2: nobody transmits on 5; a fresh listener there must observe
  // silence, not round-1's collision, and channel 2 must be forgotten.
  const RoundSummary s = r.Resolve(
      std::vector<Action>{Action::Listen(5), Action::Transmit(7)}, fb);
  EXPECT_TRUE(fb[0].Silence());
  EXPECT_TRUE(fb[1].MessageHeard());
  EXPECT_EQ(s.total_transmissions, 1);
  EXPECT_EQ(r.touched_channels(), (std::vector<ChannelId>{5, 7}));
  EXPECT_EQ(r.ActivityOf(5).transmitters, 0);
  EXPECT_EQ(r.ActivityOf(5).listeners, 1);
  EXPECT_EQ(r.ActivityOf(2).transmitters, 0);
  EXPECT_EQ(r.ActivityOf(2).listeners, 0);
}

// ---------------------------------------------------------------------------
// CdModel::kReceiverOnly edge cases: half-duplex radios never sense their
// own channel, so a transmitter learns nothing — even when it is the lone
// sender, and even when there is nobody listening at all.
// ---------------------------------------------------------------------------

TEST(ResolverReceiverOnly, LoneTransmitterObservesNothing) {
  Resolver r(4, CdModel::kReceiverOnly);
  const auto fb = ResolveAll(
      r, {Action::Transmit(1, Message{42}), Action::Listen(1)});
  // The sender's own message was delivered, but half-duplex hardware
  // reports the blank default observation (reads as silence) to it.
  EXPECT_TRUE(fb[0].Silence());
  EXPECT_EQ(fb[0].message.payload, 0u);
  // The listener still hears the message: receiving is unimpaired.
  EXPECT_TRUE(fb[1].MessageHeard());
  EXPECT_EQ(fb[1].message.payload, 42u);
}

TEST(ResolverReceiverOnly, TwoTransmittersZeroListeners) {
  Resolver r(4, CdModel::kReceiverOnly);
  const auto fb =
      ResolveAll(r, {Action::Transmit(2), Action::Transmit(2)});
  // A collision happened, but with no receivers on the channel *nobody*
  // observes it; both colliders read blank feedback.
  EXPECT_TRUE(fb[0].Silence());
  EXPECT_TRUE(fb[1].Silence());
  EXPECT_FALSE(fb[0].Collision());
  EXPECT_FALSE(fb[1].Collision());
  // The model-level summary still knows the truth (solved-detection is
  // engine ground truth, not node observation).
  EXPECT_EQ(r.ActivityOf(2).transmitters, 2);
}

TEST(ResolverReceiverOnly, ListenerStillSeesCollision) {
  Resolver r(4, CdModel::kReceiverOnly);
  const auto fb = ResolveAll(
      r, {Action::Transmit(3), Action::Transmit(3), Action::Listen(3)});
  EXPECT_TRUE(fb[0].Silence());
  EXPECT_TRUE(fb[1].Silence());
  EXPECT_TRUE(fb[2].Collision());
}

// Pristine-path invariants of the new RoundSummary delivery fields.
TEST(Resolver, SummaryCountsLoneDeliveries) {
  Resolver r(4);
  std::vector<Feedback> fb;
  const RoundSummary s = r.Resolve(
      std::vector<Action>{Action::Transmit(1), Action::Transmit(2),
                          Action::Transmit(3), Action::Transmit(3)},
      fb);
  EXPECT_EQ(s.lone_deliveries, 2);  // channels 1 and 2; 3 collided
  EXPECT_TRUE(s.primary_lone_delivered);

  const RoundSummary s2 = r.Resolve(
      std::vector<Action>{Action::Transmit(1), Action::Transmit(1)}, fb);
  EXPECT_EQ(s2.lone_deliveries, 0);
  EXPECT_FALSE(s2.primary_lone_delivered);
}

// Tally is Resolve minus the feedback write. Two resolvers fed the same
// random rounds — one resolving, one tallying, each with its own injector on
// the same seed — must agree on the summary, the channel activity and every
// fault counter, and their injectors must stay in step afterwards (a missed
// CD-flip draw would shift every later fault).
TEST(Resolver, TallyMatchesResolve) {
  FaultSpec jam;
  jam.jam_rate = 0.3;
  FaultSpec erasure;
  erasure.erasure_rate = 0.4;
  FaultSpec flaky;
  flaky.flaky_cd_rate = 0.25;
  FaultSpec mixed;
  mixed.jam_rate = 0.15;
  mixed.erasure_rate = 0.3;
  mixed.flaky_cd_rate = 0.2;
  const FaultSpec specs[] = {FaultSpec{}, jam, erasure, flaky, mixed};
  std::uint64_t seed = 0;
  for (const std::int32_t channels : {1, 4, 64}) {
    for (const CdModel model :
         {CdModel::kStrong, CdModel::kReceiverOnly, CdModel::kNone}) {
      for (const FaultSpec& spec : specs) {
        for (const bool adversary : {false, true}) {
          ++seed;
          SCOPED_TRACE(::testing::Message()
                       << "C=" << channels << " model "
                       << static_cast<int>(model) << " jam " << spec.jam_rate
                       << " erasure " << spec.erasure_rate << " flaky "
                       << spec.flaky_cd_rate << " adversary " << adversary);
          Resolver resolved(channels, model);
          Resolver tallied(channels, model);
          FaultInjector resolve_faults(spec, seed);
          FaultInjector tally_faults(spec, seed);
          support::RandomSource rng(seed);
          std::vector<Action> actions;
          std::vector<Feedback> feedback;
          std::vector<ChannelId> jams;
          for (std::int32_t round = 0; round < 200; ++round) {
            actions.clear();
            const std::int64_t m = rng.UniformInt(0, 12);  // 0: backoff
            for (std::int64_t i = 0; i < m; ++i) {
              const auto ch =
                  static_cast<ChannelId>(rng.UniformInt(1, channels));
              switch (rng.UniformInt(0, 2)) {
                case 0:
                  actions.push_back(Action::Idle());
                  break;
                case 1:
                  actions.push_back(Action::Listen(ch));
                  break;
                default:
                  actions.push_back(Action::Transmit(
                      ch, Message{static_cast<std::uint64_t>(round * 16 + i)}));
              }
            }
            jams.clear();
            const std::int64_t jam_count =
                adversary ? rng.UniformInt(0, std::min(channels, 3)) : 0;
            while (static_cast<std::int64_t>(jams.size()) < jam_count) {
              const auto ch =
                  static_cast<ChannelId>(rng.UniformInt(1, channels));
              if (std::find(jams.begin(), jams.end(), ch) == jams.end()) {
                jams.push_back(ch);
              }
            }

            const RoundSummary want =
                resolved.Resolve(actions, feedback, &resolve_faults, jams);
            const RoundSummary got =
                tallied.Tally(actions, &tally_faults, jams);
            EXPECT_EQ(got.total_transmissions, want.total_transmissions);
            EXPECT_EQ(got.total_participants, want.total_participants);
            EXPECT_EQ(got.primary_transmitters, want.primary_transmitters);
            EXPECT_EQ(got.lone_deliveries, want.lone_deliveries);
            EXPECT_EQ(got.primary_lone_delivered, want.primary_lone_delivered);
            EXPECT_EQ(got.adv_jams, want.adv_jams);
            EXPECT_EQ(got.adv_jams_effective, want.adv_jams_effective);
            EXPECT_EQ(tallied.touched_channels(), resolved.touched_channels());
            for (ChannelId ch = 1; ch <= channels; ++ch) {
              const ChannelActivity& a = tallied.ActivityOf(ch);
              const ChannelActivity& b = resolved.ActivityOf(ch);
              EXPECT_EQ(a.transmitters, b.transmitters);
              EXPECT_EQ(a.listeners, b.listeners);
              EXPECT_EQ(a.lone_message, b.lone_message);
            }
            const FaultCounters& tc = tally_faults.counters();
            const FaultCounters& rc = resolve_faults.counters();
            EXPECT_EQ(tc.jams, rc.jams);
            EXPECT_EQ(tc.erasures, rc.erasures);
            EXPECT_EQ(tc.cd_flips, rc.cd_flips);
          }
          for (int draw = 0; draw < 64; ++draw) {
            EXPECT_EQ(tally_faults.DrawJam(), resolve_faults.DrawJam());
            EXPECT_EQ(tally_faults.DrawErasure(), resolve_faults.DrawErasure());
            EXPECT_EQ(tally_faults.DrawCdFlip(), resolve_faults.DrawCdFlip());
          }
        }
      }
    }
  }
}

// Retally judges the most recent round's activity again. One Tally followed
// by k Retally calls must equal k Tally calls on the same actions — the
// summaries, the channel activity, every fault counter and the next draw of
// each stream — and a Resolve on different actions afterwards must see no
// stale fault mark, whatever jam sets (empty ones, and ones on channels no
// node touched) the train ran under.
TEST(Resolver, RetallyMatchesTally) {
  FaultSpec jam;
  jam.jam_rate = 0.3;
  FaultSpec erasure;
  erasure.erasure_rate = 0.4;
  FaultSpec flaky;
  flaky.flaky_cd_rate = 0.25;
  FaultSpec combined;
  combined.jam_rate = 0.15;
  combined.erasure_rate = 0.3;
  combined.flaky_cd_rate = 0.2;
  const FaultSpec specs[] = {FaultSpec{}, jam, erasure, flaky, combined};
  const auto expect_same_round = [](const RoundSummary& got,
                                    const RoundSummary& want) {
    EXPECT_EQ(got.total_transmissions, want.total_transmissions);
    EXPECT_EQ(got.total_participants, want.total_participants);
    EXPECT_EQ(got.primary_transmitters, want.primary_transmitters);
    EXPECT_EQ(got.lone_deliveries, want.lone_deliveries);
    EXPECT_EQ(got.primary_lone_delivered, want.primary_lone_delivered);
    EXPECT_EQ(got.adv_jams, want.adv_jams);
    EXPECT_EQ(got.adv_jams_effective, want.adv_jams_effective);
  };
  const auto expect_same_counters = [](const FaultInjector& a,
                                       const FaultInjector& b) {
    EXPECT_EQ(a.counters().jams, b.counters().jams);
    EXPECT_EQ(a.counters().erasures, b.counters().erasures);
    EXPECT_EQ(a.counters().cd_flips, b.counters().cd_flips);
  };
  std::uint64_t seed = 100;
  for (const std::int32_t channels : {1, 4, 64}) {
    for (const CdModel model :
         {CdModel::kStrong, CdModel::kReceiverOnly, CdModel::kNone}) {
      for (const FaultSpec& spec : specs) {
        ++seed;
        SCOPED_TRACE(::testing::Message()
                     << "C=" << channels << " model "
                     << static_cast<int>(model) << " jam " << spec.jam_rate
                     << " erasure " << spec.erasure_rate << " flaky "
                     << spec.flaky_cd_rate);
        Resolver retallied(channels, model);
        Resolver tallied(channels, model);
        FaultInjector retally_faults(spec, seed);
        FaultInjector tally_faults(spec, seed);
        support::RandomSource rng(seed);
        std::vector<Action> actions;
        std::vector<Feedback> feedback;
        std::vector<Feedback> want_feedback;
        // Up to three distinct channels, drawn over all C channels, so a
        // jam often lands where no node is.
        const auto random_jams = [&] {
          std::vector<ChannelId> jams;
          const std::int64_t count = rng.UniformInt(0, std::min(channels, 3));
          while (static_cast<std::int64_t>(jams.size()) < count) {
            const auto ch = static_cast<ChannelId>(rng.UniformInt(1, channels));
            if (std::find(jams.begin(), jams.end(), ch) == jams.end()) {
              jams.push_back(ch);
            }
          }
          return jams;
        };
        const auto random_actions = [&](std::int32_t round) {
          actions.clear();
          const std::int64_t m = rng.UniformInt(0, 12);
          for (std::int64_t i = 0; i < m; ++i) {
            const auto ch = static_cast<ChannelId>(rng.UniformInt(1, channels));
            switch (rng.UniformInt(0, 2)) {
              case 0:
                actions.push_back(Action::Idle());
                break;
              case 1:
                actions.push_back(Action::Listen(ch));
                break;
              default:
                actions.push_back(Action::Transmit(
                    ch, Message{static_cast<std::uint64_t>(round * 16 + i)}));
            }
          }
        };
        for (std::int32_t train = 0; train < 60; ++train) {
          random_actions(train);
          const std::int64_t k = rng.UniformInt(1, 8);
          for (std::int64_t rep = 0; rep < k; ++rep) {
            const std::vector<ChannelId> jams = random_jams();
            const RoundSummary want =
                tallied.Tally(actions, &tally_faults, jams);
            const RoundSummary got =
                rep == 0 ? retallied.Tally(actions, &retally_faults, jams)
                         : retallied.Retally(&retally_faults, jams);
            expect_same_round(got, want);
            EXPECT_EQ(retallied.touched_channels(), tallied.touched_channels());
            for (ChannelId ch = 1; ch <= channels; ++ch) {
              const ChannelActivity& a = retallied.ActivityOf(ch);
              const ChannelActivity& b = tallied.ActivityOf(ch);
              EXPECT_EQ(a.transmitters, b.transmitters);
              EXPECT_EQ(a.listeners, b.listeners);
              EXPECT_EQ(a.lone_message, b.lone_message);
            }
            expect_same_counters(retally_faults, tally_faults);
          }
          // The next round is a fresh Resolve on other actions: a fault
          // mark the train left behind would show in its feedback.
          random_actions(1000 + train);
          const std::vector<ChannelId> jams = random_jams();
          const RoundSummary want =
              tallied.Resolve(actions, want_feedback, &tally_faults, jams);
          const RoundSummary got =
              retallied.Resolve(actions, feedback, &retally_faults, jams);
          expect_same_round(got, want);
          ASSERT_EQ(feedback.size(), want_feedback.size());
          for (std::size_t i = 0; i < feedback.size(); ++i) {
            EXPECT_EQ(feedback[i].observation, want_feedback[i].observation);
            EXPECT_EQ(feedback[i].message, want_feedback[i].message);
          }
          expect_same_counters(retally_faults, tally_faults);
        }
        for (int draw = 0; draw < 64; ++draw) {
          EXPECT_EQ(retally_faults.DrawJam(), tally_faults.DrawJam());
          EXPECT_EQ(retally_faults.DrawErasure(), tally_faults.DrawErasure());
          EXPECT_EQ(retally_faults.DrawCdFlip(), tally_faults.DrawCdFlip());
        }
      }
    }
  }
}

// Retally keeps the judgement of a round judged with no active injector
// and returns it when the next jam list equals the previous one. Trains of
// Retally calls, each train repeating one jam list, must equal fresh Tally
// calls on the same actions — summaries, channel activity, fault counters
// and the next draws of every stream — for every list shape: empty, a jam
// on a channel no node touched, several channels, the same set in another
// order, a shorter list that is a prefix of the previous one. Each runs
// with no injector, an inactive one and an active one (which must draw
// again every round), and a Resolve in between must never hit the kept
// judgement.
TEST(Resolver, RepeatedRetallyMatchesTally) {
  constexpr std::int32_t kChannels = 8;
  // Channel 1 holds a lone transmitter, 2 a collision, 3 another lone one,
  // 4 listeners only; 5-8 stay untouched.
  const std::vector<Action> actions = {
      Action::Transmit(1, Message{11}), Action::Listen(1),
      Action::Transmit(2),              Action::Transmit(2),
      Action::Transmit(3, Message{33}), Action::Listen(4),
      Action::Idle(),                   Action::Listen(4)};
  // Every node listens on the primary: a different summary from `actions`.
  const std::vector<Action> other = {Action::Listen(1), Action::Listen(1),
                                     Action::Transmit(5)};
  // Shrinking lists first: a list that is a prefix of the previous one
  // must not pass for it.
  const std::vector<std::vector<ChannelId>> trains = {
      {1, 3, 6}, {1, 3}, {1}, {}, {6}, {3, 1}, {1, 3}, {2}, {2, 7},
      {7, 2}, {7}, {}};
  FaultSpec active;
  active.jam_rate = 0.2;
  active.erasure_rate = 0.3;
  active.flaky_cd_rate = 0.25;
  enum class Injector { kNone, kInactive, kActive };
  const auto expect_same_round = [](const RoundSummary& got,
                                    const RoundSummary& want) {
    EXPECT_EQ(got.total_transmissions, want.total_transmissions);
    EXPECT_EQ(got.total_participants, want.total_participants);
    EXPECT_EQ(got.primary_transmitters, want.primary_transmitters);
    EXPECT_EQ(got.lone_deliveries, want.lone_deliveries);
    EXPECT_EQ(got.primary_lone_delivered, want.primary_lone_delivered);
    EXPECT_EQ(got.adv_jams, want.adv_jams);
    EXPECT_EQ(got.adv_jams_effective, want.adv_jams_effective);
  };
  std::uint64_t seed = 500;
  for (const CdModel model : {CdModel::kStrong, CdModel::kNone}) {
    for (const Injector kind :
         {Injector::kNone, Injector::kInactive, Injector::kActive}) {
      ++seed;
      SCOPED_TRACE(::testing::Message() << "model " << static_cast<int>(model)
                                        << " injector "
                                        << static_cast<int>(kind));
      const FaultSpec spec = kind == Injector::kActive ? active : FaultSpec{};
      FaultInjector retally_injector(spec, seed);
      FaultInjector tally_injector(spec, seed);
      FaultInjector* const retally_faults =
          kind == Injector::kNone ? nullptr : &retally_injector;
      FaultInjector* const tally_faults =
          kind == Injector::kNone ? nullptr : &tally_injector;
      Resolver retallied(kChannels, model);
      Resolver tallied(kChannels, model);
      const auto expect_same_state = [&] {
        EXPECT_EQ(retallied.touched_channels(), tallied.touched_channels());
        for (ChannelId ch = 1; ch <= kChannels; ++ch) {
          const ChannelActivity& a = retallied.ActivityOf(ch);
          const ChannelActivity& b = tallied.ActivityOf(ch);
          EXPECT_EQ(a.transmitters, b.transmitters);
          EXPECT_EQ(a.listeners, b.listeners);
          EXPECT_EQ(a.lone_message, b.lone_message);
        }
        const FaultCounters& rc = retally_injector.counters();
        const FaultCounters& tc = tally_injector.counters();
        EXPECT_EQ(rc.jams, tc.jams);
        EXPECT_EQ(rc.erasures, tc.erasures);
        EXPECT_EQ(rc.cd_flips, tc.cd_flips);
      };
      std::vector<Feedback> feedback;
      std::vector<Feedback> want_feedback;
      for (int pass = 0; pass < 2; ++pass) {
        // The first round of each pass is tallied; every later one is a
        // Retally, trains of five per jam list.
        bool first = true;
        for (const std::vector<ChannelId>& jams : trains) {
          SCOPED_TRACE(::testing::Message() << "pass " << pass << " jams "
                                            << ::testing::PrintToString(jams));
          for (int rep = 0; rep < 5; ++rep) {
            const RoundSummary want =
                tallied.Tally(actions, tally_faults, jams);
            const RoundSummary got =
                first ? retallied.Tally(actions, retally_faults, jams)
                      : retallied.Retally(retally_faults, jams);
            first = false;
            expect_same_round(got, want);
            expect_same_state();
          }
        }
        // A Resolve on other actions under the train's last jam list: the
        // Retally right after judges those actions, not the kept summary.
        const std::vector<ChannelId> jams = trains.back();
        expect_same_round(
            retallied.Resolve(other, feedback, retally_faults, jams),
            tallied.Resolve(other, want_feedback, tally_faults, jams));
        expect_same_round(retallied.Retally(retally_faults, jams),
                          tallied.Tally(other, tally_faults, jams));
        expect_same_state();
      }
      for (int draw = 0; draw < 64; ++draw) {
        EXPECT_EQ(retally_injector.DrawJam(), tally_injector.DrawJam());
        EXPECT_EQ(retally_injector.DrawErasure(), tally_injector.DrawErasure());
        EXPECT_EQ(retally_injector.DrawCdFlip(), tally_injector.DrawCdFlip());
      }
    }
  }
}

}  // namespace
}  // namespace crmc::mac
