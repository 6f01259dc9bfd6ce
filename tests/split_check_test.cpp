// core::SplitCheck against a stepped SplitCheck (Section 4, Step 2).
//
// The reference below plays a TwoActive run round by round from the
// paper's description: the rename collisions, the rename round, the binary
// search over levels (both nodes transmit on channel ceil(id / 2^(h - m))
// and a collision means the level-m ancestor is shared), then the final
// round, where the node whose level-split ancestor is a left child
// broadcasts alone on the primary channel. It reports the run the way the
// round loop does. Every ordered pair of distinct labels is checked for
// tree heights 1 through 10; for heights up to 6 every max_rounds cut from
// the rename round through the end of the run is checked too.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "core/split_check.h"

namespace crmc::core {
namespace {

struct SteppedRun {
  std::int64_t rounds = 0;
  std::int64_t stall = 0;
  std::int64_t solved_round = -1;
  std::vector<std::int64_t> primary_rounds;
  std::array<std::int64_t, 2> node_tx{};
  bool terminated = false;
  bool timed_out = false;
};

// The run whose two nodes collide in rounds [0, rename_round) and draw the
// labels id0 != id1 in round rename_round, cut at max_rounds.
SteppedRun StepSplitCheck(std::int32_t height, std::int32_t id0,
                          std::int32_t id1, std::int64_t rename_round,
                          std::int64_t max_rounds, bool stop_when_solved) {
  // ceil(id / 2^(h - m)): the level-m ancestor's position within its level.
  const auto position = [&](std::int32_t id, std::int32_t level) {
    const std::int32_t width = std::int32_t{1} << (height - level);
    return (id + width - 1) / width;
  };
  // Each round's channel per node; 0 listens.
  std::vector<std::array<std::int32_t, 2>> schedule(
      static_cast<std::size_t>(rename_round), {1, 1});
  schedule.push_back({id0, id1});
  std::int32_t lo = 0;
  std::int32_t hi = height;
  while (lo < hi) {
    const std::int32_t mid = (lo + hi) / 2;
    const std::int32_t c0 = position(id0, mid);
    const std::int32_t c1 = position(id1, mid);
    schedule.push_back({c0, c1});
    if (c0 == c1) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  // Odd positions are left children.
  const bool node0_left = position(id0, lo) % 2 == 1;
  schedule.push_back(node0_left ? std::array<std::int32_t, 2>{1, 0}
                                : std::array<std::int32_t, 2>{0, 1});

  SteppedRun run;
  for (std::int64_t round = 0; round < max_rounds; ++round) {
    const auto& ch = schedule[static_cast<std::size_t>(round)];
    bool lone = false;
    bool primary = false;
    for (int v = 0; v < 2; ++v) {
      if (ch[v] == 0) continue;
      ++run.node_tx[v];
      if (ch[1 - v] != ch[v]) {
        lone = true;
        primary = primary || ch[v] == 1;
      }
    }
    if (primary) {
      if (run.solved_round < 0) run.solved_round = round;
      run.primary_rounds.push_back(round);
    }
    const bool last = static_cast<std::size_t>(round) + 1 == schedule.size();
    if (run.solved_round >= 0 && stop_when_solved) {
      run.rounds = round + 1;  // the stall streak it met stands
      return run;
    }
    if (last) {
      run.rounds = round + 1;
      run.stall = 0;
      run.terminated = true;
      return run;
    }
    run.stall = lone ? 0 : run.stall + 1;
  }
  run.rounds = max_rounds;
  run.timed_out = true;
  return run;
}

// The closed form's answer for the same run, spelled out as SteppedRun.
SteppedRun Closed(const SplitCheck& split, std::int32_t id0,
                  std::int32_t id1, std::int64_t rename_round,
                  std::int64_t max_rounds, bool stop_when_solved) {
  SteppedRun run;
  const TwoActiveOutcome o =
      split.Finish(id0, id1, rename_round, max_rounds, stop_when_solved,
                   std::span<std::int64_t, 2>(run.node_tx));
  run.rounds = o.rounds;
  run.stall = o.stall;
  run.solved_round = o.solved_round;
  for (std::uint32_t m = o.primary; m != 0; m &= m - 1) {
    run.primary_rounds.push_back(o.solved_round + std::countr_zero(m));
  }
  run.terminated = o.terminated;
  run.timed_out = o.timed_out;
  return run;
}

::testing::AssertionResult SameRun(const SteppedRun& want,
                                   const SteppedRun& got) {
  if (want.rounds == got.rounds && want.stall == got.stall &&
      want.solved_round == got.solved_round &&
      want.primary_rounds == got.primary_rounds &&
      want.node_tx == got.node_tx && want.terminated == got.terminated &&
      want.timed_out == got.timed_out) {
    return ::testing::AssertionSuccess();
  }
  auto print = [](const SteppedRun& r) {
    std::string primary;
    for (const std::int64_t p : r.primary_rounds) {
      primary += std::to_string(p) + " ";
    }
    return "rounds=" + std::to_string(r.rounds) +
           " stall=" + std::to_string(r.stall) +
           " solved_round=" + std::to_string(r.solved_round) +
           " primary=[" + primary + "] tx=" + std::to_string(r.node_tx[0]) +
           "," + std::to_string(r.node_tx[1]) +
           " terminated=" + std::to_string(r.terminated) +
           " timed_out=" + std::to_string(r.timed_out);
  };
  return ::testing::AssertionFailure()
         << "stepped: " << print(want) << "\nclosed:  " << print(got);
}

TEST(SplitCheck, MatchesSteppedRunForEveryLabelPair) {
  for (std::int32_t height = 1; height <= 10; ++height) {
    const SplitCheck split(height);
    const std::int32_t leaves = std::int32_t{1} << height;
    for (std::int32_t id0 = 1; id0 <= leaves; ++id0) {
      for (std::int32_t id1 = 1; id1 <= leaves; ++id1) {
        if (id0 == id1) continue;
        const std::int64_t rename_round = (id0 + 2 * id1) % 3;
        for (const bool stop : {true, false}) {
          const std::int64_t uncut = rename_round + 64;
          ASSERT_TRUE(SameRun(
              StepSplitCheck(height, id0, id1, rename_round, uncut, stop),
              Closed(split, id0, id1, rename_round, uncut, stop)))
              << "h=" << height << " ids=" << id0 << "," << id1
              << " rename_round=" << rename_round << " stop=" << stop;
          if (height > 6) continue;
          // Every cut from the rename round through the end of the run.
          for (std::int64_t cut = rename_round + 1;
               cut <= rename_round + height + 3; ++cut) {
            ASSERT_TRUE(SameRun(
                StepSplitCheck(height, id0, id1, rename_round, cut, stop),
                Closed(split, id0, id1, rename_round, cut, stop)))
                << "h=" << height << " ids=" << id0 << "," << id1
                << " rename_round=" << rename_round << " stop=" << stop
                << " max_rounds=" << cut;
          }
        }
      }
    }
  }
}

// The smaller label is the final round's transmitter, and the solving
// round is the final one exactly when no earlier round delivered on the
// primary channel.
TEST(SplitCheck, SmallerLabelBroadcastsLast) {
  const SplitCheck split(4);
  std::array<std::int64_t, 2> tx{};
  const TwoActiveOutcome o = split.Finish(
      11, 9, 0, 100, /*stop_when_solved=*/true, std::span<std::int64_t, 2>(tx));
  // Labels 11 and 9 part at level 3: the level-2 probe collides, the
  // level-3 probe is lone off the primary channel, and label 9 broadcasts
  // in round 3.
  EXPECT_EQ(o.rounds, 4);
  EXPECT_EQ(o.solved_round, 3);
  EXPECT_EQ(o.primary, 1u);
  EXPECT_EQ(o.stall, 0);
  EXPECT_FALSE(o.terminated);
  EXPECT_EQ(tx[0], 3);
  EXPECT_EQ(tx[1], 4);
}

}  // namespace
}  // namespace crmc::core
