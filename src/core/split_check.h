// TwoActive's SplitCheck in closed form (Section 4, Step 2).
//
// Once the two nodes of a TwoActive run hold distinct labels, the rest of
// the run draws nothing: SplitCheck's binary search probes a path of tree
// levels fixed by the split level alone (a probe at level m collides iff
// m < split), and the node whose label is smaller goes left at the split,
// so it broadcasts alone on the root. This header computes everything the
// round loop would report about that rest of the run from the two labels:
//   - the split level is h + 1 - bit_width((id0 - 1) ^ (id1 - 1));
//   - a probe at level m lands on the primary channel iff
//     m <= q = h - bit_width(min(id0, id1) - 1), so it delivers there iff
//     split <= m <= q (the rename round delivers there iff q == h, i.e.
//     one label is 1);
//   - the final round is a lone primary delivery by the smaller label.
// Per (split, q) the rounds of the rest of the run are one small bit
// pattern, tabulated once per tree height.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "support/assert.h"

namespace crmc::core {

// How a TwoActive run ends, in the round loop's terms.
struct TwoActiveOutcome {
  std::int64_t rounds = 0;         // rounds executed
  std::int64_t stall = 0;          // trailing stall streak at the end
  std::int64_t solved_round = -1;  // first lone primary delivery, or -1
  // Bit t set: a lone primary delivery in round solved_round + t.
  std::uint32_t primary = 0;
  bool terminated = false;  // both nodes finished
  bool timed_out = false;   // max_rounds cut the run
};

class SplitCheck {
 public:
  // SplitCheck over a tree of 2^height leaves (height >= 1).
  explicit SplitCheck(std::int32_t height) : height_(height) {
    CRMC_REQUIRE(height >= 1 && height <= 30);
    const auto q_count = static_cast<std::size_t>(height + 1);
    paths_.resize(static_cast<std::size_t>(height) * q_count);
    for (std::int32_t split = 1; split <= height; ++split) {
      for (std::int32_t q = 0; q <= height; ++q) {
        Path& p = paths_[static_cast<std::size_t>(split - 1) * q_count +
                         static_cast<std::size_t>(q)];
        p.lone = 1;  // the rename round: both nodes alone
        p.primary = q == height ? 1 : 0;
        std::int32_t lo = 0;
        std::int32_t hi = height;
        std::int32_t t = 0;
        while (lo < hi) {
          const std::int32_t mid = (lo + hi) / 2;
          ++t;
          if (mid < split) {
            lo = mid + 1;  // a collision
          } else {
            hi = mid;
            p.lone |= 1u << t;
            if (mid <= q) p.primary |= 1u << t;
          }
        }
        p.search_rounds = static_cast<std::uint8_t>(t);
        p.lone |= 1u << (t + 1);  // the final pair round
        p.primary |= 1u << (t + 1);
      }
    }
  }

  std::int32_t height() const { return height_; }

  // The run whose nodes drew distinct labels id0 != id1 (in [1, 2^height])
  // in round `rename_round`, every earlier round a rename collision, cut
  // at `max_rounds` (> rename_round) rounds. Writes each node's
  // transmissions to node_tx.
  TwoActiveOutcome Finish(std::int32_t id0, std::int32_t id1,
                          std::int64_t rename_round, std::int64_t max_rounds,
                          bool stop_when_solved,
                          std::span<std::int64_t, 2> node_tx) const {
    const auto a = static_cast<std::uint32_t>(id0 - 1);
    const auto b = static_cast<std::uint32_t>(id1 - 1);
    const std::int32_t split = height_ + 1 - std::bit_width(a ^ b);
    const std::int32_t q = height_ - std::bit_width(a < b ? a : b);
    const Path p = paths_[static_cast<std::size_t>(split - 1) *
                              static_cast<std::size_t>(height_ + 1) +
                          static_cast<std::size_t>(q)];
    // Rounds of the rest of the run, counted from the rename round: t = 0
    // renames, 1..search_rounds probe, search_rounds + 1 is the final pair.
    const std::int32_t final_pair = p.search_rounds + 1;
    const std::int32_t end =
        stop_when_solved ? std::countr_zero(p.primary) : final_pair;
    TwoActiveOutcome o;
    std::int32_t ran = 0;  // rounds of the rest of the run executed
    if (end < max_rounds - rename_round) {
      ran = end + 1;
      o.rounds = rename_round + ran;
      // A solve that stops the run ends it before the nodes finish, with
      // the streak it met; a finished run made progress in its last round.
      o.terminated = !stop_when_solved;
      if (stop_when_solved) {
        o.stall = end == 0 ? rename_round : StallAfter(p.lone, end - 1);
      }
    } else {
      ran = static_cast<std::int32_t>(max_rounds - rename_round);
      o.rounds = max_rounds;
      o.timed_out = true;
      o.stall = StallAfter(p.lone, ran - 1);
    }
    const std::uint32_t primary = p.primary & ((1u << ran) - 1);
    if (primary != 0) {
      const int first = std::countr_zero(primary);
      o.solved_round = rename_round + first;
      o.primary = primary >> first;
    }
    // Both nodes transmit in every round but the final pair's, where only
    // the smaller label does.
    const std::int64_t both =
        rename_round + (ran < final_pair + 1 ? ran : final_pair);
    node_tx[0] = both;
    node_tx[1] = both;
    if (ran > final_pair) ++node_tx[a < b ? 0 : 1];
    return o;
  }

 private:
  struct Path {
    std::uint8_t search_rounds = 0;
    std::uint8_t lone = 0;     // bit t: round t has a lone delivery
    std::uint8_t primary = 0;  // bit t: round t delivers on the primary
  };

  // The stall streak after round t of the rest of the run: rounds since
  // the last lone delivery (round 0 has one).
  static std::int64_t StallAfter(std::uint32_t lone, std::int32_t t) {
    return t + 1 - std::bit_width(lone & ((2u << t) - 1));
  }

  std::int32_t height_;
  std::vector<Path> paths_;  // [(split - 1) * (height + 1) + q]
};

}  // namespace crmc::core
