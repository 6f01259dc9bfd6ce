#include "core/two_active.h"

#include "core/channel_budget.h"
#include "mac/channel.h"
#include "support/assert.h"
#include "tree/channel_tree.h"

namespace crmc::core {
namespace {

using mac::Feedback;
using mac::kPrimaryChannel;
using sim::NodeContext;
using sim::Task;

// Single-channel degradation: coin-flipping duel on the primary channel.
// Each round a node transmits with probability 1/2; with two active nodes
// the round succeeds (one lone transmitter) with probability 1/2, so the
// duel ends in Theta(log n) rounds w.h.p. — the single-channel optimum.
Task<void> CoinFlipDuel(NodeContext& ctx) {
  for (;;) {
    if (ctx.rng().Bernoulli(0.5)) {
      const Feedback fb = co_await ctx.Transmit(kPrimaryChannel);
      if (fb.MessageHeard()) {
        ctx.MarkPhase("solved");
        co_return;  // transmitted alone: problem solved, this node won
      }
    } else {
      const Feedback fb = co_await ctx.Listen(kPrimaryChannel);
      if (fb.MessageHeard()) co_return;  // the other node won
    }
  }
}

}  // namespace

Task<void> TwoActiveProtocol(NodeContext& ctx, TwoActiveParams params) {
  const std::int32_t channels =
      TwoActiveChannels(ctx.channels(), ctx.population(), params);
  if (channels < 2) {
    co_await CoinFlipDuel(ctx);
    co_return;
  }

  // --- Step 1: ID reduction — rename into [channels]. -------------------
  std::int32_t id = 0;
  for (;;) {
    id = static_cast<std::int32_t>(ctx.rng().UniformInt(1, channels));
    const Feedback fb =
        co_await ctx.Transmit(static_cast<mac::ChannelId>(id));
    CRMC_PROTO_CHECK(!fb.Silence());  // we transmitted, the channel was not silent
    if (fb.MessageHeard()) break;  // alone: adopt the channel label as ID
  }
  ctx.MarkPhase("rename_done");

  // --- Step 2: SplitCheck — find the divergence level. -------------------
  // B[m] = 1 iff both paths share their level-m tree node; B[0] = 1 (the
  // root is shared), B[h] = 0 (the IDs are distinct leaves). Binary-search
  // for the first 0. Testing level m: both nodes transmit on the channel
  // numbered by their level-m ancestor's position within the level; a
  // collision means the ancestor is shared.
  const tree::ChannelTree channel_tree(channels);
  std::int32_t lo = 0;
  std::int32_t hi = channel_tree.height();
  while (lo < hi) {
    const std::int32_t mid = (lo + hi) / 2;
    const Feedback fb = co_await ctx.Transmit(static_cast<mac::ChannelId>(
        channel_tree.IndexWithinLevel(id, mid)));
    CRMC_PROTO_CHECK(!fb.Silence());
    if (fb.Collision()) {
      lo = mid + 1;  // still shared at `mid`: divergence is deeper
    } else {
      hi = mid;  // already diverged at `mid`
    }
  }
  const std::int32_t split_level = lo;
  CRMC_PROTO_CHECK_MSG(split_level >= 1,
                       "paths cannot diverge at the root");
  ctx.MarkPhase("search_done");

  // The node whose path goes left at the divergence wins.
  if (channel_tree.AncestorIsLeftChild(id, split_level)) {
    const Feedback fb = co_await ctx.Transmit(kPrimaryChannel);
    CRMC_PROTO_CHECK_MSG(
        fb.MessageHeard(),
        "two-active winner was not alone on the primary channel");
    ctx.MarkPhase("solved");
  } else {
    co_await ctx.Listen(kPrimaryChannel);
  }
}

sim::ProtocolFactory MakeTwoActive(TwoActiveParams params) {
  return [params](NodeContext& ctx) { return TwoActiveProtocol(ctx, params); };
}

}  // namespace crmc::core
