// The canonical complete binary tree of channels.
//
// Both TwoActive's SplitCheck (Section 4) and LeafElection (Section 5.3)
// work on a complete binary tree whose leaves are labelled 1..L for a power
// of two L. Levels are counted from the root: the root is level 0, leaves
// are level h = lg L. Tree nodes are identified by their 1-based heap index
// (root = 1, children of t are 2t and 2t+1), which doubles as the channel
// assigned to the tree node: a tree with L leaves has 2L - 1 nodes, so a
// tree over L = C/2 leaves fits in C channels, as the paper requires. The
// root's channel is heap index 1 — the primary channel — which is what lets
// the final lone broadcast "on the root" solve contention resolution.
#pragma once

#include <cstdint>

#include "mac/channel.h"
#include "support/assert.h"
#include "support/bits.h"

namespace crmc::tree {

class ChannelTree {
 public:
  // `num_leaves` must be a power of two >= 1.
  explicit ChannelTree(std::int32_t num_leaves)
      : num_leaves_(ValidatedLeafCount(num_leaves)),
        height_(support::FloorLog2(static_cast<std::uint64_t>(num_leaves))) {}

  std::int32_t num_leaves() const { return num_leaves_; }
  // h = lg(num_leaves): the level of the leaves.
  std::int32_t height() const { return height_; }
  // Total tree nodes == channels consumed by the tree.
  std::int32_t num_tree_nodes() const { return 2 * num_leaves_ - 1; }

  // Heap index of the leaf labelled `leaf` (1-based label in [1, L]).
  //
  // The per-node lookups below are forced inline: the lane engine calls
  // them for every node of every round, and the formatting of their
  // failure messages would otherwise keep them out of line.
  [[gnu::always_inline]] std::int32_t LeafHeapIndex(std::int32_t leaf) const {
    CheckLeaf(leaf);
    return num_leaves_ + leaf - 1;
  }

  // Heap index of the level-`level` ancestor of leaf `leaf` (level 0 is the
  // root; level == height() returns the leaf itself).
  [[gnu::always_inline]] std::int32_t AncestorAtLevel(
      std::int32_t leaf, std::int32_t level) const {
    CheckLeaf(leaf);
    CRMC_REQUIRE(level >= 0 && level <= height_);
    return LeafHeapIndex(leaf) >> (height_ - level);
  }

  // 1-based position of the level-`level` ancestor of `leaf` within its
  // level, i.e. the paper's ceil(id / 2^(h - level)) from SplitCheck.
  [[gnu::always_inline]] std::int32_t IndexWithinLevel(
      std::int32_t leaf, std::int32_t level) const {
    return AncestorAtLevel(leaf, level) - (std::int32_t{1} << level) + 1;
  }

  // Channel assigned to a tree node (identity on heap indices).
  mac::ChannelId ChannelOf(std::int32_t heap_index) const {
    CRMC_REQUIRE(heap_index >= 1 && heap_index <= num_tree_nodes());
    return static_cast<mac::ChannelId>(heap_index);
  }

  // The representative ("row") channel of a level: its leftmost tree node.
  mac::ChannelId RowChannel(std::int32_t level) const {
    CRMC_REQUIRE(level >= 0 && level <= height_);
    return static_cast<mac::ChannelId>(std::int32_t{1} << level);
  }

  // Whether a (non-root) tree node is its parent's left child.
  [[gnu::always_inline]] static bool IsLeftChild(std::int32_t heap_index) {
    CRMC_REQUIRE(heap_index >= 2);
    return (heap_index & 1) == 0;
  }

  // Whether the level-`level` ancestor of `leaf` sits in the left subtree
  // of its parent (level >= 1).
  [[gnu::always_inline]] bool AncestorIsLeftChild(std::int32_t leaf,
                                                  std::int32_t level) const {
    CRMC_REQUIRE(level >= 1);
    return IsLeftChild(AncestorAtLevel(leaf, level));
  }

 private:
  static std::int32_t ValidatedLeafCount(std::int32_t num_leaves) {
    CRMC_REQUIRE_MSG(num_leaves >= 1 &&
                         support::IsPowerOfTwo(
                             static_cast<std::uint64_t>(num_leaves)),
                     "num_leaves must be a power of two, got " << num_leaves);
    return num_leaves;
  }

  [[gnu::always_inline]] void CheckLeaf(std::int32_t leaf) const {
    CRMC_REQUIRE_MSG(leaf >= 1 && leaf <= num_leaves_,
                     "leaf label " << leaf << " outside [1, " << num_leaves_
                                   << "]");
  }

  std::int32_t num_leaves_;
  std::int32_t height_;
};

}  // namespace crmc::tree
