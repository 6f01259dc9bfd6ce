// Per-node API handed to protocol coroutines.
//
// A protocol interacts with the world exclusively through its NodeContext:
//   co_await ctx.Transmit(ch, msg)  — transmit on channel ch this round
//   co_await ctx.Listen(ch)         — receive on channel ch this round
//   co_await ctx.Sleep()            — do not participate this round
// Each returns the mac::Feedback the node observed. Everything else on the
// context is local information (indices, RNG, metrics).
//
// The private mailbox is driven by CoroutineProgram, the StepProgram that
// runs coroutine protocols on BatchEngine's round loop (sim/engine.cpp):
// its EmitActions reads each node's pending action and its Advance stores
// the feedback and round index and resumes the coroutine.
#pragma once

#include <coroutine>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "mac/channel.h"
#include "support/assert.h"
#include "support/rng.h"

namespace crmc::sim {

class CoroutineProgram;

using NodeId = std::int32_t;

class NodeContext {
 public:
  NodeContext(NodeId index, std::int64_t population, std::int32_t num_active,
              std::int32_t channels, std::int64_t unique_id,
              support::RandomSource rng)
      : index_(index),
        population_(population),
        num_active_(num_active),
        channels_(channels),
        unique_id_(unique_id),
        rng_(std::move(rng)) {}

  NodeContext(const NodeContext&) = delete;
  NodeContext& operator=(const NodeContext&) = delete;

  // --- identity & model parameters -------------------------------------

  // Index of this node among the activated nodes: 0 .. num_active()-1.
  // Protocols must NOT use this to break symmetry (the model is anonymous);
  // it exists for instrumentation and for oracle baselines, which say so.
  NodeId index() const { return index_; }

  // n: the maximum possible number of nodes (the "w.h.p." parameter).
  std::int64_t population() const { return population_; }

  // |A|: how many nodes were actually activated. Knowing this is *not*
  // part of the model; only oracle baselines may consult it.
  std::int32_t num_active_oracle() const { return num_active_; }

  // C: number of available channels.
  std::int32_t channels() const { return channels_; }

  // A unique identifier from [1, population], distinct across activated
  // nodes. The paper's algorithms do not need IDs (and do not use them);
  // the classic single-channel binary-descent baseline does.
  std::int64_t unique_id() const { return unique_id_; }

  // Round index of the round about to execute (0-based).
  std::int64_t round() const { return round_; }

  support::RandomSource& rng() { return rng_; }

  // --- participating in rounds ------------------------------------------

  class RoundAwaiter {
   public:
    RoundAwaiter(NodeContext& ctx, mac::Action action)
        : ctx_(ctx), action_(action) {}
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      ctx_.pending_action_ = action_;
      ctx_.has_pending_ = true;
      ctx_.resume_point_ = h;
    }
    mac::Feedback await_resume() const { return ctx_.feedback_; }

   private:
    NodeContext& ctx_;
    mac::Action action_;
  };

  [[nodiscard]] RoundAwaiter Round(mac::Action action) {
    return RoundAwaiter(*this, action);
  }
  [[nodiscard]] RoundAwaiter Transmit(mac::ChannelId ch, mac::Message m = {}) {
    return RoundAwaiter(*this, mac::Action::Transmit(ch, m));
  }
  [[nodiscard]] RoundAwaiter Listen(mac::ChannelId ch) {
    return RoundAwaiter(*this, mac::Action::Listen(ch));
  }
  [[nodiscard]] RoundAwaiter Sleep() {
    return RoundAwaiter(*this, mac::Action::Idle());
  }

  // --- wakeup-transform support -------------------------------------------

  // While enabled, the engine inserts a beacon round (a transmission on the
  // primary channel) after every round this node's protocol executes,
  // without resuming the protocol in between. Used by the Section 3
  // non-simultaneous wakeup transform: the wrapped protocol runs on even
  // relative rounds and the beacon fills the odd ones.
  void SetAutoBeacon(bool enabled) { auto_beacon_ = enabled; }
  bool auto_beacon() const { return auto_beacon_; }

  // --- instrumentation ---------------------------------------------------

  // Record that a named phase boundary was reached this round (first write
  // wins; phases are entered once).
  void MarkPhase(const std::string& name) {
    phase_marks_.emplace(name, round_);
  }

  // Append a named numeric observation (e.g., per-phase search cost).
  void RecordMetric(const std::string& name, std::int64_t value) {
    metrics_.emplace_back(name, value);
  }

  const std::map<std::string, std::int64_t>& phase_marks() const {
    return phase_marks_;
  }
  const std::vector<std::pair<std::string, std::int64_t>>& metrics() const {
    return metrics_;
  }

 private:
  friend class CoroutineProgram;

  NodeId index_;
  std::int64_t population_;
  std::int32_t num_active_;
  std::int32_t channels_;
  std::int64_t unique_id_;
  support::RandomSource rng_;

  // Engine-side mailbox.
  mac::Action pending_action_{};
  bool has_pending_ = false;
  mac::Feedback feedback_{};
  std::coroutine_handle<> resume_point_;
  std::int64_t round_ = 0;
  bool auto_beacon_ = false;

  std::map<std::string, std::int64_t> phase_marks_;
  std::vector<std::pair<std::string, std::int64_t>> metrics_;
};

}  // namespace crmc::sim
