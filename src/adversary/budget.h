// Jamming budget accounting for adaptive adversaries.
//
// The resource-competitive contention-resolution literature (Jiang & Zheng,
// arXiv:2111.06650; Chen, Jiang & Zheng, arXiv:2102.09716) models the
// adversary as an entity with a *bounded* disruption budget: it may jam at
// most T channel-rounds over the whole execution, at most K channels in any
// single round. BudgetLedger is that bound made executable — every jam a
// strategy emits is charged here, and overspending is a CRMC_CHECK (a bug
// in the strategy or the driver, never a recoverable condition).
#pragma once

#include <algorithm>
#include <cstdint>

#include "support/assert.h"

namespace crmc::adversary {

class BudgetLedger {
 public:
  // Zero-budget ledger: every allowance is 0, nothing can ever be charged.
  BudgetLedger() = default;

  BudgetLedger(std::int64_t total, std::int32_t per_round_cap)
      : total_(total), per_round_cap_(per_round_cap) {
    CRMC_REQUIRE_MSG(total >= 0,
                     "adversary budget must be >= 0, got " << total);
    CRMC_REQUIRE_MSG(per_round_cap >= 1,
                     "adversary per-round cap must be >= 1, got "
                         << per_round_cap);
  }

  std::int64_t total() const { return total_; }
  std::int64_t spent() const { return spent_; }
  std::int64_t remaining() const { return total_ - spent_; }
  std::int32_t per_round_cap() const { return per_round_cap_; }

  // How many distinct channels the adversary may jam this round: the
  // per-round cap, the unspent budget, and the channel count all bind.
  // Both per-round calls are forced inline: the round loop asks them on
  // every round, and Charge's failure messages would otherwise keep it out
  // of line.
  [[gnu::always_inline]] std::int32_t RoundAllowance(
      std::int32_t channels) const {
    const std::int64_t cap =
        std::min<std::int64_t>({per_round_cap_, remaining(), channels});
    return static_cast<std::int32_t>(std::max<std::int64_t>(cap, 0));
  }

  // Charge one round's jams. Exceeding the cap or the remaining budget is
  // a strategy bug: the driver hands every strategy its allowance up front.
  [[gnu::always_inline]] void Charge(std::int32_t jams) {
    CRMC_CHECK_MSG(jams >= 0 && jams <= per_round_cap_,
                   "adversary spent " << jams << " jams in one round, cap "
                                      << per_round_cap_);
    CRMC_CHECK_MSG(jams <= remaining(),
                   "adversary overspent: " << jams << " jams with "
                                           << remaining() << " budget left");
    spent_ += jams;
  }

 private:
  std::int64_t total_ = 0;
  std::int64_t spent_ = 0;
  std::int32_t per_round_cap_ = 1;
};

}  // namespace crmc::adversary
