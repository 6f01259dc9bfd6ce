// Shared run comparer for the parity and determinism suites.
//
// ExpectSameRun checks every model-output field of two RunResults: the
// outcome, the energy and fault breakdown, the per-round records and all
// of sim::LayerCounters. Only the executor diagnostics (fused_rounds,
// trial_lanes, trial_fallback) stay out, since two executors may
// legitimately differ there, and node_reports, which step programs do not
// emit. The counters compare as one value, so a failure prints both sides
// in full (PrintTo below) instead of one line per field.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <ostream>

#include "sim/engine.h"

namespace crmc::sim {

// gtest's printer for LayerCounters values (found by argument-dependent
// lookup, so failures in any namespace print the named fields).
inline void PrintTo(const LayerCounters& c, std::ostream* os) {
  *os << "{faults_injected " << c.faults_injected << ", crashed_nodes "
      << c.crashed_nodes << ", adv_jams_spent " << c.adv_jams_spent
      << ", adv_jams_effective " << c.adv_jams_effective
      << ", adv_rounds_held " << c.adv_rounds_held << ", adv_jams_echo "
      << c.adv_jams_echo << ", adv_jams_backoff " << c.adv_jams_backoff
      << ", epochs_used " << c.epochs_used << ", retries " << c.retries
      << ", confirm_rounds " << c.confirm_rounds << ", backoff_rounds "
      << c.backoff_rounds << ", adaptive_confirm_extra "
      << c.adaptive_confirm_extra << ", adaptive_backoff_trimmed "
      << c.adaptive_backoff_trimmed << ", probe_rounds_detected "
      << c.probe_rounds_detected << ", obfuscation_rounds "
      << c.obfuscation_rounds << ", confirm_quorum_peak "
      << c.confirm_quorum_peak << "}";
}

// gtest's printer for TrialFold values: the set's own counters, then the
// layer counters.
inline void PrintTo(const TrialFold& f, std::ostream* os) {
  *os << "{unsolved " << f.unsolved << ", timed_out " << f.timed_out
      << ", aborted " << f.aborted << ", wedged " << f.wedged
      << ", deluded " << f.deluded << ", confirmed " << f.confirmed
      << ", rounds_total " << f.rounds_total << ", trial_lanes_peak "
      << f.trial_lanes_peak << ", trial_fallbacks " << f.trial_fallbacks
      << ", fused_rounds_total " << f.fused_rounds_total << ", ";
  PrintTo(static_cast<const LayerCounters&>(f), os);
  *os << "}";
}

// Every layer counter; takes RunResults and TrialSetResults alike.
inline void ExpectSameLayerCounters(const LayerCounters& want,
                                    const LayerCounters& got) {
  EXPECT_EQ(want, got);
}

inline void ExpectSameRun(const RunResult& want, const RunResult& got) {
  EXPECT_EQ(want.solved, got.solved);
  EXPECT_EQ(want.solved_round, got.solved_round);
  EXPECT_EQ(want.all_solved_rounds, got.all_solved_rounds);
  EXPECT_EQ(want.rounds_executed, got.rounds_executed);
  EXPECT_EQ(want.timed_out, got.timed_out);
  EXPECT_EQ(want.all_terminated, got.all_terminated);
  EXPECT_EQ(want.total_transmissions, got.total_transmissions);
  EXPECT_EQ(want.max_node_transmissions, got.max_node_transmissions);
  EXPECT_DOUBLE_EQ(want.mean_node_transmissions,
                   got.mean_node_transmissions);
  EXPECT_EQ(want.jams_injected, got.jams_injected);
  EXPECT_EQ(want.erasures_injected, got.erasures_injected);
  EXPECT_EQ(want.cd_flips_injected, got.cd_flips_injected);
  EXPECT_EQ(want.stall_rounds, got.stall_rounds);
  EXPECT_EQ(want.wedged, got.wedged);
  EXPECT_EQ(want.confirmed, got.confirmed);
  EXPECT_EQ(want.assumption_violated, got.assumption_violated);
  ExpectSameLayerCounters(want, got);
  EXPECT_EQ(want.active_counts, got.active_counts);
  EXPECT_EQ(want.node_transmissions, got.node_transmissions);
  ASSERT_EQ(want.trace.size(), got.trace.size());
  for (std::size_t i = 0; i < want.trace.size(); ++i) {
    EXPECT_EQ(want.trace[i].round, got.trace[i].round);
    ASSERT_EQ(want.trace[i].events.size(), got.trace[i].events.size());
    for (std::size_t e = 0; e < want.trace[i].events.size(); ++e) {
      EXPECT_EQ(want.trace[i].events[e].channel,
                got.trace[i].events[e].channel);
      EXPECT_EQ(want.trace[i].events[e].transmitters,
                got.trace[i].events[e].transmitters);
      EXPECT_EQ(want.trace[i].events[e].listeners,
                got.trace[i].events[e].listeners);
    }
  }
}

}  // namespace crmc::sim
