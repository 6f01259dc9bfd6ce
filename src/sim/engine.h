// Run configuration and results, and the coroutine entry point.
//
// EngineConfig and RunResult are shared by every executor. RunResult's
// per-layer counters live in one base, LayerCounters, which TrialFold (and
// through it harness::TrialSetResult) inherits too: a counter is declared
// once and folded by one rule (LayerCounters::Add).
//
// Engine::Run runs one execution of a coroutine protocol, one coroutine
// per activated node, on BatchEngine's round loop (sim/batch_engine.h)
// through an adapter StepProgram in engine.cpp. The coroutine protocols
// read like the paper's pseudocode and are the reference the columnar step
// programs are checked against.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "adversary/adversary.h"
#include "mac/channel.h"
#include "mac/faults.h"
#include "robust/robust.h"
#include "sim/node_context.h"
#include "sim/task.h"
#include "sim/trace.h"
#include "support/rng.h"
#include "support/small_vector.h"

namespace crmc::sim {

// Builds the behaviour of one activated node.
using ProtocolFactory = std::function<ProtocolTask(NodeContext&)>;

struct EngineConfig {
  // n: the w.h.p. parameter — the maximum number of nodes that might be
  // activated. Defaults to num_active when left at 0.
  std::int64_t population = 0;
  // |A|: how many nodes are actually activated.
  std::int32_t num_active = 0;
  // C: number of channels.
  std::int32_t channels = 1;
  // Master seed; the run is a pure function of this config.
  std::uint64_t seed = 1;
  // Hard stop (protocols like decay run until stopped).
  std::int64_t max_rounds = 4'000'000;
  // Stop as soon as contention resolution is solved (the usual metric).
  bool stop_when_solved = true;
  // Record the number of still-running nodes at the start of every round
  // (used by the Reduce-dynamics experiment; costs one int64 per round).
  bool record_active_counts = false;
  // Collision-detection capability (Section 3 assumes kStrong; the weaker
  // models serve the no-CD baselines and the CD-ablation experiment).
  mac::CdModel cd_model = mac::CdModel::kStrong;
  // Record per-round channel activity into RunResult::trace.
  bool record_trace = false;
  // Record per-node transmission counts into RunResult::node_transmissions
  // (the summary fields are filled either way).
  bool record_node_transmissions = false;
  // Adversarial fault injection (mac/faults.h). All rates default to zero,
  // in which case the run is bit-identical to one without a fault layer.
  mac::FaultSpec faults;
  // Adaptive (budgeted, reactive) jamming adversary (adversary/adversary.h).
  // kNone (the default) — and any budgeted kind with budget 0 — leaves the
  // run bit-identical to one without the adversary layer. kObliviousRate is
  // lowered onto the fault injector's jam stream (see EffectiveFaultSpec),
  // so it is bit-identical to the equivalent faults.jam_rate run; combining
  // an adversary with an explicit faults.jam_rate is a config error.
  adversary::AdversarySpec adversary;
  // Robust execution layer (robust/robust.h): delivery-confirmation echo
  // rounds, epoch retry with bounded exponential backoff, and phase
  // watchdogs. Disabled (the default) leaves the run bit-identical to one
  // without the layer; enabled over a pristine run likewise (epoch 0 uses
  // the unsalted seed and a delivered candidate confirms at zero cost).
  robust::RobustSpec robust;
  // Core generator for the per-node (and ID-sampling) streams. kXoshiro
  // keeps the historical bit streams; kPhilox is counter-based and lets the
  // SIMD kernels (src/simd/) vectorize the draws. Either kind, coroutine
  // protocols and step programs stay bit-exact against each other — the
  // parity suite runs in both modes. Fault-injection streams are
  // unaffected.
  support::RngKind rng = support::RngKind::kXoshiro;
};

// Validates `config` (distinct std::invalid_argument message per violated
// constraint, fault rates included) and returns the effective population
// (population == 0 defaults to num_active). Shared by every executor so
// their rejection behaviour cannot drift.
std::int64_t ValidateEngineConfig(const EngineConfig& config);

// The fault spec the injector actually runs: config.faults, with an
// oblivious_rate adversary lowered onto jam_rate. Lowering — rather than
// driving oblivious jams through AdversaryRun — keeps such runs bit-
// identical to the equivalent --jam-rate runs (the resolver interleaves jam
// and erasure draws on one stream; an external jam source could not
// replicate that sequence). Shared by every executor.
mac::FaultSpec EffectiveFaultSpec(const EngineConfig& config);

// Instrumentation emitted by one node (only nodes that produced any).
struct NodeReport {
  NodeId index = 0;
  bool finished = false;
  std::map<std::string, std::int64_t> phase_marks;
  std::vector<std::pair<std::string, std::int64_t>> metrics;
};

// The counters a run reports and a trial set sums (TrialFold inherits them
// too, and folds every trial's through Add). All zero on a pristine run;
// each layer fills only its own. A new counter is declared here and folded
// in Add; the defaulted == compares it everywhere, and tests/run_compare.h
// prints it.
struct LayerCounters {
  // ---- Fault-layer accounting (mac/faults.h) ----
  // Faults actually injected, all kinds (RunResult breaks the total down).
  std::int64_t faults_injected = 0;
  // Nodes removed by crash-stop failures (they never terminate, so
  // all_terminated is false whenever this is nonzero).
  std::int64_t crashed_nodes = 0;
  // ---- Adaptive-adversary accounting (adversary/adversary.h) ----
  // Budget the adversary spent (channel-rounds jammed) and how many of
  // those jams suppressed a lone delivery. Zero for kNone and for
  // kObliviousRate (whose jams land in RunResult::jams_injected instead).
  std::int64_t adv_jams_spent = 0;
  std::int64_t adv_jams_effective = 0;
  // Hold/spend breakdown. rounds_held counts rounds in which a budgeted
  // adversary had a positive allowance but planned no jam — the deliberate
  // patience of the phase-tracking/lookahead/learning strategies. The
  // jams_echo/jams_backoff split says where spend landed when the robust
  // layer fabricated the round: confirmation echoes (forced spend — every
  // echo the adversary declines to jam confirms the claim) vs backoff
  // honeypots (wasted spend — nothing was there to suppress). Both zero
  // without the robust layer.
  std::int64_t adv_rounds_held = 0;
  std::int64_t adv_jams_echo = 0;
  std::int64_t adv_jams_backoff = 0;
  // ---- Robust-execution accounting (robust/robust.h) ----
  // All zero when the robust layer is disabled.
  // Epochs entered (>= 1 whenever the layer ran).
  std::int64_t epochs_used = 0;
  // Epoch restarts taken (= epochs_used - 1, kept explicit for reporting).
  std::int64_t retries = 0;
  // Engine-inserted confirmation echo rounds actually executed.
  std::int64_t confirm_rounds = 0;
  // Engine-inserted all-idle backoff rounds between epochs.
  std::int64_t backoff_rounds = 0;
  // ---- Adaptive-policy accounting (robust::PolicyKind::kAdaptive; all
  // zero under the static policy) ----
  // Echo rounds executed beyond the static confirm_attempts schedule (the
  // quorum escalation's extra spend-forcing rounds).
  std::int64_t adaptive_confirm_extra = 0;
  // Backoff honeypot rounds trimmed relative to the static schedule (the
  // pause rounds NOT spent because the adversary was not feeding on them).
  std::int64_t adaptive_backoff_trimmed = 0;
  // Bait rounds (backoff honeypots or hardened dummy confirm rounds) the
  // adversary was seen jamming — the wrapper's view of being probed.
  std::int64_t probe_rounds_detected = 0;
  // Quorum-obfuscating dummy confirm rounds the hardened policy inserted
  // (robust::PolicyKind::kHardened; zero under the other policies).
  std::int64_t obfuscation_rounds = 0;
  // Largest confirmation quorum that was in force during any exchange.
  // The one counter Add folds by max rather than by sum.
  std::int32_t confirm_quorum_peak = 0;

  // Folds `other` in: every counter sums, except the peak, which takes the
  // max. Integer-only, so any merge order gives the same bits.
  void Add(const LayerCounters& other) {
    faults_injected += other.faults_injected;
    crashed_nodes += other.crashed_nodes;
    adv_jams_spent += other.adv_jams_spent;
    adv_jams_effective += other.adv_jams_effective;
    adv_rounds_held += other.adv_rounds_held;
    adv_jams_echo += other.adv_jams_echo;
    adv_jams_backoff += other.adv_jams_backoff;
    epochs_used += other.epochs_used;
    retries += other.retries;
    confirm_rounds += other.confirm_rounds;
    backoff_rounds += other.backoff_rounds;
    adaptive_confirm_extra += other.adaptive_confirm_extra;
    adaptive_backoff_trimmed += other.adaptive_backoff_trimmed;
    probe_rounds_detected += other.probe_rounds_detected;
    obfuscation_rounds += other.obfuscation_rounds;
    confirm_quorum_peak = std::max(confirm_quorum_peak,
                                   other.confirm_quorum_peak);
  }

  // Compares the counters only, also when called on two RunResults.
  bool operator==(const LayerCounters&) const = default;
};

struct RunResult : LayerCounters {
  bool solved = false;
  // 0-based index of the first round with a lone primary-channel
  // transmitter; -1 if never solved.
  std::int64_t solved_round = -1;
  // Every round with a lone primary-channel transmitter, in order. For
  // one-shot contention resolution only the first matters; repeated-use
  // protocols (k-selection) solve once per instance. Inline storage keeps
  // the common one-entry case malloc-free (support/small_vector.h).
  support::SmallVector<std::int64_t, 2> all_solved_rounds;
  // Rounds actually executed before the run stopped.
  std::int64_t rounds_executed = 0;
  // True if the run stopped because max_rounds was reached.
  bool timed_out = false;
  // True if every protocol coroutine ran to completion.
  bool all_terminated = false;
  std::int64_t total_transmissions = 0;
  // Rounds executed on a fused fast path (StepProgram::FastRound in
  // BatchEngine, lockstep lane rounds in TrialBatchEngine). Executor
  // diagnostics, not model output: the coroutine engine materializes every
  // round and always leaves this 0, so it is excluded from cross-engine
  // parity comparisons. The jammed-run regression test uses it to pin down
  // that a perturbed run re-enters the fused path once lockstep restores.
  std::int64_t fused_rounds = 0;
  // Width of the lockstep lane chunk that produced this result (0 when the
  // run executed per trial — coroutine engine, BatchEngine, or the trial
  // engine's fallback path). Executor diagnostics like fused_rounds:
  // excluded from cross-engine parity comparisons.
  std::int32_t trial_lanes = 0;
  // True iff the trial engine started this run on the lane path and then
  // re-ran it per trial (the lane executor declined the shape or the lane
  // diverged).
  // The run's statistics are still bit-exact; the flag makes silent
  // wholesale fallback visible in aggregated reports instead of just slow.
  bool trial_fallback = false;
  // Energy accounting: the largest and mean number of transmissions any
  // single node performed (the radio-network energy metric).
  std::int64_t max_node_transmissions = 0;
  double mean_node_transmissions = 0.0;
  // Injected faults by kind; faults_injected (LayerCounters) is the total.
  std::int64_t jams_injected = 0;
  std::int64_t erasures_injected = 0;
  std::int64_t cd_flips_injected = 0;
  // Livelock watchdog: length of the trailing streak of rounds in which
  // nothing happened — no channel delivered a lone message and no node
  // terminated. A Las Vegas protocol fed corrupted feedback can spin
  // forever; this distinguishes "still grinding toward a solution" from
  // "wedged" without waiting out max_rounds by eye.
  std::int64_t stall_rounds = 0;
  // True iff the run timed out AND at least half of it was trailing stall:
  // the protocol had stopped making any observable progress.
  bool wedged = false;
  // True iff the run solved under the robust layer's confirmation
  // contract: the solving lone primary delivery either acked directly
  // (strong-CD kMessage feedback to the winner) or was re-established by a
  // confirmation echo round. With the layer on, every solve is confirmed;
  // the flag distinguishes robust-confirmed solves in mixed reporting.
  bool confirmed = false;
  // True iff a protocol raised support::ProtocolAssumptionViolation while
  // faults were active (e.g. a strong-CD protocol observing the
  // "impossible" feedback an erasure produces) and the run was aborted
  // gracefully. Without active faults the exception propagates as before.
  bool assumption_violated = false;
  std::vector<std::int64_t> active_counts;  // iff record_active_counts
  std::vector<std::int64_t> node_transmissions;  // iff requested
  std::vector<RoundTrace> trace;                 // iff record_trace

  // Under the robust layer, from the final epoch's nodes (earlier epochs'
  // protocol state is discarded on restart).
  std::vector<NodeReport> node_reports;

  // Largest round recorded for `name` across nodes, or -1 if nobody
  // marked it. (Phase boundaries in the paper's algorithm are reached by
  // all surviving nodes in the same round; taking the max is robust to
  // nodes that went inactive earlier.)
  std::int64_t LastPhaseMark(const std::string& name) const;
  // All values recorded under `name`, in node order.
  std::vector<std::int64_t> MetricValues(const std::string& name) const;

 private:
  // Both accessors scan every node_report per call; experiments query a
  // handful of names over thousands of nodes, so once node_reports is
  // large the accessors build this name-keyed index in one pass and answer
  // from it. shared_ptr keeps RunResult cheaply copyable; the index is
  // derived data, safe to share between copies (node_reports is only
  // written while the engine builds the result, before any accessor call).
  struct ReportIndex {
    std::map<std::string, std::int64_t> last_phase_marks;
    std::map<std::string, std::vector<std::int64_t>> metric_values;
  };
  const ReportIndex& Index() const;
  mutable std::shared_ptr<const ReportIndex> report_index_;
};

// The counters a trial set folds from its trials (harness::TrialSetResult
// inherits them): every trial's LayerCounters through LayerCounters::Add,
// plus what the set derives from each trial's outcome. Integer sums and
// maxes only, so partial folds merge in any order to the same bits. A new
// per-set counter is declared here and folded in AddOutcome or Add, and
// merged in Merge; the defaulted == compares it.
struct TrialFold : LayerCounters {
  // Trials that did not solve, by cause. `unsolved` is the total; the
  // breakdown below keeps failed trials out of the solved-round statistics
  // instead of letting a max_rounds-capped round count poison the mean.
  std::int32_t unsolved = 0;
  std::int32_t timed_out = 0;  // hit max_rounds
  std::int32_t aborted = 0;    // assumption_violated (fault-induced)
  std::int32_t wedged = 0;     // timed out with a stalled trailing half
  // Silent failures: every node terminated believing the problem solved,
  // yet no lone primary delivery ever landed. Counted uniformly for every
  // protocol (the TwoActive shape included — its jammed both-terminated
  // runs land here, not in timed_out).
  std::int32_t deluded = 0;
  // Trials that solved with the robust layer's delivery confirmation
  // (RunResult::confirmed). Equals the solved count when the layer is on;
  // 0 when it is off.
  std::int32_t confirmed = 0;
  // Rounds executed summed over every trial, solved and failed alike (a
  // failed trial contributes its max_rounds cap). The bench layer's
  // wrapper-overhead ratios are built on this total cost measure.
  std::int64_t rounds_total = 0;
  // ---- Trial-parallel executor diagnostics (sim/trial_engine.h) ----
  // All zero when lane_width == 1 or the protocol ran per trial throughout.
  // Widest lockstep lane chunk any trial ran in (RunResult::trial_lanes).
  std::int32_t trial_lanes_peak = 0;
  // Trials that entered the lane path and were re-run per trial (a program
  // other than two_active, a shape the lanes decline such as two_active
  // with |A| != 2 outside the duel, or a lane that diverged mid-run).
  // Statistics are bit-exact either way; a high count means the requested
  // lane width bought little.
  std::int64_t trial_fallbacks = 0;
  // Rounds executed on a fused fast path, summed over every trial
  // (RunResult::fused_rounds: BatchEngine FastRound + lockstep lane
  // rounds). Compare against rounds_total for the materialized share.
  std::int64_t fused_rounds_total = 0;

  // Folds one trial: its layer counters, its outcome and the executor
  // diagnostics.
  void Add(const RunResult& run) {
    LayerCounters::Add(run);
    AddOutcome(run.solved, run.confirmed, run.timed_out,
               run.assumption_violated, run.wedged, run.rounds_executed);
    trial_lanes_peak = std::max(trial_lanes_peak, run.trial_lanes);
    if (run.trial_fallback) ++trial_fallbacks;
    fused_rounds_total += run.fused_rounds;
  }

  // The part of Add a trial's outcome decides: its rounds and, if it did
  // not solve, its cause. The trial engine's lanes, which report no layer
  // counters, fold through this without building a RunResult.
  void AddOutcome(bool solved, bool solve_confirmed, bool hit_max_rounds,
                  bool assumption_violated, bool stalled,
                  std::int64_t rounds) {
    rounds_total += rounds;
    if (solved) {
      if (solve_confirmed) ++confirmed;
      return;
    }
    // Failed trials are counted, never folded into the round statistics:
    // a timed-out trial's rounds are just the max_rounds cap.
    ++unsolved;
    if (hit_max_rounds) ++timed_out;
    if (assumption_violated) ++aborted;
    if (stalled) ++wedged;
    // The remainder terminated unsolved without violating an assumption:
    // the nodes exited deluded (silent failure).
    if (!hit_max_rounds && !assumption_violated) ++deluded;
  }

  // Adds a partial fold.
  void Merge(const TrialFold& part) {
    LayerCounters::Add(part);
    unsolved += part.unsolved;
    timed_out += part.timed_out;
    aborted += part.aborted;
    wedged += part.wedged;
    deluded += part.deluded;
    confirmed += part.confirmed;
    rounds_total += part.rounds_total;
    trial_lanes_peak = std::max(trial_lanes_peak, part.trial_lanes_peak);
    trial_fallbacks += part.trial_fallbacks;
    fused_rounds_total += part.fused_rounds_total;
  }

  // Compares every fold counter, layer counters included.
  bool operator==(const TrialFold&) const = default;
};

// A trial's entry in a solved-round plane: solved_round + 1, or 0 if the
// trial did not solve.
inline std::int64_t SolvedPlaneEntry(const RunResult& run) {
  return run.solved ? run.solved_round + 1 : 0;
}

class Engine {
 public:
  // Runs one execution of `protocol` on BatchEngine's round loop and
  // appends the final epoch's node_reports. Throws std::invalid_argument
  // on bad config and propagates exceptions escaping protocol coroutines.
  static RunResult Run(const EngineConfig& config,
                       const ProtocolFactory& protocol);
};

}  // namespace crmc::sim
