// Workloads, the per-run bookkeeping and the output check, shared by the
// end-to-end run (bench_main.cpp) and the traced run (traced.cpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "harness/runner.h"
#include "sim/batch_engine.h"
#include "sim/engine.h"
#include "sim/trial_engine.h"
#include "slice_stats.h"

namespace crmcbench {

using Clock = std::chrono::steady_clock;

inline double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Workload {
  std::string algo;
  crmc::harness::TrialSpec spec;  // base_seed is set per slice
  std::int32_t trials_per_slice = 0;
  // Slices of one pass: the fixed trial set a run cycles through. Every run
  // completes at least one pass; exact outputs (solved_rounds_mean, the
  // output check) are taken over that pass, so they do not depend on how
  // many slices the host managed in the time window.
  std::int32_t slices_per_pass = 0;
  std::int32_t threads = 1;
  // Trials of the first slice replayed through the coroutine oracle.
  std::int32_t oracle_trials = 0;
  // Success is a confirmed solve (robust layer) rather than a plain solve.
  bool success_is_confirmed = false;
};

// Throws std::invalid_argument for an unknown name.
Workload MakeWorkload(const std::string& name);

crmc::sim::EngineConfig ConfigFor(const crmc::harness::TrialSpec& spec,
                                  std::uint64_t seed);

// The aggregate the output check compares, from RunTrials' result or from
// per-trial results in trial order (the same fold either way).
TrialAggregate AggregateOf(const crmc::harness::TrialSetResult& r);
TrialAggregate AggregateOf(std::span<const crmc::sim::RunResult> runs);

// The engine RunTrials dispatches to, called directly on the same trials:
// per-trial BatchEngine, or TrialBatchEngine when `lanes`. One instance is
// reused across calls, as a RunTrials worker reuses its cached engine.
class DirectEngine {
 public:
  DirectEngine(const Workload& w, const crmc::harness::ProtocolHandle& handle,
               bool lanes);

  void set_fused_rounds(bool on) { batch_.set_fused_rounds(on); }

  // Runs the trial_per_slice trials of `spec` (seeds base_seed + t).
  std::span<const crmc::sim::RunResult> Run(
      const crmc::harness::TrialSpec& spec);

 private:
  std::unique_ptr<crmc::sim::StepProgram> program_;
  crmc::sim::BatchEngine batch_;
  std::optional<crmc::sim::TrialBatchEngine> trial_;
  std::vector<crmc::sim::RunResult> runs_;
  std::vector<std::uint64_t> seeds_;
};

// One run of a workload: its set-up, its pass, and per-slice bookkeeping.
struct Run {
  Run(Workload w_in, crmc::harness::ProtocolHandle handle_in)
      : w(std::move(w_in)), handle(std::move(handle_in)) {}

  Workload w;
  crmc::harness::ProtocolHandle handle;
  std::vector<crmc::harness::TrialSpec> pass;
  double setup_s = 0.0;
  // Per slice of the pass: the aggregate of its first execution, how often
  // it ran through RunTrials, and whether any check on it failed.
  std::vector<std::optional<TrialAggregate>> first;
  std::vector<std::int64_t> executions;
  std::vector<std::uint8_t> mismatch;

  // Records one RunTrials execution of slice k.
  void Record(std::size_t k, const TrialAggregate& a);
  // Every execution and direct recomputation of slice k must reproduce
  // the aggregate of its first execution exactly.
  void Check(std::size_t k, const TrialAggregate& a);

  std::int64_t Attempted() const;
  // Unsolved (or unconfirmed) trials, plus every trial of a slice whose
  // output check failed.
  std::int64_t Failed() const;
  bool Correct() const;
};

// Workload start through the first warm-up RunTrials call: registry
// lookup, HandleFor, engine scratch allocation, and (2-thread workloads)
// the worker pool's start. Slice seeds are a function of `seed`.
Run SetUp(const std::string& workload, std::uint64_t seed);

// Times one RunTrials call on slice k of the pass.
std::pair<double, crmc::harness::TrialSetResult> TimeSlice(
    const Run& run, std::size_t k, std::int32_t threads);

// The output check, in two parts. CheckDirect recomputes every slice of
// the pass by direct engine calls; CheckOracle replays the first
// oracle_trials trials of slice 0 through the coroutine oracle
// sim::Engine::Run. A mismatch marks the slice failed.
void CheckDirect(Run& run);
void CheckOracle(Run& run);

double PeakRssMb();

// Host-noise mitigation. On the host this benchmark was tuned on, the slow
// mode strikes one vCPU at a time, for seconds, with the others fast: a
// single-threaded run left on one vCPU can spend its whole window slow.
// Moving it across the allowed CPUs every kPeriodS seconds lets the
// low-quantile rate find a fast CPU in nearly every run. Multi-threaded
// parts are left unpinned: where the worker pool's threads land and how
// they wake each other is part of what they measure.
class CpuRotation {
 public:
  static constexpr double kPeriodS = 0.25;

  // Reads the allowed CPU set; the destructor restores it.
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  // Before a part that runs on `threads` threads: 1 pins every thread of
  // the process to the current CPU of the rotation, which advances once
  // per period; more restores the whole allowed set.
  void Place(int threads);
  // Pins every thread to the (index mod count)-th allowed CPU, for good:
  // the process ends pinned.
  void PinTo(std::size_t index);

 private:
  void Apply(const std::vector<int>& cpus);

  std::vector<int> allowed_;
  std::size_t position_ = 0;
  Clock::time_point since_ = Clock::now();
};

// The result line's metrics, printed with every digit.
class Metrics {
 public:
  void Add(std::string name, double value, std::string unit);
  std::string Json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

// A diagnostics line, printed before the result line.
void PrintNoise(const std::string& label, const SliceRate& r);
// The result line: the last line of standard output.
void PrintResult(bool correct, std::int64_t attempted, std::int64_t failed,
                 const Metrics& m);

int RunEndToEnd(const std::string& workload, std::uint64_t seed,
                double seconds, double fast_ref_s);
int RunTraced(const std::string& workload, std::uint64_t seed,
              double seconds);

}  // namespace crmcbench
