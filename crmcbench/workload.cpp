#include "workload.h"

#include <dirent.h>
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "harness/registry.h"

namespace crmcbench {

using namespace crmc;

Workload MakeWorkload(const std::string& name) {
  Workload w;
  harness::TrialSpec& s = w.spec;
  if (name == "sweep_general_large") {
    w.algo = "general";
    s.population = std::int64_t{1} << 20;
    s.num_active = 4096;
    s.channels = 256;
    s.rng = support::RngKind::kXoshiro;
    w.trials_per_slice = 100;
    w.slices_per_pass = 40;
    w.oracle_trials = 4;
  } else if (name == "sweep_small_lanes") {
    w.algo = "two_active";
    s.population = std::int64_t{1} << 20;
    s.num_active = 2;
    s.channels = 1024;
    s.rng = support::RngKind::kPhilox;
    s.lane_width = 32;
    w.threads = 2;
    w.trials_per_slice = 32768;
    w.slices_per_pass = 40;
    w.oracle_trials = 64;
  } else if (name == "robust_probing_hardened") {
    w.algo = "two_active";
    s.population = 65536;
    s.num_active = 2;
    s.channels = 64;
    s.rng = support::RngKind::kXoshiro;
    s.adversary.kind = adversary::Kind::kProbing;
    s.adversary.budget = 4096;
    s.robust.enabled = true;
    s.robust.policy = robust::PolicyKind::kHardened;
    w.trials_per_slice = 64;
    w.slices_per_pass = 40;
    w.oracle_trials = 4;
    w.success_is_confirmed = true;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

namespace {

// Base seed of the set-up's warm-up trials.
constexpr std::uint64_t kWarmUpSeed = 1;

// Base seed of slice k: a SplitMix64 mix of (run seed, k), so every slice
// draws a fresh trial range and the whole pass is a function of --seed.
std::uint64_t SliceSeed(std::uint64_t seed, std::int32_t k) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL +
                    static_cast<std::uint64_t>(k) * 0xd1b54a32d192ed03ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

sim::EngineConfig ConfigFor(const harness::TrialSpec& spec,
                            std::uint64_t seed) {
  sim::EngineConfig c;
  c.population = spec.population;
  c.num_active = spec.num_active;
  c.channels = spec.channels;
  c.max_rounds = spec.max_rounds;
  c.stop_when_solved = spec.stop_when_solved;
  c.rng = spec.rng;
  c.faults = spec.faults;
  c.adversary = spec.adversary;
  c.robust = spec.robust;
  c.seed = seed;
  return c;
}

TrialAggregate AggregateOf(const harness::TrialSetResult& r) {
  Digest d;
  for (const std::int64_t v : r.solved_rounds) {
    d.Add(static_cast<std::uint64_t>(v));
  }
  return {d.value(), static_cast<std::int64_t>(r.solved_rounds.size()),
          r.rounds_total, r.confirmed};
}

TrialAggregate AggregateOf(std::span<const sim::RunResult> runs) {
  Digest d;
  TrialAggregate a;
  for (const sim::RunResult& run : runs) {
    a.rounds_total += run.rounds_executed;
    if (!run.solved) continue;
    // RunTrials reports "solved in the R-th round", i.e. solved_round + 1.
    d.Add(static_cast<std::uint64_t>(run.solved_round + 1));
    ++a.solved;
    a.confirmed += run.confirmed;
  }
  a.solved_digest = d.value();
  return a;
}

DirectEngine::DirectEngine(const Workload& w,
                           const harness::ProtocolHandle& handle, bool lanes)
    : program_(handle.step_program()),
      runs_(static_cast<std::size_t>(w.trials_per_slice)),
      seeds_(runs_.size()) {
  if (lanes) trial_.emplace(w.spec.lane_width);
}

std::span<const sim::RunResult> DirectEngine::Run(
    const harness::TrialSpec& spec) {
  sim::EngineConfig config = ConfigFor(spec, spec.base_seed);
  if (trial_) {
    for (std::size_t i = 0; i < seeds_.size(); ++i) {
      seeds_[i] = spec.base_seed + i;
    }
    trial_->Run(config, *program_, seeds_, runs_);
    return runs_;
  }
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    config.seed = spec.base_seed + i;
    runs_[i] = batch_.Run(config, *program_);
  }
  return runs_;
}

void Run::Record(std::size_t k, const TrialAggregate& a) {
  ++executions[k];
  Check(k, a);
}

void Run::Check(std::size_t k, const TrialAggregate& a) {
  if (!first[k]) {
    first[k] = a;
  } else if (!(*first[k] == a)) {
    mismatch[k] = 1;
  }
}

std::int64_t Run::Attempted() const {
  std::int64_t n = 0;
  for (const std::int64_t e : executions) n += e;
  return n * w.trials_per_slice;
}

std::int64_t Run::Failed() const {
  std::int64_t failed = 0;
  for (std::size_t k = 0; k < first.size(); ++k) {
    if (executions[k] == 0) continue;
    const TrialAggregate& a = *first[k];
    const std::int64_t ok =
        mismatch[k] ? 0 : (w.success_is_confirmed ? a.confirmed : a.solved);
    failed += executions[k] * (w.trials_per_slice - ok);
  }
  return failed;
}

bool Run::Correct() const {
  for (const std::uint8_t m : mismatch) {
    if (m) return false;
  }
  return true;
}

Run SetUp(const std::string& workload, std::uint64_t seed) {
  const Clock::time_point t0 = Clock::now();
  Workload w = MakeWorkload(workload);
  harness::ProtocolHandle handle =
      harness::HandleFor(harness::AlgorithmByName(w.algo));
  Run run(std::move(w), std::move(handle));
  run.pass.assign(static_cast<std::size_t>(run.w.slices_per_pass), run.w.spec);
  for (std::size_t k = 0; k < run.pass.size(); ++k) {
    run.pass[k].base_seed = SliceSeed(seed, static_cast<std::int32_t>(k));
  }
  run.first.resize(run.pass.size());
  run.executions.assign(run.pass.size(), 0);
  run.mismatch.assign(run.pass.size(), 0);
  // The warm-up pays every first-call cost (scratch sized, pool started)
  // with the fewest trials that reach all of it: one lane chunk per thread.
  // Its trials are the same whatever --seed, so every run times the same
  // set-up work (a single trial's length depends on its seed; with the
  // pass's seed, robust set-up times clustered by seed).
  harness::TrialSpec warm_spec = run.w.spec;
  warm_spec.base_seed = kWarmUpSeed;
  const harness::TrialSetResult warm = harness::RunTrials(
      warm_spec, run.handle, run.w.spec.lane_width * run.w.threads, false,
      run.w.threads);
  run.setup_s = Since(t0);
  if (warm.solved_rounds.empty()) {
    throw std::runtime_error("warm-up trials did not solve");
  }
  return run;
}

std::pair<double, harness::TrialSetResult> TimeSlice(const Run& run,
                                                     std::size_t k,
                                                     std::int32_t threads) {
  const Clock::time_point t0 = Clock::now();
  harness::TrialSetResult r = harness::RunTrials(
      run.pass[k], run.handle, run.w.trials_per_slice, false, threads);
  return {Since(t0), std::move(r)};
}

namespace {

// The first `trials` trials of `spec` must agree field for field between
// the coroutine oracle and the batch engine, and the oracle's aggregate
// must equal RunTrials' on the same trials.
bool OracleMatches(const Run& run, const harness::TrialSpec& spec,
                   std::int32_t trials) {
  std::unique_ptr<sim::StepProgram> program = run.handle.step_program();
  sim::BatchEngine batch;
  std::vector<sim::RunResult> oracle;
  for (std::int32_t t = 0; t < trials; ++t) {
    const sim::EngineConfig config =
        ConfigFor(spec, spec.base_seed + static_cast<std::uint64_t>(t));
    sim::RunResult a = sim::Engine::Run(config, run.handle.coroutine);
    const sim::RunResult b = batch.Run(config, *program);
    const bool same =
        a.solved == b.solved && a.solved_round == b.solved_round &&
        a.rounds_executed == b.rounds_executed &&
        a.total_transmissions == b.total_transmissions &&
        a.confirmed == b.confirmed && a.epochs_used == b.epochs_used &&
        a.confirm_rounds == b.confirm_rounds &&
        a.backoff_rounds == b.backoff_rounds &&
        a.obfuscation_rounds == b.obfuscation_rounds &&
        a.adv_jams_spent == b.adv_jams_spent &&
        a.adv_rounds_held == b.adv_rounds_held;
    if (!same) return false;
    oracle.push_back(std::move(a));
  }
  const harness::TrialSetResult r =
      harness::RunTrials(spec, run.handle, trials, false, run.w.threads);
  return AggregateOf(oracle) == AggregateOf(r);
}

}  // namespace

void CheckDirect(Run& run) {
  DirectEngine direct(run.w, run.handle, run.w.spec.lane_width > 1);
  for (std::size_t k = 0; k < run.pass.size(); ++k) {
    run.Check(k, AggregateOf(direct.Run(run.pass[k])));
  }
}

void CheckOracle(Run& run) {
  if (!OracleMatches(run, run.pass[0], run.w.oracle_trials)) {
    run.mismatch[0] = 1;
  }
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) allowed_.push_back(c);
    }
  }
}

CpuRotation::~CpuRotation() { Apply(allowed_); }

void CpuRotation::Place(int threads) {
  if (allowed_.size() < 2) return;
  if (threads > 1) {
    Apply(allowed_);
    return;
  }
  if (Since(since_) >= kPeriodS) {
    position_ = (position_ + 1) % allowed_.size();
    since_ = Clock::now();
  }
  Apply({allowed_[position_]});
}

void CpuRotation::PinTo(std::size_t index) {
  if (allowed_.empty()) return;
  Apply({allowed_[index % allowed_.size()]});
  allowed_.clear();  // the destructor must not undo the pin
}

// Sets the affinity of every thread of the process (the worker pool's
// threads included). Best effort: a thread that exits meanwhile, or a
// refused call, leaves that thread where it was.
void CpuRotation::Apply(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) {
    sched_setaffinity(0, sizeof set, &set);
    return;
  }
  while (const dirent* entry = readdir(dir)) {
    const pid_t tid = static_cast<pid_t>(std::atoi(entry->d_name));
    if (tid > 0) sched_setaffinity(tid, sizeof set, &set);
  }
  closedir(dir);
}

// VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across execve,
// so a process started by a large parent would report the parent's peak.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void Metrics::Add(std::string name, double value, std::string unit) {
  items_.push_back({std::move(name), {value, std::move(unit)}});
}

std::string Metrics::Json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", items_[i].second.first);
    out += (i ? ", \"" : "\"") + items_[i].first + "\": {\"value\": " +
           value + ", \"unit\": \"" + items_[i].second.second + "\"}";
  }
  return out + "}";
}

void PrintNoise(const std::string& label, const SliceRate& r) {
  std::printf(
      "{\"host_noise\": {\"slices\": \"%s\", \"count\": %lld, "
      "\"quantile_slice_ms\": %.6g, \"median_slice_ms\": %.6g, "
      "\"median_over_quantile\": %.6g, \"slow_share\": %.6g}}\n",
      label.c_str(), static_cast<long long>(r.slices), r.quantile_s * 1e3,
      r.median_s * 1e3, r.median_over_quantile, r.slow_share);
}

void PrintResult(bool correct, std::int64_t attempted, std::int64_t failed,
                 const Metrics& m) {
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<long long>(attempted),
      static_cast<long long>(failed), m.Json().c_str());
}

}  // namespace crmcbench
