// crmc — command-line front end for the library.
//
//   crmc run   [--algo general] [--active 100] [--population 1048576]
//              [--channels 64] [--seed 1] [--cd strong|receiver|none]
//              [--trace] [--run-to-completion]
//              [--jam-rate P] [--erasure-rate P] [--flaky-cd P]
//              [--crash-rate P] [--fault-seed S]
//              [--adversary NAME] [--adversary-budget B] [--adversary-cap K]
//              [--adversary-obs activity|full] [--adversary-rate P]
//              [--adversary-seed S]
//   crmc race  [--active 2] [--population N] [--channels C] [--trials 200]
//   crmc sweep --vary channels --values 2,8,32,128,512
//              [--algo general] [--active 4096] [--population N]
//              [--trials 100] [--quantile 0.95]
//   crmc estimate [--active 512] [--population N] [--channels 64]
//              [--estimator geometric|density]
//   crmc drain [--packets 16] [--population N] [--channels C] [--seed 1]
//   crmc traffic [--arrival poisson] [--lambda 0.1] [--rounds 20000]
//              [--stations 64] [--algo general] [--lambdas 0.02,0.1,...]
//   crmc list
//
// Set CRMC_OUTPUT=csv for machine-readable tables.
#include <algorithm>
#include <atomic>
#include <exception>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "adversary/adversary.h"
#include "core/estimation.h"
#include "core/k_selection.h"
#include "harness/flags.h"
#include "harness/registry.h"
#include "harness/runner.h"
#include "harness/table.h"
#include "mac/faults.h"
#include "robust/robust.h"
#include "sim/engine.h"
#include "sim/trace.h"
#include "simd/dispatch.h"
#include "support/rng.h"
#include "traffic/traffic.h"

namespace {

using namespace crmc;

[[noreturn]] void Usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      "usage: crmc <command> [flags]\n"
      "commands:\n"
      "  run       one execution; prints outcome, phases, optional trace\n"
      "  race      all algorithms on one instance (mean/p95/max rounds)\n"
      "  sweep     one algorithm across a parameter range\n"
      "  estimate  active-count estimation (geometric or density)\n"
      "  drain     k-selection: deliver every active node's packet\n"
      "  traffic   streaming workload: dynamic arrivals feed per-station\n"
      "            packet queues; each backlog burst runs the protocol as\n"
      "            one contention episode (throughput/latency/fairness)\n"
      "  simd      kernel backends: compiled/available/active\n"
      "            (--require-vector exits 1 unless a vector backend is\n"
      "            active — the perf tier's dispatch canary)\n"
      "  list      registered algorithms\n"
      "common flags: --active N  --population N  --channels C  --seed S\n"
      "              --simd scalar|sse4.2|avx2|avx512|auto (force kernel\n"
      "              backend)\n"
      "run flags:    --algo NAME  --cd strong|receiver|none  --trace\n"
      "              --run-to-completion  --rng xoshiro|philox\n"
      "              --jam-rate P --erasure-rate P --flaky-cd P\n"
      "              --crash-rate P --fault-seed S   (oblivious faults)\n"
      "adversary flags (run/race/sweep — budgeted reactive jamming):\n"
      "              --adversary none|oblivious_rate|primary_camper|\n"
      "                          greedy_reactive|random_budgeted|\n"
      "                          phase_tracking|lookahead|learning|probing\n"
      "              --adversary-budget B (total channel-rounds)\n"
      "              --adversary-cap K    (max channels jammed per round)\n"
      "              --adversary-obs activity|full (eavesdropping strength)\n"
      "              --adversary-rate P   (oblivious_rate only)\n"
      "              --adversary-seed S   (selects the jamming schedule)\n"
      "              --probe-budget B     (probing only: calibration jams\n"
      "                          spent mapping the verdict rounds; 0 uses\n"
      "                          the built-in default)\n"
      "robust flags (run/race/sweep — confirmed-delivery wrapper):\n"
      "              --robust             (enable the robust layer)\n"
      "              --robust-policy static|adaptive|hardened (self-tuning\n"
      "                          quorum/honeypots; hardened adds jittered\n"
      "                          pauses + dummy confirm rounds; default\n"
      "                          static)\n"
      "              --max-epochs E       (protocol restarts, default 8)\n"
      "              --confirm-attempts A (echo rounds per candidate)\n"
      "              --backoff B          (backoff base, idle rounds)\n"
      "              --backoff-cap B      (backoff ceiling)\n"
      "              --epoch-budget R     (watchdog rounds/epoch; 0 derives)\n"
      "              --stall-budget R     (stall watchdog; 0 derives)\n"
      "traffic flags (streaming workload over the engine flags above):\n"
      "              --arrival poisson|bursty|scripted|adversarial\n"
      "              --lambda R       (poisson packets/round, default 0.1)\n"
      "              --burst-size B --burst-period T (bursty arrivals)\n"
      "              --script r:s[:k],...  (scripted arrival batches)\n"
      "              --packet-budget B (adversarial; bursts of --burst-size)\n"
      "              --stations N     (packet queues, default 64)\n"
      "              --rounds H       (arrival horizon, default 20000;\n"
      "              --max-rounds caps each episode instead)\n"
      "              --drain          (run on until the queues empty)\n"
      "              --traffic-seed S (workload streams; independent of the\n"
      "              engine --seed, which seeds episode e as seed+e)\n"
      "              --trajectory-stride R  (queue samples; 0 auto, -1 off)\n"
      "              --trajectory     (print the sampled queue trajectory)\n"
      "              --lambdas a,b,c  (poisson rate sweep, one table row\n"
      "              per rate; --threads parallelizes the points)\n"
      "              --population 0 sizes n to the station count; --trials\n"
      "              and --active do not apply (the backlog decides |A|)\n"
      "sweep flags:  --algo NAME --vary channels|active --values a,b,c\n"
      "              --trials T --quantile Q\n"
      "race/sweep:   --max-rounds R caps every trial\n"
      "              --threads N splits trials over N worker threads\n"
      "              (0 = hardware concurrency; statistics are identical\n"
      "              for every N — trials are seed-indexed, not\n"
      "              thread-indexed)\n"
      "              --rng xoshiro|philox picks the draw generator\n"
      "              --no-batch forces the coroutine engine (the batch\n"
      "              fast path is bit-exact, so results are identical)\n"
      "              --no-fused forces the generic materialized round path\n"
      "              (disables StepProgram::FastRound; bit-exact, for\n"
      "              debugging the fused fast rounds without a rebuild)\n"
      "              --lanes W runs W trials per SIMD lockstep chunk on\n"
      "              the trial-parallel executor (requires --rng philox;\n"
      "              statistics are identical for every W); only\n"
      "              two_active runs in lanes, other protocols run per\n"
      "              trial and print a one-line notice\n";
  std::exit(2);
}

mac::CdModel ParseCd(const std::string& name) {
  if (name == "strong") return mac::CdModel::kStrong;
  if (name == "receiver") return mac::CdModel::kReceiverOnly;
  if (name == "none") return mac::CdModel::kNone;
  Usage("unknown CD model '" + name + "'");
}

std::vector<std::int64_t> ParseValues(const std::string& csv) {
  std::vector<std::int64_t> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(std::stoll(item));
  }
  if (out.empty()) Usage("--values expects a comma-separated list");
  return out;
}

std::vector<double> ParseDoubleValues(const std::string& csv,
                                      const std::string& flag) {
  std::vector<double> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(std::stod(item));
  }
  if (out.empty()) Usage("--" + flag + " expects a comma-separated list");
  return out;
}

// --script round:station[:packets],... (packets defaults to 1).
std::vector<traffic::ScriptedArrival> ParseScript(const std::string& text) {
  std::vector<traffic::ScriptedArrival> script;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    std::vector<std::int64_t> parts;
    std::stringstream es(item);
    std::string field;
    while (std::getline(es, field, ':')) parts.push_back(std::stoll(field));
    if (parts.size() != 2 && parts.size() != 3) {
      Usage("--script entries are round:station[:packets], got '" + item +
            "'");
    }
    traffic::ScriptedArrival arrival;
    arrival.round = parts[0];
    arrival.station = parts[1];
    arrival.packets = parts.size() == 3 ? parts[2] : 1;
    script.push_back(arrival);
  }
  return script;
}

support::RngKind ParseRng(const std::string& name) {
  const std::optional<support::RngKind> kind = support::ParseRngKind(name);
  if (!kind) Usage("unknown rng '" + name + "' (xoshiro|philox)");
  return *kind;
}

// Global --simd flag: force the kernel dispatch backend before any trial
// runs. "auto" re-probes the CPU; anything unavailable is a hard error so
// a script asking for avx2 never silently measures scalar.
void ApplySimdFlag(const harness::Flags& flags) {
  const std::optional<std::string> name = flags.GetString("simd");
  if (!name) return;
  const std::optional<simd::Backend> backend = simd::ParseBackend(*name);
  if (!backend) Usage("unknown simd backend '" + *name + "'");
  if (!simd::SetBackend(*backend)) {
    Usage("simd backend '" + *name +
          "' is not available in this build/CPU");
  }
}

// Shared oblivious-fault flag block (run/traffic). FaultSpec::Validate does
// the real checking when the engine consumes the spec; this only parses.
mac::FaultSpec ParseFaultFlags(const harness::Flags& flags) {
  mac::FaultSpec faults;
  faults.jam_rate = flags.GetDoubleOr("jam-rate", 0.0);
  faults.erasure_rate = flags.GetDoubleOr("erasure-rate", 0.0);
  faults.flaky_cd_rate = flags.GetDoubleOr("flaky-cd", 0.0);
  faults.crash_rate = flags.GetDoubleOr("crash-rate", 0.0);
  faults.fault_seed =
      static_cast<std::uint64_t>(flags.GetIntOr("fault-seed", 0));
  return faults;
}

// Shared adversary flag block (run/race/sweep). The spec's own Validate and
// ValidateEngineConfig do the real checking; this only parses.
adversary::AdversarySpec ParseAdversaryFlags(const harness::Flags& flags) {
  adversary::AdversarySpec spec;
  const std::string name = flags.GetStringOr("adversary", "none");
  const std::optional<adversary::Kind> kind =
      adversary::ParseAdversaryKind(name);
  if (!kind || *kind == adversary::Kind::kScripted) {
    Usage("unknown adversary '" + name +
          "' (none|oblivious_rate|primary_camper|greedy_reactive|"
          "random_budgeted|phase_tracking|lookahead|learning|probing)");
  }
  spec.kind = *kind;
  spec.rate = flags.GetDoubleOr("adversary-rate", 0.0);
  spec.budget = flags.GetIntOr("adversary-budget", 0);
  spec.probe_budget = flags.GetIntOr("probe-budget", 0);
  spec.per_round_cap =
      static_cast<std::int32_t>(flags.GetIntOr("adversary-cap", 1));
  spec.adv_seed =
      static_cast<std::uint64_t>(flags.GetIntOr("adversary-seed", 0));
  const std::string obs = flags.GetStringOr("adversary-obs", "full");
  const std::optional<adversary::ObsMode> mode =
      adversary::ParseObsMode(obs);
  if (!mode) Usage("unknown adversary-obs '" + obs + "' (activity|full)");
  spec.obs = *mode;
  return spec;
}

// Shared robust flag block (run/race/sweep). RobustSpec::Validate rejects
// tuning flags given without --robust with a distinct config error.
robust::RobustSpec ParseRobustFlags(const harness::Flags& flags) {
  robust::RobustSpec spec;
  spec.enabled = flags.GetBoolOr("robust", false);
  if (const std::optional<std::string> policy =
          flags.GetString("robust-policy")) {
    const std::optional<robust::PolicyKind> kind =
        robust::ParsePolicyKind(*policy);
    if (!kind) {
      Usage("unknown robust policy '" + *policy +
            "' (expected static|adaptive|hardened)");
    }
    spec.policy = *kind;
  }
  spec.max_epochs =
      static_cast<std::int32_t>(flags.GetIntOr("max-epochs", spec.max_epochs));
  spec.confirm_attempts = static_cast<std::int32_t>(
      flags.GetIntOr("confirm-attempts", spec.confirm_attempts));
  spec.backoff_base = flags.GetIntOr("backoff", spec.backoff_base);
  spec.backoff_cap = flags.GetIntOr("backoff-cap", spec.backoff_cap);
  spec.epoch_round_budget =
      flags.GetIntOr("epoch-budget", spec.epoch_round_budget);
  spec.stall_round_budget =
      flags.GetIntOr("stall-budget", spec.stall_round_budget);
  return spec;
}

sim::EngineConfig BaseConfig(const harness::Flags& flags) {
  sim::EngineConfig config;
  config.num_active =
      static_cast<std::int32_t>(flags.GetIntOr("active", 100));
  config.population = flags.GetIntOr("population", 1 << 20);
  config.channels =
      static_cast<std::int32_t>(flags.GetIntOr("channels", 64));
  config.seed = static_cast<std::uint64_t>(flags.GetIntOr("seed", 1));
  return config;
}

void RejectUnknownFlags(const harness::Flags& flags) {
  const auto unknown = flags.UnconsumedFlags();
  if (!unknown.empty()) Usage("unknown flag --" + unknown.front());
}

// An algorithm specified for |A| = 2 runs with it; a note says so when the
// flags asked for another size.
void ForceTwoActive(const harness::AlgorithmInfo& info,
                    std::int32_t& num_active) {
  if (!info.requires_two_active || num_active == 2) return;
  std::cerr << "note: " << info.name << " is specified for --active 2; "
            << "forcing it\n";
  num_active = 2;
}

int CmdList() {
  harness::Table table({"name", "description"});
  for (const harness::AlgorithmInfo& info : harness::Algorithms()) {
    table.Row().Cells(info.name, info.description);
  }
  table.Print(std::cout);
  return 0;
}

int CmdRun(const harness::Flags& flags) {
  sim::EngineConfig config = BaseConfig(flags);
  const std::string algo = flags.GetStringOr("algo", "general");
  config.cd_model = ParseCd(flags.GetStringOr("cd", "strong"));
  config.record_trace = flags.GetBoolOr("trace", false);
  config.stop_when_solved = !flags.GetBoolOr("run-to-completion", false);
  config.max_rounds = flags.GetIntOr("max-rounds", 4'000'000);
  config.faults = ParseFaultFlags(flags);
  config.adversary = ParseAdversaryFlags(flags);
  config.robust = ParseRobustFlags(flags);
  config.rng = ParseRng(flags.GetStringOr("rng", "xoshiro"));
  RejectUnknownFlags(flags);

  const harness::AlgorithmInfo& info = harness::AlgorithmByName(algo);
  ForceTwoActive(info, config.num_active);
  const sim::RunResult r = sim::Engine::Run(config, info.make());

  if (config.record_trace) {
    sim::RenderTrace(r.trace,
                     std::min<mac::ChannelId>(config.channels, 100), 80,
                     std::cout);
    std::cout << "\n";
  }
  if (r.solved) {
    std::cout << "solved in round " << r.solved_round + 1 << "\n";
  } else if (r.assumption_violated) {
    std::cout << "ABORTED after " << r.rounds_executed
              << " rounds (fault broke a protocol assumption)\n";
  } else {
    std::cout << "NOT solved within " << r.rounds_executed << " rounds";
    if (r.wedged) std::cout << " (wedged: " << r.stall_rounds
                            << " trailing stall rounds)";
    std::cout << "\n";
  }
  std::cout << "rounds executed: " << r.rounds_executed
            << ", transmissions: " << r.total_transmissions
            << " (max per node " << r.max_node_transmissions << ")\n";
  if (config.faults.Any() ||
      config.adversary.kind == adversary::Kind::kObliviousRate) {
    std::cout << "faults injected: " << r.faults_injected << " (jams "
              << r.jams_injected << ", erasures " << r.erasures_injected
              << ", cd flips " << r.cd_flips_injected << ", crashes "
              << r.crashed_nodes << ")\n";
  }
  if (config.adversary.Budgeted()) {
    std::cout << "adversary " << adversary::ToString(config.adversary.kind)
              << ": spent " << r.adv_jams_spent << "/"
              << config.adversary.budget << " jams, " << r.adv_jams_effective
              << " suppressed a lone delivery, held " << r.adv_rounds_held
              << " rounds (echo jams " << r.adv_jams_echo << ", backoff jams "
              << r.adv_jams_backoff << ")\n";
  }
  if (config.robust.enabled) {
    std::cout << "robust: " << (r.confirmed ? "confirmed" : "UNCONFIRMED")
              << ", epochs " << r.epochs_used << " (retries " << r.retries
              << "), confirm rounds " << r.confirm_rounds
              << ", backoff rounds " << r.backoff_rounds << "\n";
    if (config.robust.Adaptive()) {
      std::cout << "adaptive policy: quorum peak " << r.confirm_quorum_peak
                << ", extra echoes " << r.adaptive_confirm_extra
                << ", honeypot rounds trimmed " << r.adaptive_backoff_trimmed
                << "\n";
    }
    if (config.robust.Hardened()) {
      std::cout << "hardened policy: obfuscation rounds "
                << r.obfuscation_rounds << ", probe rounds detected "
                << r.probe_rounds_detected << "\n";
    }
  }
  for (const char* phase : {"reduce_done", "rename_done", "elect_done"}) {
    const std::int64_t mark = r.LastPhaseMark(phase);
    // Marks record the round index after the step = rounds consumed.
    if (mark >= 0) std::cout << phase << " after round " << mark << "\n";
  }
  return r.solved ? 0 : 1;
}

// Trial-parallel executor stats accumulated over a command's RunTrials
// calls, reported as one trailing line when --lanes > 1 so the user can see
// whether the lanes actually engaged (fallbacks) and how much of the work
// stayed fused (lockstep lane rounds + FastRound) vs materialized.
struct TrialStatsLine {
  std::int32_t lanes_peak = 0;
  std::int64_t fallbacks = 0;
  std::int64_t trials = 0;
  std::int64_t fused_rounds = 0;
  std::int64_t rounds = 0;

  void Add(const harness::TrialSetResult& r, std::int32_t trials_in) {
    lanes_peak = std::max(lanes_peak, r.trial_lanes_peak);
    fallbacks += r.trial_fallbacks;
    trials += trials_in;
    fused_rounds += r.fused_rounds_total;
    rounds += r.rounds_total;
  }

  void Print(std::int32_t lane_width) const {
    if (lane_width <= 1) return;
    std::cout << "[trial] lanes " << lane_width << " (peak chunk "
              << lanes_peak << "), per-trial fallbacks " << fallbacks << "/"
              << trials << ", fused rounds " << fused_rounds << "/" << rounds
              << "\n";
  }
};

int CmdRace(const harness::Flags& flags) {
  harness::TrialSpec spec;
  spec.num_active = static_cast<std::int32_t>(flags.GetIntOr("active", 100));
  spec.population = flags.GetIntOr("population", 1 << 20);
  spec.channels = static_cast<std::int32_t>(flags.GetIntOr("channels", 64));
  spec.max_rounds = flags.GetIntOr("max-rounds", spec.max_rounds);
  spec.use_batch_engine = !flags.GetBoolOr("no-batch", false);
  spec.fused_rounds = !flags.GetBoolOr("no-fused", false);
  spec.lane_width = static_cast<std::int32_t>(flags.GetIntOr("lanes", 1));
  spec.rng = ParseRng(flags.GetStringOr("rng", "xoshiro"));
  spec.adversary = ParseAdversaryFlags(flags);
  spec.robust = ParseRobustFlags(flags);
  const auto trials = static_cast<std::int32_t>(flags.GetIntOr("trials", 200));
  const auto threads =
      static_cast<std::int32_t>(flags.GetIntOr("threads", 0));
  RejectUnknownFlags(flags);

  // Under an adversary the failure *breakdown* is the story (timeouts vs
  // wedged livelocks vs deluded silent exits) plus how much budget the
  // jammer actually landed. With the robust wrapper on, confirmed
  // deliveries and epoch consumption join the table.
  const bool adv = spec.adversary.Budgeted();
  const bool rob = spec.robust.enabled;
  std::vector<std::string> columns{"algorithm", "mean", "p95", "max",
                                   "unsolved"};
  if (adv) {
    columns.insert(columns.end(), {"timed_out", "wedged", "deluded",
                                   "adv_spent", "adv_effective"});
  }
  if (rob) columns.insert(columns.end(), {"confirmed", "epochs"});
  harness::Table table(columns);
  TrialStatsLine trial_stats;
  for (const harness::AlgorithmInfo& info : harness::Algorithms()) {
    if (info.requires_two_active && spec.num_active != 2) continue;
    const harness::TrialSetResult r = harness::RunTrials(
        spec, harness::HandleFor(info), trials, /*keep_runs=*/false, threads);
    trial_stats.Add(r, trials);
    auto row = table.Row();
    row.Cells(info.name, r.summary.mean, r.summary.p95, r.summary.max,
              static_cast<std::int64_t>(r.unsolved));
    if (adv) {
      row.Cells(static_cast<std::int64_t>(r.timed_out),
                static_cast<std::int64_t>(r.wedged),
                static_cast<std::int64_t>(r.deluded), r.adv_jams_spent,
                r.adv_jams_effective);
    }
    if (rob) {
      row.Cells(static_cast<std::int64_t>(r.confirmed), r.epochs_used);
    }
  }
  table.Print(std::cout);
  trial_stats.Print(spec.lane_width);
  return 0;
}

int CmdSweep(const harness::Flags& flags) {
  const std::string algo = flags.GetStringOr("algo", "general");
  const std::string vary = flags.GetStringOr("vary", "channels");
  const auto values =
      ParseValues(flags.GetStringOr("values", "2,8,32,128,512,2048"));
  const auto trials = static_cast<std::int32_t>(flags.GetIntOr("trials", 100));
  const double quantile = flags.GetDoubleOr("quantile", 0.95);
  harness::TrialSpec base;
  base.num_active = static_cast<std::int32_t>(flags.GetIntOr("active", 4096));
  base.population = flags.GetIntOr("population", 1 << 20);
  base.channels = static_cast<std::int32_t>(flags.GetIntOr("channels", 64));
  base.max_rounds = flags.GetIntOr("max-rounds", base.max_rounds);
  base.use_batch_engine = !flags.GetBoolOr("no-batch", false);
  base.fused_rounds = !flags.GetBoolOr("no-fused", false);
  base.lane_width = static_cast<std::int32_t>(flags.GetIntOr("lanes", 1));
  base.rng = ParseRng(flags.GetStringOr("rng", "xoshiro"));
  base.adversary = ParseAdversaryFlags(flags);
  base.robust = ParseRobustFlags(flags);
  const auto threads =
      static_cast<std::int32_t>(flags.GetIntOr("threads", 0));
  RejectUnknownFlags(flags);
  if (vary != "channels" && vary != "active") {
    Usage("--vary must be 'channels' or 'active'");
  }
  const harness::AlgorithmInfo& info = harness::AlgorithmByName(algo);
  if (info.requires_two_active && vary == "active") {
    Usage(algo +
          " is specified for --active 2, so --vary active has nothing to "
          "sweep; use --vary channels");
  }
  ForceTwoActive(info, base.num_active);

  const harness::ProtocolHandle handle = harness::HandleFor(info);
  std::string quantile_label = "q";
  quantile_label += harness::FormatDouble(quantile, 2);
  harness::Table table({vary, "mean", quantile_label, "max"});
  TrialStatsLine trial_stats;
  for (const std::int64_t v : values) {
    harness::TrialSpec spec = base;
    if (vary == "channels") {
      spec.channels = static_cast<std::int32_t>(v);
    } else {
      spec.num_active = static_cast<std::int32_t>(v);
    }
    const harness::TrialSetResult r = harness::RunTrials(
        spec, handle, trials, /*keep_runs=*/false, threads);
    trial_stats.Add(r, trials);
    table.Row().Cells(v, r.summary.mean,
                      harness::Quantile(r.solved_rounds, quantile),
                      r.summary.max);
  }
  table.Print(std::cout);
  trial_stats.Print(base.lane_width);
  return 0;
}

int CmdEstimate(const harness::Flags& flags) {
  sim::EngineConfig config = BaseConfig(flags);
  const std::string estimator =
      flags.GetStringOr("estimator", "geometric");
  RejectUnknownFlags(flags);
  config.stop_when_solved = false;
  const auto factory = estimator == "geometric"
                           ? core::MakeGeometricEstimateOnly()
                       : estimator == "density"
                           ? core::MakeDensityEstimateOnly()
                           : (Usage("unknown estimator '" + estimator + "'"),
                              sim::ProtocolFactory{});
  const sim::RunResult r = sim::Engine::Run(config, factory);
  const auto exponents = r.MetricValues("estimate_log2");
  std::cout << "agreed estimate: 2^" << exponents.front() << " = "
            << (std::int64_t{1} << exponents.front()) << "  (true |A| = "
            << config.num_active << ") in " << r.rounds_executed
            << " rounds\n";
  return 0;
}

int CmdDrain(const harness::Flags& flags) {
  sim::EngineConfig config = BaseConfig(flags);
  config.num_active =
      static_cast<std::int32_t>(flags.GetIntOr("packets", 16));
  RejectUnknownFlags(flags);
  config.stop_when_solved = false;
  config.max_rounds = 16'000'000;
  const sim::RunResult r =
      sim::Engine::Run(config, core::MakeKSelection());
  std::cout << "delivered " << r.MetricValues("delivered_instance").size()
            << "/" << config.num_active << " packets in "
            << r.rounds_executed << " rounds\n";
  return r.all_terminated ? 0 : 1;
}

int CmdTraffic(const harness::Flags& flags) {
  // One streaming trace is a single timeline, not a trial set; the sweep
  // axis here is the arrival rate. Both rejections name the pair (the
  // --backoff-cap precedent).
  flags.RejectCombination(
      "trials", "`crmc traffic`",
      "a streaming trace is one timeline, not a trial set; sweep the "
      "arrival rate with --lambdas instead");
  flags.RejectCombination(
      "active", "`crmc traffic`",
      "the live backlog decides each episode's activation set");

  traffic::TrafficSpec spec;
  const std::string arrival_name = flags.GetStringOr("arrival", "poisson");
  const std::optional<traffic::ArrivalKind> kind =
      traffic::ParseArrivalKind(arrival_name);
  if (!kind) {
    Usage("unknown arrival '" + arrival_name +
          "' (poisson|bursty|scripted|adversarial)");
  }
  spec.arrival = *kind;
  spec.lambda = flags.GetDoubleOr(
      "lambda", spec.arrival == traffic::ArrivalKind::kPoisson ? 0.1 : 0.0);
  spec.burst_size = flags.GetIntOr("burst-size", 0);
  spec.burst_period = flags.GetIntOr("burst-period", 0);
  if (const std::optional<std::string> text = flags.GetString("script")) {
    spec.script = ParseScript(*text);
  }
  spec.packet_budget = flags.GetIntOr("packet-budget", 0);
  spec.stations = static_cast<std::int32_t>(flags.GetIntOr("stations", 64));
  spec.horizon_rounds = flags.GetIntOr("rounds", 20'000);
  spec.drain = flags.GetBoolOr("drain", false);
  spec.traffic_seed =
      static_cast<std::uint64_t>(flags.GetIntOr("traffic-seed", 0));
  spec.trajectory_stride = flags.GetIntOr("trajectory-stride", 0);
  const bool show_trajectory = flags.GetBoolOr("trajectory", false);

  harness::TrialSpec engine;
  engine.population = flags.GetIntOr("population", 0);  // 0: cover stations
  engine.channels = static_cast<std::int32_t>(flags.GetIntOr("channels", 32));
  engine.max_rounds = flags.GetIntOr("max-rounds", 4096);  // per episode
  engine.base_seed = static_cast<std::uint64_t>(flags.GetIntOr("seed", 1));
  engine.use_batch_engine = !flags.GetBoolOr("no-batch", false);
  engine.fused_rounds = !flags.GetBoolOr("no-fused", false);
  engine.lane_width = static_cast<std::int32_t>(flags.GetIntOr("lanes", 1));
  engine.rng = ParseRng(flags.GetStringOr("rng", "xoshiro"));
  engine.faults = ParseFaultFlags(flags);
  engine.adversary = ParseAdversaryFlags(flags);
  engine.robust = ParseRobustFlags(flags);

  const std::string algo = flags.GetStringOr("algo", "general");
  const std::optional<std::string> lambdas_csv = flags.GetString("lambdas");
  const auto threads =
      static_cast<std::int32_t>(flags.GetIntOr("threads", 0));
  RejectUnknownFlags(flags);

  const harness::AlgorithmInfo& info = harness::AlgorithmByName(algo);
  const harness::ProtocolHandle handle = harness::HandleFor(info);

  if (lambdas_csv) {
    if (spec.arrival != traffic::ArrivalKind::kPoisson) {
      Usage("--lambdas sweeps the poisson arrival rate; drop --arrival " +
            arrival_name);
    }
    const std::vector<double> lambdas =
        ParseDoubleValues(*lambdas_csv, "lambdas");
    std::vector<traffic::TrafficResult> results(lambdas.size());
    const std::size_t workers = std::min(
        lambdas.size(),
        threads > 0
            ? static_cast<std::size_t>(threads)
            : std::max<std::size_t>(1, std::thread::hardware_concurrency()));
    // Points are independent traces; claim them off a shared counter. The
    // first exception wins and is rethrown after the join.
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex error_mu;
    auto work = [&] {
      for (std::size_t i = next.fetch_add(1); i < lambdas.size();
           i = next.fetch_add(1)) {
        if (failed.load()) return;
        try {
          traffic::TrafficSpec point = spec;
          point.lambda = lambdas[i];
          results[i] = traffic::RunTraffic(point, engine, handle,
                                           info.requires_two_active);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (!error) error = std::current_exception();
          failed.store(true);
          return;
        }
      }
    };
    std::vector<std::thread> pool;
    for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(work);
    work();
    for (std::thread& t : pool) t.join();
    if (error) std::rethrow_exception(error);

    harness::Table table({"lambda", "arrivals", "delivered", "throughput",
                          "p50", "p95", "p99", "jain", "backlog"});
    for (std::size_t i = 0; i < lambdas.size(); ++i) {
      const traffic::TrafficResult& r = results[i];
      table.Row().Cells(lambdas[i], r.arrivals, r.delivered, r.throughput,
                        r.latency_p50, r.latency_p95, r.latency_p99,
                        r.jain_fairness, r.backlog_remaining);
    }
    table.Print(std::cout);
    return 0;
  }

  const traffic::TrafficResult r =
      traffic::RunTraffic(spec, engine, handle, info.requires_two_active);
  std::cout << "arrivals " << r.arrivals << ", delivered " << r.delivered
            << ", backlog " << r.backlog_remaining << " (peak "
            << r.backlog_peak << ") over " << r.rounds << " rounds ("
            << r.idle_rounds << " idle)\n";
  std::cout << "throughput " << harness::FormatDouble(r.throughput, 4)
            << " packets/round\n";
  std::cout << "episodes " << r.episodes << " (failed " << r.failed_episodes
            << ", singleton " << r.singleton_deliveries << ", batch "
            << r.engine_episodes_batch << ", coroutine "
            << r.engine_episodes_coroutine << ")\n";
  if (r.delivered > 0) {
    std::cout << "latency mean " << harness::FormatDouble(r.mean_latency, 2)
              << ", p50 " << harness::FormatDouble(r.latency_p50, 1)
              << ", p95 " << harness::FormatDouble(r.latency_p95, 1)
              << ", p99 " << harness::FormatDouble(r.latency_p99, 1) << "\n";
  }
  std::cout << "jain fairness " << harness::FormatDouble(r.jain_fairness, 4)
            << "\n";
  if (spec.arrival == traffic::ArrivalKind::kAdversarial) {
    std::cout << "adversarial packets placed " << r.adv_packets_placed << "/"
              << spec.packet_budget << "\n";
  }
  if (show_trajectory && !r.queue_trajectory.empty()) {
    harness::Table table({"round", "backlog", "max_queue"});
    for (const traffic::QueueSample& s : r.queue_trajectory) {
      table.Row().Cells(s.round, s.backlog, s.max_queue);
    }
    table.Print(std::cout);
  }
  return 0;
}

int CmdSimd(const harness::Flags& flags) {
  const bool require_vector = flags.GetBoolOr("require-vector", false);
  RejectUnknownFlags(flags);
  harness::Table table({"backend", "compiled", "available", "active"});
  const simd::Backend active = simd::ActiveBackend();
  for (const simd::Backend backend : simd::AllBackends()) {
    table.Row().Cells(simd::ToString(backend),
                      simd::BackendCompiled(backend) ? "yes" : "no",
                      simd::BackendAvailable(backend) ? "yes" : "no",
                      backend == active ? "yes" : "no");
  }
  table.Print(std::cout);
  if (require_vector && active == simd::Backend::kScalar) {
    std::cerr << "error: --require-vector, but dispatch is scalar\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Usage();
  const std::string command = argv[1];
  const harness::Flags flags = harness::Flags::Parse(argc - 1, argv + 1);
  try {
    ApplySimdFlag(flags);
    if (command == "list") return CmdList();
    if (command == "run") return CmdRun(flags);
    if (command == "race") return CmdRace(flags);
    if (command == "sweep") return CmdSweep(flags);
    if (command == "estimate") return CmdEstimate(flags);
    if (command == "drain") return CmdDrain(flags);
    if (command == "traffic") return CmdTraffic(flags);
    if (command == "simd") return CmdSimd(flags);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  Usage("unknown command '" + command + "'");
}
