// crmc benchmark program: runs one workload for a fixed number of seconds,
// checks its outputs, and prints one JSON result line.
//
//   crmcbench --workload NAME --seed N --seconds S --trace 0|1
//             [--setup-sample I] [--fast-ref-ms X]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// procedure (traced.cpp) and prints the per-layer metrics instead.
// --setup-sample I only performs the set-up (through the first warm-up
// RunTrials call) and prints its duration, so run.py can sample set-up
// time in fresh processes; a single-threaded workload's I-th sample runs
// on the I-th allowed CPU, so the samples spread over the host's CPUs.
// --fast-ref-ms is the fastest low-quantile slice time earlier runs of the
// workload saw; it only feeds the host-noise diagnostics. See README.md.
#include <sys/personality.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "workload.h"

namespace crmcbench {

int RunEndToEnd(const std::string& workload, std::uint64_t seed,
                double seconds, double fast_ref_s) {
  Run run = SetUp(workload, seed);
  const std::size_t slices = run.pass.size();
  std::vector<double> slice_s;
  double solved_round_sum = 0.0;
  std::int64_t solved_count = 0;
  CpuRotation cpus;
  const Clock::time_point t0 = Clock::now();
  // At least one whole pass, then as many more slices as the time allows.
  for (std::size_t i = 0; i < slices || Since(t0) < seconds; ++i) {
    const std::size_t k = i % slices;
    cpus.Place(run.w.threads);
    auto [dt, r] = TimeSlice(run, k, run.w.threads);
    slice_s.push_back(dt);
    run.Record(k, AggregateOf(r));
    if (i < slices) {
      for (const std::int64_t v : r.solved_rounds) {
        solved_round_sum += static_cast<double>(v);
      }
      solved_count += static_cast<std::int64_t>(r.solved_rounds.size());
    }
  }
  const double rss_mb = PeakRssMb();
  CheckDirect(run);
  CheckOracle(run);

  const SliceRate rate =
      RateFromSlices(slice_s, run.w.trials_per_slice, fast_ref_s);
  PrintNoise("RunTrials", rate);
  const std::int64_t attempted = run.Attempted();
  const std::int64_t failed = run.Failed();
  Metrics m;
  m.Add("trials_per_s", rate.rate, "1/s");
  m.Add("setup_s", run.setup_s, "s");
  m.Add("peak_rss_mb", rss_mb, "MB");
  m.Add("success_frac",
        static_cast<double>(attempted - failed) /
            static_cast<double>(attempted),
        "ratio");
  m.Add("solved_rounds_mean",
        solved_count ? solved_round_sum / static_cast<double>(solved_count)
                     : 0.0,
        "rounds");
  PrintResult(run.Correct(), attempted, failed, m);
  return 0;
}

}  // namespace crmcbench

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  int setup_sample = -1;
  double fast_ref_ms = 0.0;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
      have_seconds = true;
    } else if (flag == "--trace") {
      a.trace = std::stoi(value);
    } else if (flag == "--setup-sample") {
      a.setup_sample = std::stoi(value);
    } else if (flag == "--fast-ref-ms") {
      a.fast_ref_ms = std::stod(value);
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds) {
    throw std::invalid_argument(
        "--workload, --seed and --seconds are required");
  }
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  if (a.trace != 0 && a.trace != 1) {
    throw std::invalid_argument("--trace must be 0 or 1");
  }
  if (a.setup_sample < -1) {
    throw std::invalid_argument("--setup-sample must be >= 0");
  }
  crmcbench::MakeWorkload(a.workload);  // rejects an unknown name up front
  return a;
}

// Re-executes the program once with address-space randomization off.
// With it on, every process gets its own stack, heap and library
// addresses, and with them its own cache-set and aliasing conflicts: the
// fastest slices of sweep_general_large differed by 8% (IQR over median)
// between processes, and by 3% with randomization off. Best effort: if
// the personality cannot be changed, the run goes on randomized.
void DisableAddressRandomization(char** argv) {
  const int current = personality(0xffffffff);
  if (current == -1 || (current & ADDR_NO_RANDOMIZE) != 0) return;
  if (personality(static_cast<unsigned long>(current) | ADDR_NO_RANDOMIZE) ==
      -1) {
    return;
  }
  execv("/proc/self/exe", argv);
}

}  // namespace

int main(int argc, char** argv) {
  DisableAddressRandomization(argv);
  try {
    const Args a = ParseArgs(argc, argv);
    if (a.setup_sample >= 0) {
      if (crmcbench::MakeWorkload(a.workload).threads == 1) {
        crmcbench::CpuRotation().PinTo(a.setup_sample);
      }
      std::printf("{\"setup_s\": %.17g}\n",
                  crmcbench::SetUp(a.workload, a.seed).setup_s);
      return 0;
    }
    if (a.trace == 1) {
      return crmcbench::RunTraced(a.workload, a.seed, a.seconds);
    }
    return crmcbench::RunEndToEnd(a.workload, a.seed, a.seconds,
                                  a.fast_ref_ms * 1e-3);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "crmcbench: %s\n", e.what());
    return 2;
  }
}
