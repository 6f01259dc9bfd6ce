// E14: simulator cost model.
//
// Two modes:
//
//   (default)        google-benchmark microbenchmarks: node-rounds per
//                    second for representative protocols plus the raw MAC
//                    resolver. This is the denominator behind every other
//                    experiment's runtime.
//
//   --json <path>    engine-vs-engine throughput grid: runs the coroutine
//                    oracle (sim::Engine) and the columnar fast path
//                    (sim::BatchEngine) over identical seeds across an
//                    n x C grid, times the simd kernels per backend, and
//                    writes the machine-readable artifact (schema
//                    crmc.bench_engine.v4) consumed by
//                    tools/check_bench_json.py. `--quick` shrinks trial
//                    counts for CI; `--trials-scale <f>` scales them;
//                    `--rng xoshiro|philox` picks the draw generator for
//                    both engines (default xoshiro, matching the v1
//                    baseline generator so speedups isolate engine work;
//                    philox is the counter-based reproducibility mode);
//                    `--lanes W` sets the trial-parallel lane width.
//
// v3 added a `trial` block to every grid point whose protocol ships a
// trial-parallel twin (sim::TrialBatchEngine): the per-trial batch path and
// the trial-parallel executor timed over the SAME seeds, both under philox
// (the executor's required generator), so the executor comparison is at
// equal RNG and isolates the lanes-across-trials win. The top-level
// engines.{coroutine,batch} block keeps the --rng generator (default
// xoshiro) so v1/v2 baselines stay directly comparable.
//
// v4 extends the grid with small-active points for every newly-twinned
// protocol (reduce, id_reduction, leaf_election, knockout_cd, general) —
// the shapes where lanes-across-trials pays — and adds a top-level
// `sweep_throughput` block: a whole grid of small sweep points timed twice,
// once with the legacy per-call spawn executor (harness::RunTrialsSpawn)
// and once enqueued on a persistent work-stealing pool
// (harness::SweepExecutor), aggregate-checked for equality.
//
// The grid mode also cross-checks that both engines solved every trial in
// the same round — the throughput comparison is only meaningful if the two
// engines are running the *same* Monte-Carlo experiment.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/general.h"
#include "core/id_reduction.h"
#include "core/leaf_election.h"
#include "core/reduce.h"
#include "harness/flags.h"
#include "harness/json_writer.h"
#include "harness/registry.h"
#include "harness/runner.h"
#include "harness/sweep_executor.h"
#include "harness/table.h"
#include "mac/resolver.h"
#include "sim/batch_engine.h"
#include "sim/engine.h"
#include "sim/step_program.h"
#include "sim/trial_engine.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "support/assert.h"
#include "support/rng.h"

namespace {

using namespace crmc;

// ---------------------------------------------------------------------------
// JSON grid mode.
// ---------------------------------------------------------------------------

struct GridPoint {
  const char* protocol;
  std::int64_t population;
  std::int32_t num_active;
  std::int32_t channels;
  std::int32_t trials;  // full-mode trial count; scaled by --quick
  // reduce / id_reduction thin or rename the active set without ever
  // declaring the instance solved; they run to protocol termination.
  bool stop_when_solved = true;
};

// The grid spans small/medium/large populations and channel counts for the
// protocols with columnar twins. The (general, 65536, 1024, 64) point is the
// acceptance benchmark quoted in docs/MODEL.md. The v4 small-active points
// (num_active <= 16) cover every trial-parallel twin on the shapes where
// lanes-across-trials pays — these are the points
// tools/check_bench_json.py gates with --trial-speedup-floors.
const GridPoint kGrid[] = {
    {"two_active", 1 << 16, 2, 64, 3000},
    {"two_active", 1 << 20, 2, 1024, 2000},
    {"knockout_cd", 1 << 12, 1024, 1, 60},
    {"general", 1 << 12, 256, 32, 300},
    {"general", 1 << 16, 1024, 64, 120},
    {"general", 1 << 20, 4096, 256, 24},
    {"reduce", 4096, 8, 1, 1500, /*stop_when_solved=*/false},
    {"id_reduction", 1 << 16, 8, 64, 600, /*stop_when_solved=*/false},
    {"leaf_election", 1 << 12, 12, 31, 400},
    {"knockout_cd", 1 << 12, 8, 1, 1500},
    {"general", 1 << 12, 8, 32, 800},
};

// reduce / id_reduction / leaf_election are building blocks, not registered
// algorithms (harness::Algorithms() deliberately omits them), so the grid
// resolves them locally. The leaf_election point elects among 12 fixed
// distinct leaves of a 16-leaf tree (channels 1 .. 2*16-1 = 31).
struct ResolvedProtocol {
  sim::ProtocolFactory factory;
  std::unique_ptr<sim::StepProgram> program;
};

ResolvedProtocol ResolveProtocol(const char* name) {
  ResolvedProtocol r;
  const std::string n = name;
  if (n == "reduce") {
    r.factory = core::MakeReduceOnly();
    r.program = sim::MakeReduceProgram();
  } else if (n == "id_reduction") {
    r.factory = core::MakeIdReductionOnly();
    r.program = sim::MakeIdReductionProgram();
  } else if (n == "leaf_election") {
    const std::vector<std::int32_t> leaves = {1, 2,  3,  5,  6,  8,
                                              9, 11, 12, 14, 15, 16};
    r.factory = core::MakeLeafElectionOnly(leaves, 16, {});
    r.program = sim::MakeLeafElectionProgram(leaves, 16, {});
  } else {
    const harness::AlgorithmInfo& info = harness::AlgorithmByName(name);
    CRMC_REQUIRE_MSG(info.make_step != nullptr,
                     name << " has no columnar twin");
    r.factory = info.make();
    r.program = info.make_step()();
  }
  return r;
}

struct EngineStats {
  double seconds = 0.0;
  std::int64_t rounds = 0;       // sum of rounds_executed
  std::int64_t node_rounds = 0;  // sum of rounds_executed * num_active
  // Checksum over per-trial outcomes; must agree between engines.
  std::int64_t outcome_checksum = 0;
};

double Rate(std::int64_t count, double seconds) {
  return seconds > 0.0 ? static_cast<double>(count) / seconds : 0.0;
}

constexpr std::uint64_t kSeedBase = 0xbe9c40;

// Each point is timed kTimingReps times and the best (smallest) wall time
// kept: the regression gate in tools/check_bench_json.py only fires on
// slowdowns, so downward noise from scheduler interference is what must be
// suppressed. The reps are NOT back-to-back — RunJsonGrid interleaves them
// across whole passes over the grid, because scheduler/clock slow windows
// on shared hosts last about as long as one grid pass: consecutive reps of
// one point would all land in the same window, while reps a pass apart
// sample independent ones.
constexpr int kTimingReps = 5;

// One timed pass of `trials` trials over `run_trial`.
template <typename RunTrial>
EngineStats TimeOnePass(std::int32_t trials, std::int32_t num_active,
                        RunTrial&& run_trial) {
  EngineStats stats;
  const auto start = std::chrono::steady_clock::now();
  for (std::int32_t t = 0; t < trials; ++t) {
    const sim::RunResult r =
        run_trial(kSeedBase + static_cast<std::uint64_t>(t));
    stats.rounds += r.rounds_executed;
    stats.node_rounds += r.rounds_executed * num_active;
    stats.outcome_checksum +=
        r.rounds_executed * 131 + (r.solved ? r.solved_round : -1);
  }
  const auto end = std::chrono::steady_clock::now();
  stats.seconds = std::chrono::duration<double>(end - start).count();
  return stats;
}

// One timed pass of the trial-parallel executor over the whole seed set
// (one Run call — the engine chunks into lanes internally). The timed
// window covers exactly the work TimeOnePass times per trial; the
// accumulation below is identical so the outcome checksums are comparable
// engine-to-engine.
EngineStats TimeTrialPass(sim::TrialBatchEngine& engine,
                          const sim::EngineConfig& config,
                          sim::StepProgram& program,
                          const std::vector<std::uint64_t>& seeds,
                          std::vector<sim::RunResult>& results,
                          std::int32_t num_active) {
  EngineStats stats;
  const auto start = std::chrono::steady_clock::now();
  engine.Run(config, program, seeds, results);
  const auto end = std::chrono::steady_clock::now();
  stats.seconds = std::chrono::duration<double>(end - start).count();
  for (const sim::RunResult& r : results) {
    stats.rounds += r.rounds_executed;
    stats.node_rounds += r.rounds_executed * num_active;
    stats.outcome_checksum +=
        r.rounds_executed * 131 + (r.solved ? r.solved_round : -1);
  }
  return stats;
}

// Folds one pass into the best-so-far slot (first pass wins outright).
void KeepBest(EngineStats& best, const EngineStats& pass, bool first) {
  if (first || pass.seconds < best.seconds) best = pass;
}

void WriteEngineStats(harness::JsonWriter& w, const EngineStats& s,
                      std::int32_t trials) {
  w.BeginObject();
  w.Key("seconds").Value(s.seconds);
  w.Key("trials_per_sec").Value(Rate(trials, s.seconds));
  w.Key("rounds_per_sec").Value(Rate(s.rounds, s.seconds));
  w.Key("node_rounds_per_sec").Value(Rate(s.node_rounds, s.seconds));
  w.EndObject();
}

std::string CpuModelName() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = colon + 1;
        while (start < line.size() &&
               (line[start] == ' ' || line[start] == '\t')) {
          ++start;
        }
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Per-kernel microbenchmarks: lanes/sec for each simd kernel under every
// backend available on this binary+CPU. The workload is fixed (4096 lanes,
// philox draws) so numbers are comparable across backends and across
// machines of the same ISA.
// ---------------------------------------------------------------------------

struct KernelTiming {
  const char* name;
  simd::Backend backend;
  std::int64_t lanes;
  double items_per_sec;
};

constexpr std::size_t kKernelLanes = 4096;
constexpr int kKernelReps = 3;

template <typename Body>
double TimeKernelRate(std::int64_t items_per_iter, int iters, Body&& body) {
  double best_rate = 0.0;
  for (int rep = 0; rep < kKernelReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) body();
    const auto end = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(end - start).count();
    best_rate = std::max(best_rate, Rate(items_per_iter * iters, secs));
  }
  return best_rate;
}

void RunKernelBenches(std::vector<KernelTiming>& out) {
  const simd::Backend prior = simd::ActiveBackend();

  std::vector<support::RandomSource> rng;
  rng.reserve(kKernelLanes);
  for (std::size_t i = 0; i < kKernelLanes; ++i) {
    rng.push_back(support::RandomSource::ForStream(
        0x5eed, static_cast<std::uint64_t>(i) + 1,
        support::RngKind::kPhilox));
  }
  std::vector<std::int32_t> lanes_idx(kKernelLanes);
  for (std::size_t i = 0; i < kKernelLanes; ++i) {
    lanes_idx[i] = static_cast<std::int32_t>(i);
  }
  const support::BatchBernoulli coin(0.5);
  const support::BatchUniformInt dist(1, 64);
  std::vector<std::uint8_t> mask(kKernelLanes);
  std::vector<std::int32_t> fill(kKernelLanes);

  // Compaction input: ~half the lanes dropped in a scattered pattern. The
  // work buffer is re-filled from a template each iteration (same memcpy
  // for every backend, so relative numbers stay meaningful).
  std::vector<sim::NodeId> ids_template(kKernelLanes);
  std::vector<std::uint8_t> drop(kKernelLanes);
  std::vector<sim::NodeId> ids(kKernelLanes);
  for (std::size_t i = 0; i < kKernelLanes; ++i) {
    ids_template[i] = static_cast<sim::NodeId>(i);
    drop[i] = static_cast<std::uint8_t>(
        (static_cast<std::uint32_t>(i) * 2654435761u >> 16) & 1u);
  }

  constexpr std::int32_t kChannels = 64;
  std::vector<mac::ChannelId> channels(kKernelLanes);
  for (std::size_t i = 0; i < kKernelLanes; ++i) {
    channels[i] = static_cast<mac::ChannelId>(
        1 + (static_cast<std::uint32_t>(i) * 2654435761u >> 8) % kChannels);
  }
  std::vector<std::uint16_t> counts(
      static_cast<std::size_t>(kChannels) + 3, 0);
  std::vector<std::int32_t> touched;
  touched.reserve(kKernelLanes);
  std::vector<std::uint8_t> lone(kKernelLanes);

  std::vector<support::RandomSource> seeded(kKernelLanes);
  for (const simd::Backend b : simd::AllBackends()) {
    if (!simd::BackendAvailable(b)) continue;
    CRMC_CHECK(simd::SetBackend(b));
    const auto lanes = static_cast<std::int64_t>(kKernelLanes);

    out.push_back({"coin_mask", b, lanes,
                   TimeKernelRate(lanes, 1000, [&] {
                     const std::int64_t tx =
                         simd::CoinMask(coin, rng, lanes_idx, mask);
                     benchmark::DoNotOptimize(tx);
                   })});
    out.push_back({"uniform_fill", b, lanes,
                   TimeKernelRate(lanes, 1000, [&] {
                     simd::UniformFill(dist, rng, lanes_idx, fill);
                     benchmark::DoNotOptimize(fill.data());
                   })});
    out.push_back({"compact_keep", b, lanes,
                   TimeKernelRate(lanes, 2000, [&] {
                     std::copy(ids_template.begin(), ids_template.end(),
                               ids.begin());
                     const std::size_t w = simd::CompactKeep(ids, drop);
                     benchmark::DoNotOptimize(w);
                   })});
    out.push_back({"classify_channels", b, lanes,
                   TimeKernelRate(lanes, 1000, [&] {
                     const simd::Occupancy occ = simd::ClassifyChannels(
                         channels, mac::kPrimaryChannel, counts, touched,
                         lone);
                     benchmark::DoNotOptimize(occ.lone_channels);
                   })});
    // Xoshiro seeding is the engine-setup path the grid runs; philox
    // shares the SplitMix64 premix but skips the state fill. Only the
    // AVX-512 backend has its own seeding kernel (see kernels.cpp).
    out.push_back({"seed_streams_xoshiro", b, lanes,
                   TimeKernelRate(lanes, 1000, [&] {
                     simd::SeedStreams(0x5eed, 1, support::RngKind::kXoshiro,
                                       seeded);
                     benchmark::DoNotOptimize(seeded.data());
                   })});
    out.push_back({"seed_streams_philox", b, lanes,
                   TimeKernelRate(lanes, 1000, [&] {
                     simd::SeedStreams(0x5eed, 1, support::RngKind::kPhilox,
                                       seeded);
                     benchmark::DoNotOptimize(seeded.data());
                   })});
  }
  CRMC_CHECK(simd::SetBackend(prior));
}

// ---------------------------------------------------------------------------
// v4 sweep-throughput block: whole-grid dispatch cost. A sweep is many small
// points; the question is how much wall-clock the executor itself burns.
// A/B over the SAME specs and seeds:
//
//   spawn     per-point harness::RunTrialsSpawn — the pre-v4 RunTrials
//             dispatch: create `threads` std::threads, run one point, join.
//   executor  one persistent harness::SweepExecutor; every point enqueued
//             up front, tickets waited in order — workers are created once
//             and lanes from adjacent points backfill retiring workers.
//
// Both sides produce bit-identical per-point statistics (seed-indexed trial
// assignment), which the checksum CRMC_CHECK enforces. The reps alternate
// A/B so scheduler windows hit both sides alike; best-of-reps per side.
// ---------------------------------------------------------------------------

struct SweepSideStats {
  double seconds = 0.0;
  std::int64_t checksum = 0;
};

struct SweepThroughputResult {
  std::int32_t threads = 0;
  std::int32_t points = 0;
  std::int32_t trials_per_point = 0;
  std::int32_t lane_width = 0;
  SweepSideStats spawn;
  SweepSideStats executor;
};

std::int64_t SweepChecksum(const harness::TrialSetResult& r) {
  return r.rounds_total * 131 +
         static_cast<std::int64_t>(r.solved_rounds.size()) * 7 + r.unsolved +
         r.summary.max;
}

SweepThroughputResult RunSweepThroughput(double scale) {
  SweepThroughputResult res;
  res.threads = std::min<std::int32_t>(
      std::max<std::int32_t>(
          2, static_cast<std::int32_t>(std::thread::hardware_concurrency())),
      8);
  // Fine-grained grids are the shape this block measures: per-point work
  // small enough that dispatch cost (thread create/join vs chunk claims on
  // a live pool) is a visible fraction of the wall time. --quick /
  // --trials-scale scale the POINT COUNT, not the per-point trials —
  // growing the points keeps the workload in the dispatch-bound regime
  // the executor exists for, while growing per-point trials would just
  // amortize the spawn cost the comparison is about.
  res.points = std::max(
      std::int32_t{8}, static_cast<std::int32_t>(128.0 * scale));
  res.trials_per_point = 64;
  res.lane_width = 8;

  const harness::ProtocolHandle handle =
      harness::HandleFor(harness::AlgorithmByName("two_active"));
  std::vector<harness::TrialSpec> grid;
  grid.reserve(static_cast<std::size_t>(res.points));
  for (std::int32_t i = 0; i < res.points; ++i) {
    harness::TrialSpec spec;
    spec.population = 4096;
    spec.num_active = 2;
    spec.channels = 1 + (i % 31);  // sweep-shaped spread of channel counts
    spec.rng = support::RngKind::kPhilox;
    spec.lane_width = res.lane_width;
    spec.base_seed = kSeedBase + static_cast<std::uint64_t>(i) * 100'000;
    grid.push_back(spec);
  }

  auto run_spawn = [&]() {
    SweepSideStats s;
    const auto start = std::chrono::steady_clock::now();
    for (const harness::TrialSpec& spec : grid) {
      s.checksum += SweepChecksum(harness::RunTrialsSpawn(
          spec, handle, res.trials_per_point, /*keep_runs=*/false,
          res.threads));
    }
    s.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    return s;
  };
  auto run_executor = [&]() {
    SweepSideStats s;
    const auto start = std::chrono::steady_clock::now();
    {
      // Pool construction and teardown stay inside the timed window: the
      // whole point is that their cost amortizes across the grid.
      harness::SweepExecutor executor(res.threads);
      std::vector<harness::SweepExecutor::Ticket> tickets;
      tickets.reserve(grid.size());
      for (const harness::TrialSpec& spec : grid) {
        tickets.push_back(executor.Enqueue(spec, handle,
                                           res.trials_per_point,
                                           /*keep_runs=*/false));
      }
      for (harness::SweepExecutor::Ticket& ticket : tickets) {
        s.checksum += SweepChecksum(ticket.Wait());
      }
    }
    s.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    return s;
  };

  constexpr int kSweepReps = 3;
  for (int rep = 0; rep < kSweepReps; ++rep) {
    const SweepSideStats spawn = run_spawn();
    const SweepSideStats executor = run_executor();
    // Bit-identical statistics between executors, every rep (rep 0 also
    // doubles as the warm-up: KeepBest-style best-of keeps later reps).
    CRMC_CHECK_MSG(spawn.checksum == executor.checksum,
                   "sweep executor divergence: spawn " << spawn.checksum
                                                       << " vs executor "
                                                       << executor.checksum);
    if (rep == 0 || spawn.seconds < res.spawn.seconds) res.spawn = spawn;
    if (rep == 0 || executor.seconds < res.executor.seconds) {
      res.executor = executor;
    }
  }
  return res;
}

void WriteSweepSide(harness::JsonWriter& w, const SweepSideStats& s,
                    std::int32_t points) {
  w.BeginObject();
  w.Key("seconds").Value(s.seconds);
  w.Key("points_per_sec").Value(Rate(points, s.seconds));
  w.EndObject();
}

int RunJsonGrid(const harness::Flags& flags) {
  const std::string path = *flags.GetString("json");
  CRMC_REQUIRE_MSG(!path.empty(), "--json requires a file path");
  const bool quick = flags.GetBoolOr("quick", false);
  double scale = flags.GetDoubleOr("trials-scale", quick ? 0.25 : 1.0);
  CRMC_REQUIRE_MSG(scale > 0.0, "--trials-scale must be positive");
  const std::string rng_name = flags.GetStringOr("rng", "xoshiro");
  const std::optional<support::RngKind> rng_kind =
      support::ParseRngKind(rng_name);
  CRMC_REQUIRE_MSG(rng_kind.has_value(),
                   "--rng must be xoshiro or philox, got " << rng_name);
  const auto lane_width = static_cast<std::int32_t>(
      flags.GetIntOr("lanes", sim::TrialBatchEngine::kDefaultLaneWidth));
  CRMC_REQUIRE_MSG(lane_width >= 1,
                   "--lanes must be >= 1, got " << lane_width);
  const auto unconsumed = flags.UnconsumedFlags();
  if (!unconsumed.empty()) {
    std::cerr << "unknown flag: --" << unconsumed.front() << "\n";
    return 2;
  }

  harness::Table table({"protocol", "n", "active", "C", "trials",
                        "coroutine trials/s", "batch trials/s", "speedup"});

  std::ofstream out(path);
  CRMC_REQUIRE_MSG(out.good(), "cannot open --json path " << path);
  harness::JsonWriter w(out);
  w.BeginObject();
  w.Key("schema").Value("crmc.bench_engine.v4");
  w.Key("mode").Value(quick ? "quick" : "full");
  w.Key("metadata").BeginObject();
  w.Key("cpu").Value(CpuModelName());
  w.Key("compiler").Value(__VERSION__);
  w.Key("dispatch").Value(simd::ToString(simd::ActiveBackend()));
  w.Key("rng").Value(support::ToString(*rng_kind));
  w.Key("lane_width").Value(static_cast<std::int64_t>(lane_width));
  w.EndObject();
  w.Key("points").BeginArray();

  // Per-point state persists across the interleaved timing passes below;
  // the engine + program reuse matches how harness::RunTrials sweeps.
  struct PointRun {
    const GridPoint* p = nullptr;
    std::int32_t trials = 0;
    sim::ProtocolFactory factory;
    std::unique_ptr<sim::StepProgram> program;
    sim::EngineConfig config;
    sim::BatchEngine engine;
    EngineStats coro;
    EngineStats batch;
    // v3 trial-parallel comparison (points with a TrialProgram twin only):
    // batch vs trial executor over the same seeds, both under philox.
    bool has_trial = false;
    sim::EngineConfig philox_config;
    std::unique_ptr<sim::TrialBatchEngine> trial_engine;
    std::vector<std::uint64_t> seeds;
    std::vector<sim::RunResult> trial_results;
    EngineStats batch_philox;
    EngineStats trial;
  };
  std::vector<std::unique_ptr<PointRun>> points;
  for (const GridPoint& p : kGrid) {
    auto pr = std::make_unique<PointRun>();
    pr->p = &p;
    pr->trials = std::max(
        std::int32_t{10},
        static_cast<std::int32_t>(static_cast<double>(p.trials) * scale));
    ResolvedProtocol resolved = ResolveProtocol(p.protocol);
    pr->factory = std::move(resolved.factory);
    pr->program = std::move(resolved.program);
    pr->config.population = p.population;
    pr->config.num_active = p.num_active;
    pr->config.channels = p.channels;
    pr->config.stop_when_solved = p.stop_when_solved;
    pr->config.rng = *rng_kind;
    pr->has_trial = pr->program->MakeTrialProgram() != nullptr;
    if (pr->has_trial) {
      pr->philox_config = pr->config;
      pr->philox_config.rng = support::RngKind::kPhilox;
      pr->trial_engine = std::make_unique<sim::TrialBatchEngine>(lane_width);
      pr->seeds.resize(static_cast<std::size_t>(pr->trials));
      for (std::int32_t t = 0; t < pr->trials; ++t) {
        pr->seeds[static_cast<std::size_t>(t)] =
            kSeedBase + static_cast<std::uint64_t>(t);
      }
      pr->trial_results.resize(pr->seeds.size());
    }
    points.push_back(std::move(pr));
  }

  // kTimingReps passes over the whole grid; each pass times every point
  // once on each engine and the per-point best is kept (see the comment at
  // kTimingReps for why the reps are spread across passes). Pass 0 is
  // preceded by one untimed warm-up batch per point and engine: the first
  // pass otherwise runs on cold caches, an untrained branch predictor, and
  // (on power-managed hosts) a lower clock, which used to bias it low by
  // up to 2x.
  for (int rep = 0; rep < kTimingReps; ++rep) {
    for (const std::unique_ptr<PointRun>& pr : points) {
      auto run_coro = [&](std::uint64_t seed) {
        pr->config.seed = seed;
        return sim::Engine::Run(pr->config, pr->factory);
      };
      auto run_batch = [&](std::uint64_t seed) {
        pr->config.seed = seed;
        return pr->engine.Run(pr->config, *pr->program);
      };
      if (rep == 0) {
        for (std::int32_t t = 0; t < pr->trials; ++t) {
          (void)run_coro(kSeedBase + static_cast<std::uint64_t>(t));
        }
      }
      KeepBest(pr->coro,
               TimeOnePass(pr->trials, pr->p->num_active, run_coro), rep == 0);
      if (rep == 0) {
        for (std::int32_t t = 0; t < pr->trials; ++t) {
          (void)run_batch(kSeedBase + static_cast<std::uint64_t>(t));
        }
      }
      KeepBest(pr->batch,
               TimeOnePass(pr->trials, pr->p->num_active, run_batch),
               rep == 0);
      if (!pr->has_trial) continue;
      // v3 comparison passes: per-trial batch and trial-parallel executor
      // over the same seeds, both under philox (equal-RNG comparison). The
      // two engines ALTERNATE A/B within the rep rather than each being
      // timed once: the ratio between them is what the artifact gate
      // checks, and a fixed ordering (trial always last, right after
      // seconds of hot coroutine work) let scheduler/clock windows bias
      // the ratio systematically. Alternating pairs sample the same
      // windows for both sides; KeepBest still takes the per-engine best.
      auto run_batch_philox = [&](std::uint64_t seed) {
        pr->philox_config.seed = seed;
        return pr->engine.Run(pr->philox_config, *pr->program);
      };
      if (rep == 0) {
        for (std::int32_t t = 0; t < pr->trials; ++t) {
          (void)run_batch_philox(kSeedBase + static_cast<std::uint64_t>(t));
        }
        pr->trial_engine->Run(pr->philox_config, *pr->program, pr->seeds,
                              pr->trial_results);
      }
      constexpr int kAbPairs = 3;
      for (int sub = 0; sub < kAbPairs; ++sub) {
        KeepBest(pr->batch_philox,
                 TimeOnePass(pr->trials, pr->p->num_active, run_batch_philox),
                 rep == 0 && sub == 0);
        KeepBest(pr->trial,
                 TimeTrialPass(*pr->trial_engine, pr->philox_config,
                               *pr->program, pr->seeds, pr->trial_results,
                               pr->p->num_active),
                 rep == 0 && sub == 0);
      }
    }
  }

  harness::Table trial_table({"protocol", "n", "active", "C", "lanes",
                              "batch(philox) trials/s", "trial trials/s",
                              "speedup"});
  for (const std::unique_ptr<PointRun>& point : points) {
    const GridPoint& p = *point->p;
    const std::int32_t trials = point->trials;
    const EngineStats& coro = point->coro;
    const EngineStats& batch = point->batch;
    CRMC_CHECK_MSG(coro.outcome_checksum == batch.outcome_checksum,
                   "engine divergence at " << p.protocol << " n="
                                           << p.population);

    const double speedup =
        Rate(trials, batch.seconds) / std::max(Rate(trials, coro.seconds), 1e-12);
    table.Row().Cells(p.protocol, p.population,
                      static_cast<std::int64_t>(p.num_active),
                      static_cast<std::int64_t>(p.channels),
                      static_cast<std::int64_t>(trials),
                      harness::FormatDouble(Rate(trials, coro.seconds), 1),
                      harness::FormatDouble(Rate(trials, batch.seconds), 1),
                      harness::FormatDouble(speedup, 2));

    w.BeginObject();
    w.Key("protocol").Value(p.protocol);
    w.Key("population").Value(p.population);
    w.Key("num_active").Value(static_cast<std::int64_t>(p.num_active));
    w.Key("channels").Value(static_cast<std::int64_t>(p.channels));
    w.Key("trials").Value(static_cast<std::int64_t>(trials));
    w.Key("engines").BeginObject();
    w.Key("coroutine");
    WriteEngineStats(w, coro, trials);
    w.Key("batch");
    WriteEngineStats(w, batch, trials);
    w.EndObject();
    w.Key("speedup_trials_per_sec").Value(speedup);
    if (point->has_trial) {
      // The executor must be running the same Monte-Carlo experiment as
      // the per-trial batch path — bit-exactness is what makes the
      // speedup a like-for-like number.
      CRMC_CHECK_MSG(
          point->trial.outcome_checksum == point->batch_philox.outcome_checksum,
          "trial executor divergence at " << p.protocol << " n="
                                          << p.population);
      const double trial_speedup =
          Rate(trials, point->trial.seconds) /
          std::max(Rate(trials, point->batch_philox.seconds), 1e-12);
      trial_table.Row().Cells(
          p.protocol, p.population, static_cast<std::int64_t>(p.num_active),
          static_cast<std::int64_t>(p.channels),
          static_cast<std::int64_t>(lane_width),
          harness::FormatDouble(Rate(trials, point->batch_philox.seconds), 1),
          harness::FormatDouble(Rate(trials, point->trial.seconds), 1),
          harness::FormatDouble(trial_speedup, 2));
      w.Key("trial").BeginObject();
      w.Key("lane_width").Value(static_cast<std::int64_t>(lane_width));
      w.Key("rng").Value("philox");
      w.Key("engines").BeginObject();
      w.Key("batch");
      WriteEngineStats(w, point->batch_philox, trials);
      w.Key("trial_batch");
      WriteEngineStats(w, point->trial, trials);
      w.EndObject();
      w.Key("speedup_trials_per_sec").Value(trial_speedup);
      w.EndObject();
    }
    w.EndObject();
  }

  w.EndArray();

  const SweepThroughputResult sweep = RunSweepThroughput(scale);
  const double sweep_speedup =
      Rate(sweep.points, sweep.executor.seconds) /
      std::max(Rate(sweep.points, sweep.spawn.seconds), 1e-12);
  harness::Table sweep_table(
      {"sweep executor", "points", "trials/pt", "threads", "seconds",
       "points/s"});
  sweep_table.Row().Cells(
      "spawn-per-point", static_cast<std::int64_t>(sweep.points),
      static_cast<std::int64_t>(sweep.trials_per_point),
      static_cast<std::int64_t>(sweep.threads),
      harness::FormatDouble(sweep.spawn.seconds, 3),
      harness::FormatDouble(Rate(sweep.points, sweep.spawn.seconds), 1));
  sweep_table.Row().Cells(
      "persistent-pool", static_cast<std::int64_t>(sweep.points),
      static_cast<std::int64_t>(sweep.trials_per_point),
      static_cast<std::int64_t>(sweep.threads),
      harness::FormatDouble(sweep.executor.seconds, 3),
      harness::FormatDouble(Rate(sweep.points, sweep.executor.seconds), 1));
  w.Key("sweep_throughput").BeginObject();
  w.Key("protocol").Value("two_active");
  w.Key("threads").Value(static_cast<std::int64_t>(sweep.threads));
  w.Key("points").Value(static_cast<std::int64_t>(sweep.points));
  w.Key("trials_per_point")
      .Value(static_cast<std::int64_t>(sweep.trials_per_point));
  w.Key("lane_width").Value(static_cast<std::int64_t>(sweep.lane_width));
  w.Key("spawn");
  WriteSweepSide(w, sweep.spawn, sweep.points);
  w.Key("executor");
  WriteSweepSide(w, sweep.executor, sweep.points);
  w.Key("speedup_points_per_sec").Value(sweep_speedup);
  w.EndObject();

  std::vector<KernelTiming> kernels;
  RunKernelBenches(kernels);
  harness::Table ktable({"kernel", "backend", "lanes", "Mitems/s"});
  w.Key("kernels").BeginArray();
  for (const KernelTiming& k : kernels) {
    ktable.Row().Cells(k.name, simd::ToString(k.backend), k.lanes,
                       harness::FormatDouble(k.items_per_sec / 1e6, 1));
    w.BeginObject();
    w.Key("name").Value(k.name);
    w.Key("backend").Value(simd::ToString(k.backend));
    w.Key("lanes").Value(k.lanes);
    w.Key("items_per_sec").Value(k.items_per_sec);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  w.Finish();
  CRMC_REQUIRE_MSG(out.good(), "write failed for " << path);
  out.close();

  table.Print(std::cout);
  trial_table.Print(std::cout);
  sweep_table.Print(std::cout);
  ktable.Print(std::cout);
  std::cout << "wrote " << path << "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// google-benchmark mode (default).
// ---------------------------------------------------------------------------

void BM_EngineKnockout(benchmark::State& state) {
  const auto num_active = static_cast<std::int32_t>(state.range(0));
  std::int64_t node_rounds = 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    sim::EngineConfig config;
    config.num_active = num_active;
    config.channels = 1;
    config.seed = seed++;
    config.stop_when_solved = false;
    const sim::RunResult r = sim::Engine::Run(config, core::MakeKnockoutCd());
    benchmark::DoNotOptimize(r.rounds_executed);
    node_rounds += r.total_transmissions + r.rounds_executed * num_active;
  }
  state.SetItemsProcessed(node_rounds);
  state.SetLabel("items = node-rounds (approx)");
}
BENCHMARK(BM_EngineKnockout)->Arg(64)->Arg(1024)->Arg(16384);

void BM_EngineGeneral(benchmark::State& state) {
  const auto num_active = static_cast<std::int32_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    sim::EngineConfig config;
    config.num_active = num_active;
    config.population = 1 << 20;
    config.channels = 256;
    config.seed = seed++;
    config.stop_when_solved = false;
    const sim::RunResult r = sim::Engine::Run(config, core::MakeGeneral());
    benchmark::DoNotOptimize(r.rounds_executed);
  }
}
BENCHMARK(BM_EngineGeneral)->Arg(64)->Arg(1024)->Arg(16384);

void BM_BatchEngineGeneral(benchmark::State& state) {
  const auto num_active = static_cast<std::int32_t>(state.range(0));
  std::uint64_t seed = 1;
  sim::BatchEngine engine;
  const auto program = sim::MakeGeneralProgram();
  for (auto _ : state) {
    sim::EngineConfig config;
    config.num_active = num_active;
    config.population = 1 << 20;
    config.channels = 256;
    config.seed = seed++;
    config.stop_when_solved = false;
    const sim::RunResult r = engine.Run(config, *program);
    benchmark::DoNotOptimize(r.rounds_executed);
  }
}
BENCHMARK(BM_BatchEngineGeneral)->Arg(64)->Arg(1024)->Arg(16384);

void BM_ResolverRound(benchmark::State& state) {
  const auto participants = static_cast<std::int32_t>(state.range(0));
  mac::Resolver resolver(1024);
  std::vector<mac::Action> actions(
      static_cast<std::size_t>(participants));
  for (std::int32_t i = 0; i < participants; ++i) {
    actions[static_cast<std::size_t>(i)] =
        (i % 3 == 0) ? mac::Action::Transmit(1 + i % 1024)
                     : mac::Action::Listen(1 + i % 1024);
  }
  std::vector<mac::Feedback> feedback;
  for (auto _ : state) {
    const mac::RoundSummary s = resolver.Resolve(actions, feedback);
    benchmark::DoNotOptimize(s.total_transmissions);
  }
  state.SetItemsProcessed(state.iterations() * participants);
}
BENCHMARK(BM_ResolverRound)->Arg(256)->Arg(4096)->Arg(65536);

}  // namespace

int main(int argc, char** argv) {
  bool json_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" || arg.rfind("--json=", 0) == 0) json_mode = true;
  }
  if (json_mode) {
    try {
      const harness::Flags flags = harness::Flags::Parse(argc, argv);
      return RunJsonGrid(flags);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
