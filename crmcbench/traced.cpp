// The traced run (--trace 1): per-layer metrics, measured from outside the
// program. No probe sits inside crmc; every span wraps a call into one of
// its public entry points, made by this file on the workload's own trials:
//
//   untraced  RunTrials at the workload's thread count with no other part
//             in between (the reference for the trace overhead)
//   A         harness::RunTrials, 1 thread
//   B         harness::RunTrials, 2 threads
//   C         the engine RunTrials dispatches to, called directly
//             (sim::BatchEngine::Run, or sim::TrialBatchEngine::Run)
//   G         sim::BatchEngine::Run per trial (lane workload only: the
//             width-1 path the lanes replace)
//   E         C with the robust and adversary layers off and fused rounds
//             off: bare materialized rounds
//   F         C with only the adversary off, fused rounds off (robust
//             workload only)
//   E1 F1 C1  E, F and C cut to one round per trial (max_rounds 1): the
//             per-trial fixed cost, subtracted to get per-round marginals
//
// The parts rotate slice by slice, so each samples the same mix of the
// host's fast and slow modes, and each is read at the low quantile of its
// slice times. Layer costs are differences of parts: harness self time is
// A - C, the robust layer's per-round cost is marginal(F) - marginal(E),
// the adversary's is marginal(C) - marginal(F). Then the mac/simd/support
// microbenchmarks run at the workloads' batch sizes.
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mac/resolver.h"
#include "simd/kernels.h"
#include "support/rng.h"
#include "workload.h"

namespace crmcbench {
namespace {

using namespace crmc;

// One timed part: seconds per slice and, for engine parts, the simulated
// rounds of each slice.
struct Part {
  std::vector<double> s;
  std::vector<double> rounds;

  double Q() const { return Quantile(s, kRateQuantile); }
  double MeanRounds() const {
    return std::accumulate(rounds.begin(), rounds.end(), 0.0) /
           static_cast<double>(rounds.size());
  }
  // Low-quantile seconds per round, slice by slice.
  double QPerRound() const {
    std::vector<double> per_round;
    for (std::size_t i = 0; i < s.size(); ++i) {
      per_round.push_back(s[i] / rounds[i]);
    }
    return Quantile(per_round, kRateQuantile);
  }
};

// Seconds per extra round of `full` over the same trials cut to one round.
double Marginal(const Part& full, const Part& cut) {
  return MarginalPerUnit(full.s, full.MeanRounds(), cut.s, cut.MeanRounds());
}

// Exact counts summed over one pass of RunTrials results.
struct PassCounts {
  double trials = 0, rounds = 0, fused = 0, fallbacks = 0, wrapper = 0,
         epochs = 0, obfuscation = 0, jams = 0, held = 0;

  void Add(const harness::TrialSetResult& r, std::int32_t n) {
    trials += n;
    rounds += static_cast<double>(r.rounds_total);
    fused += static_cast<double>(r.fused_rounds_total);
    fallbacks += static_cast<double>(r.trial_fallbacks);
    wrapper += static_cast<double>(r.confirm_rounds + r.backoff_rounds +
                                   r.obfuscation_rounds);
    epochs += static_cast<double>(r.epochs_used);
    obfuscation += static_cast<double>(r.obfuscation_rounds);
    jams += static_cast<double>(r.adv_jams_spent);
    held += static_cast<double>(r.adv_rounds_held);
  }
};

// A config variant of the workload, run per trial on its own BatchEngine.
struct Variant {
  Variant(const Workload& w, const harness::ProtocolHandle& handle,
          harness::TrialSpec spec_in, bool fused)
      : spec(std::move(spec_in)), engine(w, handle, false) {
    engine.set_fused_rounds(fused);
  }

  harness::TrialSpec spec;  // base_seed is taken from the slice
  DirectEngine engine;
  Part part;
};

// Times the direct engine on slice k; checks its aggregate against the
// slice's RunTrials aggregate when `check` is set.
void TimeDirect(Run& run, std::size_t k, DirectEngine& engine,
                harness::TrialSpec spec, Part& part, bool check) {
  spec.base_seed = run.pass[k].base_seed;
  const Clock::time_point t0 = Clock::now();
  const std::span<const sim::RunResult> runs = engine.Run(spec);
  const double dt = Since(t0);
  const TrialAggregate a = AggregateOf(runs);
  part.s.push_back(dt);
  part.rounds.push_back(static_cast<double>(a.rounds_total));
  if (check) run.Check(k, a);
}

// ---------------------------------------------------------------------------
// Layer microbenchmarks. Each body does a fixed amount of work per call and
// returns a value folded into g_sink, so the compiler cannot drop it.

volatile std::uint64_t g_sink = 0;

// Items per second of `body` (which processes `items` per call), at the low
// quantile of at least 20 calls spread over at least `budget_s`.
template <class Body>
double ItemsPerSecond(CpuRotation& cpus, double items, double budget_s,
                      Body&& body) {
  std::vector<double> s;
  const Clock::time_point start = Clock::now();
  while (s.size() < 20 || Since(start) < budget_s) {
    cpus.Place(1);
    const Clock::time_point t0 = Clock::now();
    g_sink = g_sink + body();
    s.push_back(Since(t0));
  }
  return items / Quantile(s, kRateQuantile);
}

constexpr double kMicroBudgetS = 0.1;

// mac::Resolver::Resolve over pre-drawn rounds of `nodes` actions each
// (half transmit, half listen, uniform channels in [1, channels]).
double ResolveNsPerNode(CpuRotation& cpus, std::int32_t nodes,
                        std::int32_t channels, std::int32_t rounds,
                        std::int32_t reps) {
  support::RandomSource rng(0x7e57 + static_cast<std::uint64_t>(nodes));
  std::vector<std::vector<mac::Action>> pre(static_cast<std::size_t>(rounds));
  for (auto& round : pre) {
    for (std::int32_t i = 0; i < nodes; ++i) {
      const auto ch = static_cast<mac::ChannelId>(rng.UniformInt(1, channels));
      round.push_back(rng.UniformInt(0, 1) ? mac::Action::Transmit(ch)
                                           : mac::Action::Listen(ch));
    }
  }
  mac::Resolver resolver(channels);
  std::vector<mac::Feedback> feedback;
  const double items = static_cast<double>(nodes) * rounds * reps;
  const double per_s = ItemsPerSecond(cpus, items, kMicroBudgetS, [&] {
    std::uint64_t tx = 0;
    for (std::int32_t r = 0; r < reps; ++r) {
      for (const auto& round : pre) {
        tx += static_cast<std::uint64_t>(
            resolver.Resolve(round, feedback).total_transmissions);
      }
    }
    return tx;
  });
  return 1e9 / per_s;
}

struct SimdRates {
  double coin_mask = 0, uniform_fill = 0, compact_keep = 0, classify = 0;
};

// The simd kernels at `slots` slots per call, on streams of `kind` and
// channel picks in [1, channels] — the shapes the workloads feed them.
SimdRates SimdItemsPerSecond(CpuRotation& cpus, std::int32_t slots,
                             support::RngKind kind, std::int32_t channels,
                             std::int32_t reps) {
  const auto n = static_cast<std::size_t>(slots);
  std::vector<support::RandomSource> rng(n);
  simd::SeedStreams(0x51d5 + n, 1, kind, rng);
  std::vector<std::int32_t> alive(n);
  for (std::size_t i = 0; i < n; ++i) alive[i] = static_cast<std::int32_t>(i);
  support::RandomSource pick(0xc0ffee);
  std::vector<std::uint8_t> mask(n), drop(n), lone(n);
  std::vector<std::int32_t> out(n), ids(n), picked(n);
  for (std::size_t i = 0; i < n; ++i) {
    drop[i] = static_cast<std::uint8_t>(pick.UniformInt(0, 1));
    picked[i] = static_cast<std::int32_t>(pick.UniformInt(1, channels));
  }
  std::vector<std::uint16_t> counts(static_cast<std::size_t>(channels) + 3);
  std::vector<std::int32_t> touched;
  const support::BatchBernoulli coin(0.5);
  const support::BatchUniformInt dist(1, channels);
  const double items = static_cast<double>(slots) * reps;

  SimdRates r;
  r.coin_mask = ItemsPerSecond(cpus, items, kMicroBudgetS, [&] {
    std::uint64_t hits = 0;
    for (std::int32_t i = 0; i < reps; ++i) {
      hits += static_cast<std::uint64_t>(simd::CoinMask(coin, rng, alive, mask));
    }
    return hits;
  });
  r.uniform_fill = ItemsPerSecond(cpus, items, kMicroBudgetS, [&] {
    std::uint64_t acc = 0;
    for (std::int32_t i = 0; i < reps; ++i) {
      simd::UniformFill(dist, rng, alive, out);
      acc += static_cast<std::uint64_t>(out[0]);
    }
    return acc;
  });
  // Each call compacts a fresh copy of the same ids (the copy is timed).
  r.compact_keep = ItemsPerSecond(cpus, items, kMicroBudgetS, [&] {
    std::uint64_t kept = 0;
    for (std::int32_t i = 0; i < reps; ++i) {
      ids = alive;
      kept += simd::CompactKeep(ids, drop);
    }
    return kept;
  });
  r.classify = ItemsPerSecond(cpus, items, kMicroBudgetS, [&] {
    std::uint64_t lone_total = 0;
    for (std::int32_t i = 0; i < reps; ++i) {
      lone_total += static_cast<std::uint64_t>(
          simd::ClassifyChannels(picked, 1, counts, touched, lone)
              .lone_channels);
    }
    return lone_total;
  });
  return r;
}

// Sequential support::RandomSource::NextU64 draws per second.
double DrawsPerSecond(CpuRotation& cpus, support::RngKind kind) {
  support::RandomSource rng = support::RandomSource::ForStream(7, 1, kind);
  constexpr std::int32_t kDraws = 1 << 16;
  return ItemsPerSecond(cpus, kDraws, kMicroBudgetS, [&] {
    std::uint64_t acc = 0;
    for (std::int32_t i = 0; i < kDraws; ++i) acc += rng.NextU64();
    return acc;
  });
}

}  // namespace

int RunTraced(const std::string& workload, std::uint64_t seed,
              double seconds) {
  Run run = SetUp(workload, seed);
  const Workload& w = run.w;
  const std::size_t slices = run.pass.size();
  const bool lanes = w.spec.lane_width > 1;
  const bool robust_on = w.spec.robust.Active();
  const bool adversary_on = w.spec.adversary.Active();
  CpuRotation cpus;

  // Reference: the end-to-end loop, for the first quarter of the time.
  Part untraced;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < slices || Since(t0) < seconds / 4; ++i) {
    cpus.Place(w.threads);
    auto [dt, r] = TimeSlice(run, i % slices, w.threads);
    untraced.s.push_back(dt);
    run.Record(i % slices, AggregateOf(r));
  }

  harness::TrialSpec bare_spec = w.spec;
  bare_spec.adversary = {};
  bare_spec.robust = {};
  harness::TrialSpec robust_only_spec = w.spec;
  robust_only_spec.adversary = {};
  const auto cut = [](harness::TrialSpec spec) {
    spec.max_rounds = 1;
    return spec;
  };
  DirectEngine direct(w, run.handle, lanes);
  Variant bare(w, run.handle, bare_spec, false);
  Variant bare_cut(w, run.handle, cut(bare_spec), false);
  // Each variant keeps a slice of results; build only those the workload
  // uses (a lane slice is 32,768 of them).
  std::optional<Variant> per_trial, robust_only, robust_only_cut, full_cut;
  if (lanes) per_trial.emplace(w, run.handle, w.spec, true);
  if (robust_on) {
    robust_only.emplace(w, run.handle, robust_only_spec, false);
    robust_only_cut.emplace(w, run.handle, cut(robust_only_spec), false);
  }
  if (adversary_on) full_cut.emplace(w, run.handle, cut(w.spec), true);

  Part a, b, c;
  PassCounts counts;
  // The microbenchmarks below take about 1.5 s; the rotation gets the rest
  // of the time, and always at least one whole pass.
  const double rotation_s = seconds * 3 / 4 - 1.5;
  const Clock::time_point t1 = Clock::now();
  for (std::size_t i = 0; i < slices || Since(t1) < rotation_s; ++i) {
    const std::size_t k = i % slices;
    cpus.Place(1);
    auto [dt_a, r_a] = TimeSlice(run, k, 1);
    a.s.push_back(dt_a);
    run.Record(k, AggregateOf(r_a));
    if (i < slices) counts.Add(r_a, w.trials_per_slice);
    cpus.Place(2);
    auto [dt_b, r_b] = TimeSlice(run, k, 2);
    b.s.push_back(dt_b);
    run.Record(k, AggregateOf(r_b));
    cpus.Place(1);

    TimeDirect(run, k, direct, w.spec, c, true);
    if (per_trial) {
      TimeDirect(run, k, per_trial->engine, w.spec, per_trial->part, true);
    }
    for (Variant* v : {&bare, &bare_cut}) {
      TimeDirect(run, k, v->engine, v->spec, v->part, false);
    }
    for (std::optional<Variant>* v : {&robust_only, &robust_only_cut,
                                      &full_cut}) {
      if (*v) TimeDirect(run, k, (*v)->engine, (*v)->spec, (*v)->part, false);
    }
  }
  CheckOracle(run);

  const double n = w.trials_per_slice;
  const double q_a = a.Q(), q_c = c.Q();
  const Part& traced = w.threads == 1 ? a : b;
  PrintNoise("untraced RunTrials", RateFromSlices(untraced.s, n));
  PrintNoise("traced RunTrials 1 thread", RateFromSlices(a.s, n));

  // Per-round marginals of the layer stack: bare, + robust, + adversary.
  const double bare_marginal = Marginal(bare.part, bare_cut.part);
  const double robust_marginal =
      robust_on ? Marginal(robust_only->part, robust_only_cut->part)
                : bare_marginal;
  Metrics m;
  m.Add("harness.self_frac", SelfFraction(q_a, q_c), "ratio");
  m.Add("harness.self_ns_per_trial", (q_a - q_c) / n * 1e9, "ns");
  m.Add("harness.pool_speedup_2t", q_a / b.Q(), "ratio");
  m.Add("harness.result_bytes_per_trial", sizeof(sim::RunResult), "B");
  m.Add("sim.batch_ns_per_round",
        (per_trial ? per_trial->part : c).QPerRound() * 1e9, "ns");
  m.Add("sim.trial_ns_per_round", lanes ? c.QPerRound() * 1e9 : 0.0, "ns");
  m.Add("sim.fused_round_frac", counts.fused / counts.rounds, "ratio");
  m.Add("sim.rounds_per_trial", counts.rounds / counts.trials, "rounds");
  m.Add("sim.lane_fallback_frac", counts.fallbacks / counts.trials, "ratio");
  m.Add("sim.bare_materialized_ns_per_round", bare_marginal * 1e9, "ns");
  m.Add("robust.ns_per_round_extra", (robust_marginal - bare_marginal) * 1e9,
        "ns");
  m.Add("adversary.ns_per_round_extra",
        full_cut ? (Marginal(c, full_cut->part) - robust_marginal) * 1e9
                 : 0.0,
        "ns");
  m.Add("robust.wrapper_round_frac", counts.wrapper / counts.rounds, "ratio");
  m.Add("robust.epochs_per_trial", counts.epochs / counts.trials, "count");
  m.Add("robust.obfuscation_rounds_per_trial",
        counts.obfuscation / counts.trials, "rounds");
  m.Add("adversary.jams_per_trial", counts.jams / counts.trials, "count");
  m.Add("adversary.held_round_frac", counts.held / counts.rounds, "ratio");
  m.Add("trace.overhead_frac", 1.0 - untraced.Q() / traced.Q(), "ratio");

  // Batch sizes of the workloads: 2 nodes on 64 channels (robust), 4096 on
  // 256 (general large); 64 philox slots on 1024 channels (32 lanes of a
  // two-node protocol), 4096 xoshiro slots on 256.
  m.Add("mac.resolve_ns_per_node_2", ResolveNsPerNode(cpus, 2, 64, 1024, 16),
        "ns");
  m.Add("mac.resolve_ns_per_node_4096",
        ResolveNsPerNode(cpus, 4096, 256, 8, 4), "ns");
  const SimdRates s64 =
      SimdItemsPerSecond(cpus, 64, support::RngKind::kPhilox, 1024, 2048);
  const SimdRates s4096 =
      SimdItemsPerSecond(cpus, 4096, support::RngKind::kXoshiro, 256, 32);
  m.Add("simd.coin_mask_items_per_s_64", s64.coin_mask, "1/s");
  m.Add("simd.coin_mask_items_per_s_4096", s4096.coin_mask, "1/s");
  m.Add("simd.uniform_fill_items_per_s_64", s64.uniform_fill, "1/s");
  m.Add("simd.uniform_fill_items_per_s_4096", s4096.uniform_fill, "1/s");
  m.Add("simd.compact_keep_items_per_s_64", s64.compact_keep, "1/s");
  m.Add("simd.compact_keep_items_per_s_4096", s4096.compact_keep, "1/s");
  m.Add("simd.classify_channels_items_per_s_64", s64.classify, "1/s");
  m.Add("simd.classify_channels_items_per_s_4096", s4096.classify, "1/s");
  m.Add("support.philox_draws_per_s",
        DrawsPerSecond(cpus, support::RngKind::kPhilox), "1/s");
  m.Add("support.xoshiro_draws_per_s",
        DrawsPerSecond(cpus, support::RngKind::kXoshiro), "1/s");

  PrintResult(run.Correct(), run.Attempted(), run.Failed(), m);
  return 0;
}

}  // namespace crmcbench
