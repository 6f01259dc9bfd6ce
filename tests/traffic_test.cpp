// Tests for the streaming-traffic subsystem (src/traffic/): spec
// validation, packet conservation, arrival-process shapes, and the
// determinism contract — the delivery schedule is a pure function of
// (TrafficSpec, engine TrialSpec, protocol), bit-identical across the
// batch and coroutine episode engines, lane widths, fused/materialized
// rounds, and concurrent callers.
#include <gtest/gtest.h>

#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "adversary/adversary.h"
#include "harness/registry.h"
#include "harness/runner.h"
#include "robust/robust.h"
#include "traffic/traffic.h"

namespace crmc::traffic {
namespace {

harness::TrialSpec SmallEngine() {
  harness::TrialSpec engine;
  engine.channels = 8;
  engine.max_rounds = 4096;
  engine.base_seed = 0x5eed;
  return engine;
}

TrafficSpec PoissonSpec(double lambda, std::int32_t stations,
                        std::int64_t horizon) {
  TrafficSpec spec;
  spec.arrival = ArrivalKind::kPoisson;
  spec.lambda = lambda;
  spec.stations = stations;
  spec.horizon_rounds = horizon;
  spec.trajectory_stride = -1;
  return spec;
}

TrafficResult RunFor(const TrafficSpec& spec,
                     const harness::TrialSpec& engine,
                     const std::string& algo) {
  const harness::AlgorithmInfo& info = harness::AlgorithmByName(algo);
  return RunTraffic(spec, engine, harness::HandleFor(info),
                    info.requires_two_active);
}

void ExpectInvalid(const TrafficSpec& spec, const std::string& needle) {
  try {
    ValidateTrafficSpec(spec);
    FAIL() << "expected invalid_argument containing '" << needle << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(TrafficSpecValidation, DistinctMessagesPerConstraint) {
  {
    TrafficSpec s = PoissonSpec(0.1, 0, 10);
    ExpectInvalid(s, "--stations");
  }
  {
    TrafficSpec s = PoissonSpec(0.1, 4, 0);
    ExpectInvalid(s, "--rounds");
  }
  {
    TrafficSpec s = PoissonSpec(-0.5, 4, 10);
    ExpectInvalid(s, "finite rate >= 0");
  }
  {
    TrafficSpec s = PoissonSpec(100.0, 4, 10);
    ExpectInvalid(s, "<= 64 packets/round");
  }
  {
    TrafficSpec s = PoissonSpec(0.1, 4, 10);
    s.arrival = ArrivalKind::kBursty;
    s.burst_size = 1;
    s.burst_period = 1;
    ExpectInvalid(s, "only applies to --arrival poisson");
  }
  {
    TrafficSpec s = PoissonSpec(0.0, 4, 10);
    s.burst_size = -1;
    ExpectInvalid(s, "--burst-size) must be >= 0");
  }
  {
    TrafficSpec s = PoissonSpec(0.0, 4, 10);
    s.burst_size = 2;
    ExpectInvalid(s, "only applies to --arrival bursty");
  }
  {
    TrafficSpec s = PoissonSpec(0.0, 4, 10);
    s.arrival = ArrivalKind::kBursty;
    s.burst_size = 2;
    s.burst_period = 0;
    ExpectInvalid(s, ">= 1 for --arrival bursty");
  }
  {
    TrafficSpec s = PoissonSpec(0.0, 4, 10);
    s.burst_period = 5;
    ExpectInvalid(s, "--burst-period) only applies");
  }
  {
    TrafficSpec s = PoissonSpec(0.0, 4, 10);
    s.script.push_back({0, 1, 1});
    ExpectInvalid(s, "--script) only applies");
  }
  {
    TrafficSpec s = PoissonSpec(0.0, 4, 10);
    s.arrival = ArrivalKind::kScripted;
    s.script = {{5, 1, 1}, {2, 0, 1}};
    ExpectInvalid(s, "sorted by round");
  }
  {
    TrafficSpec s = PoissonSpec(0.0, 4, 10);
    s.arrival = ArrivalKind::kScripted;
    s.script = {{0, 7, 1}};
    ExpectInvalid(s, "out of range");
  }
  {
    TrafficSpec s = PoissonSpec(0.0, 4, 10);
    s.arrival = ArrivalKind::kScripted;
    s.script = {{0, 1, 0}};
    ExpectInvalid(s, "packet counts must be >= 1");
  }
  {
    TrafficSpec s = PoissonSpec(0.0, 4, 10);
    s.packet_budget = -2;
    ExpectInvalid(s, "--packet-budget) must be >= 0");
  }
  {
    TrafficSpec s = PoissonSpec(0.0, 4, 10);
    s.packet_budget = 3;
    ExpectInvalid(s, "--packet-budget) only applies");
  }
  {
    TrafficSpec s = PoissonSpec(0.0, 4, 10);
    s.arrival = ArrivalKind::kAdversarial;
    s.packet_budget = 3;
    s.burst_size = 0;
    ExpectInvalid(s, "need a burst size");
  }
  // A well-formed spec passes both spellings.
  const TrafficSpec ok = PoissonSpec(0.5, 8, 100);
  EXPECT_NO_THROW(ok.Validate());
  EXPECT_NO_THROW(ValidateTrafficSpec(ok));
}

// --arrival's names: every kind round-trips through its spelling, and an
// unknown name parses to nullopt (the CLI turns that into its "unknown
// arrival" usage error; tools/CMakeLists.txt checks the message).
TEST(TrafficArrivalKind, NamesRoundTrip) {
  for (const ArrivalKind kind :
       {ArrivalKind::kPoisson, ArrivalKind::kBursty, ArrivalKind::kScripted,
        ArrivalKind::kAdversarial}) {
    const std::optional<ArrivalKind> parsed = ParseArrivalKind(ToString(kind));
    ASSERT_TRUE(parsed.has_value()) << ToString(kind);
    EXPECT_EQ(*parsed, kind) << ToString(kind);
  }
  EXPECT_FALSE(ParseArrivalKind("nonsense").has_value());
  EXPECT_FALSE(ParseArrivalKind("").has_value());
  EXPECT_FALSE(ParseArrivalKind("Poisson").has_value());  // case-sensitive
}

TEST(TrafficComposition, LanesRejectAdversarialArrivalNamingBothFlags) {
  TrafficSpec spec = PoissonSpec(0.0, 8, 100);
  spec.arrival = ArrivalKind::kAdversarial;
  spec.packet_budget = 10;
  spec.burst_size = 4;
  harness::TrialSpec engine = SmallEngine();
  engine.lane_width = 8;
  try {
    RunFor(spec, engine, "general");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--lanes"), std::string::npos) << msg;
    EXPECT_NE(msg.find("--arrival adversarial"), std::string::npos) << msg;
  }
}

TEST(TrafficComposition, PopulationMustCoverStations) {
  TrafficSpec spec = PoissonSpec(0.1, 64, 100);
  harness::TrialSpec engine = SmallEngine();
  engine.population = 8;
  try {
    RunFor(spec, engine, "general");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--population"), std::string::npos) << msg;
    EXPECT_NE(msg.find("--stations"), std::string::npos) << msg;
  }
}

TEST(Traffic, ZeroRateTraceIsIdleWhateverTheSeed) {
  std::vector<TrafficSpec> zero_rate;
  zero_rate.push_back(PoissonSpec(0.0, 8, 200));
  {
    TrafficSpec s = PoissonSpec(0.0, 8, 200);
    s.arrival = ArrivalKind::kBursty;
    s.burst_size = 0;
    s.burst_period = 5;
    zero_rate.push_back(s);
  }
  {
    TrafficSpec s = PoissonSpec(0.0, 8, 200);
    s.arrival = ArrivalKind::kScripted;
    zero_rate.push_back(s);
  }
  {
    TrafficSpec s = PoissonSpec(0.0, 8, 200);
    s.arrival = ArrivalKind::kAdversarial;
    s.packet_budget = 0;
    zero_rate.push_back(s);
  }
  for (TrafficSpec spec : zero_rate) {
    spec.record_deliveries = true;
    for (const std::uint64_t seed : {0ULL, 1ULL, 0xdeadULL}) {
      spec.traffic_seed = seed;
      const TrafficResult r = RunFor(spec, SmallEngine(), "general");
      EXPECT_EQ(r.arrivals, 0);
      EXPECT_EQ(r.delivered, 0);
      EXPECT_EQ(r.episodes, 0);
      EXPECT_EQ(r.rounds, 200);
      EXPECT_EQ(r.idle_rounds, 200);
      EXPECT_TRUE(r.deliveries.empty());
      EXPECT_DOUBLE_EQ(r.jain_fairness, 1.0);
      EXPECT_DOUBLE_EQ(r.throughput, 0.0);
    }
  }
}

TEST(Traffic, PacketConservationWithAndWithoutDrain) {
  TrafficSpec spec = PoissonSpec(0.5, 16, 500);
  harness::TrialSpec engine = SmallEngine();
  for (const bool drain : {false, true}) {
    spec.drain = drain;
    const TrafficResult r = RunFor(spec, engine, "general");
    EXPECT_EQ(r.arrivals, r.delivered + r.backlog_remaining);
    EXPECT_EQ(r.arrivals,
              std::accumulate(r.station_arrivals.begin(),
                              r.station_arrivals.end(), std::int64_t{0}));
    EXPECT_EQ(r.delivered,
              std::accumulate(r.station_delivered.begin(),
                              r.station_delivered.end(), std::int64_t{0}));
    EXPECT_GT(r.arrivals, 0);
    if (drain) {
      EXPECT_EQ(r.backlog_remaining, 0);
      EXPECT_EQ(r.delivered, r.arrivals);
      EXPECT_GE(r.rounds, 500);
    } else {
      // The episode in flight at the horizon runs to completion, so the
      // trace can overrun by at most one episode tail.
      EXPECT_GE(r.rounds, 500);
      EXPECT_LE(r.rounds, 500 + SmallEngine().max_rounds);
    }
  }
}

// The core determinism contract, satellite (c): same (TrafficSpec, seed)
// => bit-identical delivery schedule on the batch and coroutine episode
// engines. 2000 workload seeds on the |A| = 2 protocol.
TEST(TrafficDeterminism, BatchMatchesCoroutineTwoActive2000Seeds) {
  TrafficSpec spec = PoissonSpec(0.35, 5, 48);
  spec.record_deliveries = true;
  spec.drain = true;
  harness::TrialSpec batch = SmallEngine();
  batch.channels = 4;
  harness::TrialSpec coroutine = batch;
  coroutine.use_batch_engine = false;
  for (std::uint64_t seed = 0; seed < 2000; ++seed) {
    spec.traffic_seed = seed;
    batch.base_seed = coroutine.base_seed = seed * 3 + 1;
    const TrafficResult a = RunFor(spec, batch, "two_active");
    const TrafficResult b = RunFor(spec, coroutine, "two_active");
    ASSERT_EQ(a.deliveries, b.deliveries) << "seed " << seed;
    ASSERT_EQ(a.rounds, b.rounds) << "seed " << seed;
    ASSERT_EQ(a.episodes, b.episodes) << "seed " << seed;
    ASSERT_EQ(a.failed_episodes, b.failed_episodes) << "seed " << seed;
    // The executors really differed.
    if (a.episodes > a.singleton_deliveries) {
      ASSERT_GT(a.engine_episodes_batch, 0) << "seed " << seed;
      ASSERT_EQ(a.engine_episodes_coroutine, 0) << "seed " << seed;
      ASSERT_EQ(b.engine_episodes_batch, 0) << "seed " << seed;
      ASSERT_GT(b.engine_episodes_coroutine, 0) << "seed " << seed;
    }
  }
}

TEST(TrafficDeterminism, BatchMatchesCoroutineGeneral) {
  TrafficSpec spec = PoissonSpec(0.4, 6, 64);
  spec.record_deliveries = true;
  spec.drain = true;
  harness::TrialSpec batch = SmallEngine();
  harness::TrialSpec coroutine = batch;
  coroutine.use_batch_engine = false;
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    spec.traffic_seed = seed;
    batch.base_seed = coroutine.base_seed = seed + 11;
    const TrafficResult a = RunFor(spec, batch, "general");
    const TrafficResult b = RunFor(spec, coroutine, "general");
    ASSERT_EQ(a.deliveries, b.deliveries) << "seed " << seed;
    ASSERT_EQ(a.rounds, b.rounds) << "seed " << seed;
  }
}

TEST(TrafficDeterminism, LaneWidthAndFusedRoundsAreHarmless) {
  TrafficSpec spec = PoissonSpec(0.4, 6, 64);
  spec.record_deliveries = true;
  spec.drain = true;
  harness::TrialSpec base = SmallEngine();
  base.rng = support::RngKind::kPhilox;
  harness::TrialSpec lanes = base;
  lanes.lane_width = 8;
  harness::TrialSpec unfused = base;
  unfused.fused_rounds = false;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    spec.traffic_seed = seed;
    const TrafficResult a = RunFor(spec, base, "general");
    const TrafficResult b = RunFor(spec, lanes, "general");
    const TrafficResult c = RunFor(spec, unfused, "general");
    ASSERT_EQ(a.deliveries, b.deliveries) << "seed " << seed;
    ASSERT_EQ(a.deliveries, c.deliveries) << "seed " << seed;
    ASSERT_EQ(a.rounds, b.rounds) << "seed " << seed;
    ASSERT_EQ(a.rounds, c.rounds) << "seed " << seed;
  }
}

TEST(TrafficDeterminism, ConcurrentCallersSeeTheSameTrace) {
  TrafficSpec spec = PoissonSpec(0.5, 8, 256);
  spec.record_deliveries = true;
  spec.drain = true;
  const harness::TrialSpec engine = SmallEngine();
  const TrafficResult reference = RunFor(spec, engine, "general");
  std::vector<TrafficResult> results(4);
  std::vector<std::thread> pool;
  for (std::size_t i = 0; i < results.size(); ++i) {
    pool.emplace_back(
        [&, i] { results[i] = RunFor(spec, engine, "general"); });
  }
  for (std::thread& t : pool) t.join();
  for (const TrafficResult& r : results) {
    EXPECT_EQ(r.deliveries, reference.deliveries);
    EXPECT_EQ(r.rounds, reference.rounds);
    EXPECT_EQ(r.episodes, reference.episodes);
  }
}

// The arrival sequence lives on its own always-xoshiro streams: switching
// the engine's generator kind reshuffles episode durations but not the
// workload itself.
TEST(TrafficDeterminism, WorkloadIsIdenticalAcrossEngineRngKinds) {
  TrafficSpec spec = PoissonSpec(0.4, 8, 300);
  harness::TrialSpec xoshiro = SmallEngine();
  harness::TrialSpec philox = xoshiro;
  philox.rng = support::RngKind::kPhilox;
  const TrafficResult a = RunFor(spec, xoshiro, "general");
  const TrafficResult b = RunFor(spec, philox, "general");
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.station_arrivals, b.station_arrivals);
}

TEST(Traffic, RequiresTwoActiveServesTheWholeBacklog) {
  TrafficSpec spec = PoissonSpec(0.0, 16, 10);
  spec.arrival = ArrivalKind::kBursty;
  spec.burst_size = 16;
  spec.burst_period = 1'000'000;  // one burst, round 0
  spec.drain = true;
  spec.record_deliveries = true;
  harness::TrialSpec engine = SmallEngine();
  engine.channels = 4;
  const TrafficResult r = RunFor(spec, engine, "two_active");
  EXPECT_EQ(r.arrivals, 16);
  EXPECT_EQ(r.delivered, 16);
  EXPECT_EQ(r.backlog_remaining, 0);
  // The last packet stands alone: at least one singleton episode.
  EXPECT_GE(r.singleton_deliveries, 1);
  EXPECT_EQ(r.engine_episodes_coroutine, 0);
}

TEST(Traffic, ScriptedArrivalsReplayExactly) {
  TrafficSpec spec = PoissonSpec(0.0, 8, 20);
  spec.arrival = ArrivalKind::kScripted;
  spec.script = {{0, 3, 2}, {5, 1, 1}};
  spec.drain = true;
  spec.record_deliveries = true;
  const TrafficResult r = RunFor(spec, SmallEngine(), "general");
  EXPECT_EQ(r.arrivals, 3);
  EXPECT_EQ(r.delivered, 3);
  EXPECT_EQ(r.station_arrivals[3], 2);
  EXPECT_EQ(r.station_arrivals[1], 1);
  ASSERT_EQ(r.deliveries.size(), 3u);
  for (const DeliveryRecord& d : r.deliveries) {
    EXPECT_TRUE(d.birth_round == 0 || d.birth_round == 5) << d.birth_round;
    EXPECT_GE(d.round, d.birth_round);
  }
}

TEST(Traffic, BurstyArrivalsLandEveryPeriod) {
  TrafficSpec spec = PoissonSpec(0.0, 8, 25);
  spec.arrival = ArrivalKind::kBursty;
  spec.burst_size = 4;
  spec.burst_period = 10;  // rounds 0, 10, 20
  spec.drain = true;
  const TrafficResult r = RunFor(spec, SmallEngine(), "general");
  EXPECT_EQ(r.arrivals, 12);
  EXPECT_EQ(r.delivered, 12);
}

TEST(Traffic, AdversarialPlacerSpendsItsWholeBudgetGivenRoom) {
  TrafficSpec spec = PoissonSpec(0.0, 16, 2000);
  spec.arrival = ArrivalKind::kAdversarial;
  spec.packet_budget = 40;
  spec.burst_size = 8;
  spec.drain = true;
  const TrafficResult r = RunFor(spec, SmallEngine(), "general");
  EXPECT_EQ(r.adv_packets_placed, 40);
  EXPECT_EQ(r.arrivals, 40);
  EXPECT_EQ(r.delivered, 40);
  // Bursts land on distinct stations while the medium is idle, so every
  // burst forces a contended episode.
  EXPECT_GT(r.engine_episodes_batch, 0);
}

TEST(Traffic, FaultAndRobustLayersComposePerEpisode) {
  TrafficSpec spec = PoissonSpec(0.3, 8, 400);
  spec.drain = true;
  harness::TrialSpec engine = SmallEngine();
  engine.faults.jam_rate = 0.2;
  engine.faults.fault_seed = 7;
  const TrafficResult jammed = RunFor(spec, engine, "general");
  EXPECT_EQ(jammed.arrivals,
            jammed.delivered + jammed.backlog_remaining);
  EXPECT_GT(jammed.delivered, 0);

  engine.robust.enabled = true;
  const TrafficResult robust = RunFor(spec, engine, "general");
  EXPECT_EQ(robust.arrivals,
            robust.delivered + robust.backlog_remaining);
  EXPECT_GT(robust.delivered, 0);
}

TEST(Traffic, LatencyAccountingIsConsistent) {
  TrafficSpec spec = PoissonSpec(0.5, 8, 300);
  spec.drain = true;
  spec.record_deliveries = true;
  const TrafficResult r = RunFor(spec, SmallEngine(), "general");
  ASSERT_GT(r.delivered, 0);
  EXPECT_EQ(static_cast<std::int64_t>(r.deliveries.size()), r.delivered);
  std::int64_t hist_total = 0;
  for (const auto& [latency, count] : r.latency_histogram) {
    EXPECT_GE(latency, 1);
    hist_total += count;
  }
  EXPECT_EQ(hist_total, r.delivered);
  EXPECT_LE(r.latency_p50, r.latency_p95);
  EXPECT_LE(r.latency_p95, r.latency_p99);
  EXPECT_GE(r.mean_latency, 1.0);
  for (const DeliveryRecord& d : r.deliveries) {
    EXPECT_GE(d.round, d.birth_round);
    EXPECT_LT(d.round, r.rounds);
  }
}

TEST(Traffic, QueueTrajectorySamplingStrides) {
  TrafficSpec spec = PoissonSpec(0.0, 4, 100);
  spec.trajectory_stride = 10;
  const TrafficResult r = RunFor(spec, SmallEngine(), "general");
  ASSERT_EQ(r.queue_trajectory.size(), 10u);
  for (std::size_t i = 0; i < r.queue_trajectory.size(); ++i) {
    EXPECT_EQ(r.queue_trajectory[i].round,
              static_cast<std::int64_t>(i) * 10);
    EXPECT_EQ(r.queue_trajectory[i].backlog, 0);
  }
  spec.trajectory_stride = -1;
  EXPECT_TRUE(RunFor(spec, SmallEngine(), "general")
                  .queue_trajectory.empty());
  // stride 0 derives ~64 samples over the horizon.
  spec.trajectory_stride = 0;
  spec.horizon_rounds = 640;
  const TrafficResult derived = RunFor(spec, SmallEngine(), "general");
  EXPECT_EQ(derived.queue_trajectory.size(), 64u);
}

// Round-3 composition: each gen-2/3 jamming adversary (lookahead,
// learning, probing) against the adaptive wrapper, inside traffic
// episodes. The delivery schedule must stay a pure function of
// (TrafficSpec, engine TrialSpec, protocol) — bit-identical across the
// batch and coroutine episode engines — and packets must be conserved
// even when the jammer kills episodes outright.
TEST(TrafficDeterminism, JammingAdversariesVsAdaptiveWrapperBitExact) {
  TrafficSpec spec = PoissonSpec(0.4, 6, 64);
  spec.record_deliveries = true;
  spec.drain = true;
  for (const adversary::Kind kind :
       {adversary::Kind::kLookahead, adversary::Kind::kLearning,
        adversary::Kind::kProbing}) {
    SCOPED_TRACE(adversary::ToString(kind));
    harness::TrialSpec batch = SmallEngine();
    batch.adversary.kind = kind;
    batch.adversary.budget = 96;
    batch.adversary.per_round_cap = 2;
    batch.robust.enabled = true;
    batch.robust.policy = robust::PolicyKind::kAdaptive;
    harness::TrialSpec coroutine = batch;
    coroutine.use_batch_engine = false;
    std::int64_t contended_episodes = 0;
    for (std::uint64_t seed = 0; seed < 150; ++seed) {
      spec.traffic_seed = seed;
      batch.base_seed = coroutine.base_seed = seed * 7 + 3;
      batch.adversary.adv_seed = coroutine.adversary.adv_seed = seed + 19;
      const TrafficResult a = RunFor(spec, batch, "general");
      const TrafficResult b = RunFor(spec, coroutine, "general");
      ASSERT_EQ(a.deliveries, b.deliveries) << "seed " << seed;
      ASSERT_EQ(a.rounds, b.rounds) << "seed " << seed;
      ASSERT_EQ(a.episodes, b.episodes) << "seed " << seed;
      ASSERT_EQ(a.failed_episodes, b.failed_episodes) << "seed " << seed;
      // Conservation under drain: every arrival is eventually delivered,
      // jammer or no jammer.
      ASSERT_EQ(a.arrivals, a.delivered + a.backlog_remaining)
          << "seed " << seed;
      ASSERT_EQ(a.backlog_remaining, 0) << "seed " << seed;
      ASSERT_EQ(a.arrivals, b.arrivals) << "seed " << seed;
      contended_episodes += a.engine_episodes_batch;
    }
    // The sweep really exercised jammed engine episodes, not just the
    // singleton fast path.
    EXPECT_GT(contended_episodes, 0);
  }
}

// kProbing's calibration window is part of the schedule contract: with the
// adaptive wrapper underneath, moving probe_budget must change behaviour
// deterministically, and each setting must stay batch/coroutine-identical.
TEST(TrafficDeterminism, ProbeBudgetKnobIsDeterministicUnderTraffic) {
  TrafficSpec spec = PoissonSpec(0.5, 5, 48);
  spec.record_deliveries = true;
  spec.drain = true;
  for (const std::int64_t probe_budget : {std::int64_t{0}, std::int64_t{8},
                                          std::int64_t{48}}) {
    SCOPED_TRACE(probe_budget);
    harness::TrialSpec batch = SmallEngine();
    batch.adversary.kind = adversary::Kind::kProbing;
    batch.adversary.budget = 128;
    batch.adversary.probe_budget = probe_budget;
    batch.robust.enabled = true;
    batch.robust.policy = robust::PolicyKind::kAdaptive;
    harness::TrialSpec coroutine = batch;
    coroutine.use_batch_engine = false;
    for (std::uint64_t seed = 0; seed < 60; ++seed) {
      spec.traffic_seed = seed;
      batch.base_seed = coroutine.base_seed = seed + 5;
      const TrafficResult a = RunFor(spec, batch, "general");
      const TrafficResult b = RunFor(spec, coroutine, "general");
      ASSERT_EQ(a.deliveries, b.deliveries) << "seed " << seed;
      ASSERT_EQ(a.rounds, b.rounds) << "seed " << seed;
      ASSERT_EQ(a.arrivals, a.delivered) << "seed " << seed;
    }
  }
}

TEST(Traffic, SingletonEpisodesSkipTheEngineAtLowRate) {
  TrafficSpec spec = PoissonSpec(0.01, 64, 5000);
  spec.drain = true;
  const TrafficResult r = RunFor(spec, SmallEngine(), "general");
  EXPECT_EQ(r.delivered, r.arrivals);
  // At λ = 0.01 nearly every episode is a lone station.
  EXPECT_GT(r.singleton_deliveries, r.engine_episodes_batch);
}

}  // namespace
}  // namespace crmc::traffic
