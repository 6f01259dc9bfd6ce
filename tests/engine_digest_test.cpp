// Engine digest gate: a change that is meant to move no draw (a faster RNG
// layout, a kernel rewrite, a loop refactor) must leave every run of the
// benchmark shapes bit-identical. Each case folds the per-run RunResult
// fields of a few thousand seeds into one 64-bit digest and compares it with
// a constant committed below, under every SIMD backend the CPU has.
//
// The constants pin today's bit streams. If a change moves them on purpose
// (a new protocol rule, a different seeding), regenerate them and say why in
// the change description; a speed-only change must never need to.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/general.h"
#include "harness/registry.h"
#include "sim/batch_engine.h"
#include "sim/engine.h"
#include "sim/step_program.h"
#include "sim/trial_engine.h"
#include "simd/dispatch.h"
#include "support/rng.h"

namespace crmc::sim {
namespace {

using support::RngKind;

// Order-sensitive fold: SplitMix64's output function over (digest ^ value).
class Digest {
 public:
  void Add(std::uint64_t v) {
    std::uint64_t z = (h_ ^ v) + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    h_ = z ^ (z >> 31);
  }
  void Add(std::int64_t v) { Add(static_cast<std::uint64_t>(v)); }
  void Add(bool v) { Add(static_cast<std::uint64_t>(v)); }
  void Add(double v) { Add(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0;
};

void AddRun(const RunResult& r, Digest& d) {
  d.Add(r.solved);
  d.Add(r.solved_round);
  d.Add(r.rounds_executed);
  d.Add(r.total_transmissions);
  d.Add(r.fused_rounds);
  d.Add(r.max_node_transmissions);
  d.Add(r.mean_node_transmissions);
}

// The robust wrapper's confirm, jam and epoch counters on top of AddRun.
void AddRobustRun(const RunResult& r, Digest& d) {
  AddRun(r, d);
  d.Add(r.confirmed);
  d.Add(r.confirm_rounds);
  d.Add(r.backoff_rounds);
  d.Add(static_cast<std::int64_t>(r.epochs_used));
  d.Add(static_cast<std::int64_t>(r.retries));
  d.Add(r.adv_jams_spent);
  d.Add(r.adv_jams_effective);
  d.Add(r.adv_jams_echo);
  d.Add(r.adv_jams_backoff);
  d.Add(r.obfuscation_rounds);
  d.Add(r.probe_rounds_detected);
  d.Add(static_cast<std::int64_t>(r.confirm_quorum_peak));
}

std::vector<simd::Backend> AvailableBackends() {
  std::vector<simd::Backend> out;
  for (const simd::Backend b : simd::AllBackends()) {
    if (simd::BackendAvailable(b)) out.push_back(b);
  }
  return out;
}

class ScopedBackend {
 public:
  explicit ScopedBackend(simd::Backend b) : prior_(simd::ActiveBackend()) {
    EXPECT_TRUE(simd::SetBackend(b));
  }
  ~ScopedBackend() { simd::SetBackend(prior_); }

 private:
  simd::Backend prior_;
};

std::unique_ptr<StepProgram> ProgramFor(const std::string& algo) {
  return harness::AlgorithmByName(algo).make_step()();
}

// The harness's defaults for the fields the shapes below leave alone.
EngineConfig BaseConfig() {
  const harness::TrialSpec spec;
  EngineConfig config;
  config.max_rounds = spec.max_rounds;
  config.stop_when_solved = spec.stop_when_solved;
  return config;
}

// sweep_general_large: general, n = 2^20, |A| = 4096, C = 256, one run per
// seed on BatchEngine.
std::uint64_t GeneralLargeDigest(RngKind kind) {
  EngineConfig config = BaseConfig();
  config.population = std::int64_t{1} << 20;
  config.num_active = 4096;
  config.channels = 256;
  config.rng = kind;
  const auto program = ProgramFor("general");
  BatchEngine engine;
  Digest d;
  for (std::uint64_t seed = 1; seed <= 3000; ++seed) {
    config.seed = seed;
    AddRun(engine.Run(config, *program), d);
  }
  return d.value();
}

// sweep_small_lanes: two_active, n = 2^20, C = 1024, philox, 32-lane
// lockstep chunks on TrialBatchEngine.
std::uint64_t SmallLanesDigest() {
  EngineConfig config = BaseConfig();
  config.population = std::int64_t{1} << 20;
  config.num_active = 2;
  config.channels = 1024;
  config.rng = RngKind::kPhilox;
  const auto program = ProgramFor("two_active");
  TrialBatchEngine engine(32);
  std::vector<std::uint64_t> seeds(32768);
  for (std::size_t i = 0; i < seeds.size(); ++i) seeds[i] = 1 + i;
  std::vector<RunResult> results(seeds.size());
  engine.Run(config, *program, seeds, results);
  Digest d;
  for (const RunResult& r : results) {
    AddRun(r, d);
    d.Add(static_cast<std::int64_t>(r.trial_lanes));
    d.Add(r.trial_fallback);
  }
  return d.value();
}

// robust_probing_hardened: two_active, n = 65536, C = 64, xoshiro, probing
// adversary with budget 4096 against the robust wrapper under `policy`.
EngineConfig RobustProbingConfig(robust::PolicyKind policy) {
  EngineConfig config = BaseConfig();
  config.population = 65536;
  config.num_active = 2;
  config.channels = 64;
  config.rng = RngKind::kXoshiro;
  config.adversary.kind = adversary::Kind::kProbing;
  config.adversary.budget = 4096;
  config.robust.enabled = true;
  config.robust.policy = policy;
  return config;
}

// What a robust digest's runs exercised, summed over its seeds, so a case
// can check that it still reaches the rounds it exists to pin.
struct RobustCoverage {
  std::int64_t confirm_rounds = 0;
  std::int64_t obfuscation_rounds = 0;
  std::int64_t faults_injected = 0;
};

// Folds AddRobustRun over seeds 1..`seeds` of `algo` on BatchEngine; with a
// fault layer configured it also folds the injector's counters, so a moved
// fault draw shows even where the outcome survives it.
std::uint64_t RobustDigest(const EngineConfig& base, const std::string& algo,
                           std::uint64_t seeds,
                           RobustCoverage* coverage = nullptr) {
  EngineConfig config = base;
  const auto program = ProgramFor(algo);
  BatchEngine engine;
  Digest d;
  RobustCoverage cov;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    config.seed = seed;
    const RunResult r = engine.Run(config, *program);
    AddRobustRun(r, d);
    if (config.faults.Any()) {
      d.Add(r.jams_injected);
      d.Add(r.erasures_injected);
      d.Add(r.cd_flips_injected);
      d.Add(static_cast<std::int64_t>(r.crashed_nodes));
    }
    cov.confirm_rounds += r.confirm_rounds;
    cov.obfuscation_rounds += r.obfuscation_rounds;
    cov.faults_injected += r.faults_injected;
  }
  if (coverage != nullptr) *coverage = cov;
  return d.value();
}

std::uint64_t RobustHardenedDigest() {
  return RobustDigest(RobustProbingConfig(robust::PolicyKind::kHardened),
                      "two_active", 200);
}

// The hardened probing shape over a lossy channel: echo and chaff rounds
// run with an active fault injector (erasures, CD flips) and crashes.
EngineConfig RobustFaultyConfig() {
  EngineConfig config = RobustProbingConfig(robust::PolicyKind::kHardened);
  config.faults.erasure_rate = 0.05;
  config.faults.flaky_cd_rate = 0.02;
  config.faults.crash_rate = 0.001;
  return config;
}

// The robust probing shape against random_budgeted (budget 4096, cap 4)
// under `policy` with per-node streams of `kind`: every round jams up to
// four fresh random channels, so an echo train or chaff burst repeats one
// action array under jam sets of equal size and new content.
EngineConfig RobustRandomConfig(robust::PolicyKind policy, RngKind kind) {
  EngineConfig config = RobustProbingConfig(policy);
  config.rng = kind;
  config.adversary.kind = adversary::Kind::kRandomBudgeted;
  config.adversary.per_round_cap = 4;
  return config;
}

// general, n = 65536, |A| = 64, C = 64, against the lookahead adversary
// under the hardened wrapper: echoes over more than two live nodes, and
// chaff bursts.
EngineConfig GeneralLookaheadConfig() {
  EngineConfig config = BaseConfig();
  config.population = 65536;
  config.num_active = 64;
  config.channels = 64;
  config.rng = RngKind::kXoshiro;
  config.adversary.kind = adversary::Kind::kLookahead;
  config.adversary.budget = 2048;
  config.adversary.per_round_cap = 4;
  config.robust.enabled = true;
  config.robust.policy = robust::PolicyKind::kHardened;
  return config;
}

// The sweep_general_large shape against two scripted jams per run, each on
// one of channels 1-8: the first lands mid-Reduce (Reduce spans rounds 0-9
// at n = 2^20) and drops the run off the fused path, so the rest of Reduce
// and all of IDReduction run as materialized per-node rounds; the second
// lands in IDReduction's first cycle, where it can spoil a rename. A
// primary-channel jam knocks listeners out; a jam elsewhere only perturbs.
EngineConfig GeneralJammedConfig(RngKind kind, std::uint64_t seed) {
  EngineConfig config = BaseConfig();
  config.population = std::int64_t{1} << 20;
  config.num_active = 4096;
  config.channels = 256;
  config.rng = kind;
  config.seed = seed;
  config.adversary.kind = adversary::Kind::kScripted;
  config.adversary.budget = 2;
  config.adversary.script = {
      {static_cast<std::int64_t>(1 + seed % 9),
       static_cast<mac::ChannelId>(1 + seed * 7 % 8)},
      {static_cast<std::int64_t>(10 + seed % 3),
       static_cast<mac::ChannelId>(1 + seed * 5 % 8)}};
  return config;
}

// Rounds the jammed runs spent in each regime, summed over the seeds.
struct JammedCoverage {
  std::int64_t materialized_pre_leaf = 0;  // unfused Reduce/IDR rounds
  std::int64_t leaf_rounds = 0;            // rounds in LeafElection
  std::int64_t leaf_runs = 0;              // runs with >= 2 leaf entrants
};

std::uint64_t GeneralJammedDigest(RngKind kind, std::uint64_t seeds,
                                  JammedCoverage* coverage = nullptr) {
  const auto program = ProgramFor("general");
  // The coroutine twin, recording LeafElection's per-phase stats: a run
  // entered LeafElection with two or more nodes iff a cohort master
  // recorded a phase, and it did so in the round after the last
  // rename_done mark (every IDReduction node exits by then).
  core::GeneralParams params;
  params.leaf_election.record_phase_stats = true;
  const ProtocolFactory coroutine = core::MakeGeneral(params);
  BatchEngine engine;
  Digest d;
  JammedCoverage cov;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    const EngineConfig config = GeneralJammedConfig(kind, seed);
    const RunResult r = engine.Run(config, *program);
    AddRun(r, d);
    d.Add(r.adv_jams_spent);
    d.Add(r.adv_jams_effective);
    if (coverage == nullptr) continue;
    const RunResult coro = Engine::Run(config, coroutine);
    const bool leaf = !coro.MetricValues("le_csize").empty();
    const std::int64_t leaf_start =
        leaf ? coro.LastPhaseMark("rename_done") : r.rounds_executed;
    cov.materialized_pre_leaf += leaf_start - r.fused_rounds;
    cov.leaf_rounds += r.rounds_executed - leaf_start;
    cov.leaf_runs += leaf ? 1 : 0;
  }
  if (coverage != nullptr) *coverage = cov;
  return d.value();
}

TEST(EngineDigest, SweepGeneralLargeXoshiro) {
  for (const simd::Backend backend : AvailableBackends()) {
    ScopedBackend forced(backend);
    EXPECT_EQ(GeneralLargeDigest(RngKind::kXoshiro), 0x1911207b845429cfULL)
        << simd::ToString(backend);
  }
}

TEST(EngineDigest, SweepGeneralLargePhilox) {
  for (const simd::Backend backend : AvailableBackends()) {
    ScopedBackend forced(backend);
    EXPECT_EQ(GeneralLargeDigest(RngKind::kPhilox), 0x342a20904cd2ed37ULL)
        << simd::ToString(backend);
  }
}

TEST(EngineDigest, SweepSmallLanes) {
  for (const simd::Backend backend : AvailableBackends()) {
    ScopedBackend forced(backend);
    EXPECT_EQ(SmallLanesDigest(), 0x7f986bcb5c474847ULL)
        << simd::ToString(backend);
  }
}

TEST(EngineDigest, RobustProbingHardened) {
  for (const simd::Backend backend : AvailableBackends()) {
    ScopedBackend forced(backend);
    EXPECT_EQ(RobustHardenedDigest(), 0x29b8f53e8e047f59ULL)
        << simd::ToString(backend);
  }
}

TEST(EngineDigest, RobustProbingStatic) {
  for (const simd::Backend backend : AvailableBackends()) {
    ScopedBackend forced(backend);
    RobustCoverage cov;
    EXPECT_EQ(RobustDigest(RobustProbingConfig(robust::PolicyKind::kStatic),
                           "two_active", 200, &cov),
              0x9e06fcb100b9a0cfULL)
        << simd::ToString(backend);
    EXPECT_GT(cov.confirm_rounds, 0);
  }
}

TEST(EngineDigest, RobustProbingAdaptive) {
  for (const simd::Backend backend : AvailableBackends()) {
    ScopedBackend forced(backend);
    RobustCoverage cov;
    EXPECT_EQ(
        RobustDigest(RobustProbingConfig(robust::PolicyKind::kAdaptive),
                     "two_active", 200, &cov),
        0xb7b701564d0e25edULL)
        << simd::ToString(backend);
    EXPECT_GT(cov.confirm_rounds, 0);
  }
}

TEST(EngineDigest, RobustProbingHardenedFaulty) {
  for (const simd::Backend backend : AvailableBackends()) {
    ScopedBackend forced(backend);
    RobustCoverage cov;
    EXPECT_EQ(RobustDigest(RobustFaultyConfig(), "two_active", 200, &cov),
              0xd654dbfc4ef0090fULL)
        << simd::ToString(backend);
    EXPECT_GT(cov.confirm_rounds, 0);
    EXPECT_GT(cov.obfuscation_rounds, 0);
    EXPECT_GT(cov.faults_injected, 0);
  }
}

TEST(EngineDigest, RobustRandomBudgetedRepeats) {
  using robust::PolicyKind;
  struct Case {
    PolicyKind policy;
    RngKind kind;
    std::uint64_t want;
  };
  const Case cases[] = {
      {PolicyKind::kAdaptive, RngKind::kXoshiro, 0x47e59114e83309d1ULL},
      {PolicyKind::kAdaptive, RngKind::kPhilox, 0x64a61f7b7e45e586ULL},
      {PolicyKind::kHardened, RngKind::kXoshiro, 0x96d4b6a4e5c68538ULL},
      {PolicyKind::kHardened, RngKind::kPhilox, 0x3e9ab3911c6062caULL},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(robust::ToString(c.policy)) + "/" +
                 support::ToString(c.kind));
    for (const simd::Backend backend : AvailableBackends()) {
      ScopedBackend forced(backend);
      RobustCoverage cov;
      EXPECT_EQ(RobustDigest(RobustRandomConfig(c.policy, c.kind),
                             "two_active", 1000, &cov),
                c.want)
          << simd::ToString(backend);
      EXPECT_GT(cov.confirm_rounds, 0);
      if (c.policy == PolicyKind::kHardened) {
        EXPECT_GT(cov.obfuscation_rounds, 0);
      }
    }
  }
}

// The robust probing shape under smaller budgets, every policy and a round
// cap: what the round loop does when a protocol assumption breaks (a jam
// that splits two_active's search fails the epoch, and with max_epochs 2
// the static and adaptive policies' second breach aborts the run) and when
// the probing striker's plan holds through an echo train or chaff burst
// whose ledger runs dry before the train ends.
struct BreachCase {
  robust::PolicyKind policy;
  std::int64_t budget;
  std::int64_t max_rounds;  // 0: the harness default
  std::uint64_t want;
};

// What the breach cases' runs reached, summed over their seeds.
struct BreachCoverage {
  std::int64_t assumption_violated = 0;  // runs aborted by a breach
  // Runs whose ledger ran dry inside an echo train: the budget is spent and
  // some echo went unjammed. Probing jams every echo while it is funded and
  // there is no fault injector, so the train's suppressed candidate was
  // jammed and the ledger emptied between it and that echo.
  std::int64_t dry_in_train = 0;
  std::int64_t timed_out = 0;
};

EngineConfig BreachConfig(const BreachCase& c) {
  EngineConfig config = RobustProbingConfig(c.policy);
  config.adversary.budget = c.budget;
  if (c.policy != robust::PolicyKind::kHardened) config.robust.max_epochs = 2;
  if (c.max_rounds > 0) config.max_rounds = c.max_rounds;
  return config;
}

std::uint64_t BreachDigest(const BreachCase& c, BreachCoverage* coverage) {
  EngineConfig config = BreachConfig(c);
  const auto program = ProgramFor("two_active");
  BatchEngine engine;
  Digest d;
  BreachCoverage cov;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    config.seed = seed;
    const RunResult r = engine.Run(config, *program);
    AddRobustRun(r, d);
    d.Add(r.adv_rounds_held);
    d.Add(r.adaptive_confirm_extra);
    d.Add(r.assumption_violated);
    d.Add(static_cast<std::int64_t>(r.retries));
    cov.assumption_violated += r.assumption_violated ? 1 : 0;
    cov.dry_in_train += r.adv_jams_spent == c.budget &&
                                r.confirm_rounds > r.adv_jams_echo
                            ? 1
                            : 0;
    cov.timed_out += r.timed_out ? 1 : 0;
  }
  *coverage = cov;
  return d.value();
}

TEST(EngineDigest, RobustProbingBudgetsAndBreaches) {
  using robust::PolicyKind;
  const BreachCase cases[] = {
      {PolicyKind::kStatic, 300, 0, 0xc4a5ae7158d897e6ULL},
      {PolicyKind::kAdaptive, 300, 0, 0x8e7c420582a9068aULL},
      {PolicyKind::kAdaptive, 700, 0, 0xa0bef7d922f38ff7ULL},
      {PolicyKind::kAdaptive, 4096, 0, 0x483789a3efa9feadULL},
      {PolicyKind::kAdaptive, 4096, 2000, 0x161a31d46fb91a79ULL},
      {PolicyKind::kHardened, 700, 0, 0xd3863588acb6532cULL},
      {PolicyKind::kHardened, 4096, 0, 0xb677f5c2522e3032ULL},
      {PolicyKind::kHardened, 4096, 2000, 0xdc361d4bf1725bb9ULL},
  };
  BreachCoverage total;
  for (const BreachCase& c : cases) {
    SCOPED_TRACE(::testing::Message()
                 << robust::ToString(c.policy) << " budget " << c.budget
                 << " max_rounds " << c.max_rounds);
    for (const simd::Backend backend : AvailableBackends()) {
      ScopedBackend forced(backend);
      BreachCoverage cov;
      EXPECT_EQ(BreachDigest(c, &cov), c.want) << simd::ToString(backend);
      if (backend == AvailableBackends().front()) {
        total.assumption_violated += cov.assumption_violated;
        total.dry_in_train += cov.dry_in_train;
        total.timed_out += c.max_rounds > 0 ? cov.timed_out : 0;
      }
    }
  }
  EXPECT_GT(total.assumption_violated, 0);
  EXPECT_GT(total.dry_in_train, 0);
  EXPECT_GT(total.timed_out, 0);  // the round cap cut some train
}

TEST(EngineDigest, GeneralLookaheadHardened) {
  for (const simd::Backend backend : AvailableBackends()) {
    ScopedBackend forced(backend);
    RobustCoverage cov;
    EXPECT_EQ(RobustDigest(GeneralLookaheadConfig(), "general", 100, &cov),
              0xbff029317fa1c85bULL)
        << simd::ToString(backend);
    EXPECT_GT(cov.confirm_rounds, 0);
    EXPECT_GT(cov.obfuscation_rounds, 0);
  }
}

TEST(EngineDigest, GeneralJammedReachesLeafElection) {
  for (const RngKind kind : {RngKind::kXoshiro, RngKind::kPhilox}) {
    SCOPED_TRACE(support::ToString(kind));
    const std::uint64_t want = kind == RngKind::kXoshiro
                                   ? 0xe97160f2c4973d44ULL
                                   : 0x5b3a630964745fb8ULL;
    JammedCoverage cov;
    EXPECT_EQ(GeneralJammedDigest(kind, 300, &cov), want);
    EXPECT_GT(cov.materialized_pre_leaf, 0);
    EXPECT_GT(cov.leaf_rounds, 0);
    EXPECT_GT(cov.leaf_runs, 0);
    for (const simd::Backend backend : AvailableBackends()) {
      ScopedBackend forced(backend);
      EXPECT_EQ(GeneralJammedDigest(kind, 300), want)
          << simd::ToString(backend);
    }
  }
}

}  // namespace
}  // namespace crmc::sim
