// Heap-allocation gate: a warmed engine should run a trial of the benchmark
// shapes without going back to the allocator for scratch it already holds.
// This binary replaces the global operator new with a counting one and pins
// the exact number of allocations a fixed run of seeds makes once the
// engine, the program and the result buffers are warm. A change that adds
// an allocation to the per-trial path moves a count and fails here; a
// change that removes one updates the count and says why.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "harness/registry.h"
#include "harness/runner.h"
#include "sim/batch_engine.h"
#include "sim/engine.h"
#include "sim/step_program.h"
#include "sim/trial_engine.h"
#include "support/rng.h"

namespace {

std::atomic<std::int64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace crmc::sim {
namespace {

using support::RngKind;

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

// Allocations made by `body`, which must not allocate on another thread.
template <typename Body>
std::int64_t CountAllocations(Body&& body) {
  const std::int64_t before = g_allocations.load(std::memory_order_relaxed);
  body();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

// Runs seeds 1..`warm` once to size every buffer, then counts the
// allocations of seeds 1..`counted` on the same engine and program.
std::int64_t BatchRunAllocations(const EngineConfig& base,
                                 const std::string& algo, std::uint64_t warm,
                                 std::uint64_t counted) {
  const auto program = ProgramFor(algo);
  BatchEngine engine;
  EngineConfig config = base;
  RunResult result;
  for (std::uint64_t seed = 1; seed <= warm; ++seed) {
    config.seed = seed;
    result = engine.Run(config, *program);
  }
  return CountAllocations([&] {
    for (std::uint64_t seed = 1; seed <= counted; ++seed) {
      config.seed = seed;
      result = engine.Run(config, *program);
    }
  });
}

// sweep_general_large: general, n = 2^20, |A| = 4096, C = 256, xoshiro.
// The Reduce schedule is cached across Resets of the same population, and
// every other buffer is reused, so a warmed run allocates nothing.
TEST(EngineAllocations, GeneralLargeAllocatesNothingPerTrial) {
  EngineConfig config = BaseConfig();
  config.population = std::int64_t{1} << 20;
  config.num_active = 4096;
  config.channels = 256;
  config.rng = RngKind::kXoshiro;
  EXPECT_EQ(BatchRunAllocations(config, "general", 200, 200), 0);
}

// robust_probing_hardened: two_active, n = 65536, C = 64, xoshiro, probing
// adversary with budget 4096 against the hardened robust wrapper.
TEST(EngineAllocations, RobustProbingHardened) {
  EngineConfig config = BaseConfig();
  config.population = 65536;
  config.num_active = 2;
  config.channels = 64;
  config.rng = RngKind::kXoshiro;
  config.adversary.kind = adversary::Kind::kProbing;
  config.adversary.budget = 4096;
  config.robust.enabled = true;
  config.robust.policy = robust::PolicyKind::kHardened;
  // The engine resets one adversary driver in place and reuses its
  // strategy object and buffers. The runs' 75 failed epochs each end on a
  // two_active assumption a jam broke, which Advance reports as a static
  // AssumptionBreach: the round loop retries the epoch without formatting
  // a message or throwing. So a warmed run allocates nothing.
  EXPECT_EQ(BatchRunAllocations(config, "two_active", 200, 200), 0);
}

// sweep_small_lanes: two_active, n = 2^20, C = 1024, philox, 32-lane
// lockstep chunks on TrialBatchEngine.
TEST(EngineAllocations, SmallLanes) {
  EngineConfig config = BaseConfig();
  config.population = std::int64_t{1} << 20;
  config.num_active = 2;
  config.channels = 1024;
  config.rng = RngKind::kPhilox;
  const auto program = ProgramFor("two_active");
  TrialBatchEngine engine(32);
  std::vector<std::uint64_t> seeds(4096);
  for (std::size_t i = 0; i < seeds.size(); ++i) seeds[i] = 1 + i;
  std::vector<RunResult> results(seeds.size());
  engine.Run(config, *program, seeds, results);
  EXPECT_EQ(CountAllocations(
                [&] { engine.Run(config, *program, seeds, results); }),
            0);
}

// The same shape through one warmed harness::RunTrials call at threads = 1
// (the inline path, which is deterministic): 1,024 trials in 32-lane
// chunks. The call builds a fresh worker cache, so this counts the job's
// solved-round plane, the worker's program, engines and scratch. The lane
// notice reads the handle, and the trial engine holds no per-program
// object, so no program is built only to ask about lanes.
TEST(EngineAllocations, SmallLanesRunTrials) {
  harness::TrialSpec spec;
  spec.population = std::int64_t{1} << 20;
  spec.num_active = 2;
  spec.channels = 1024;
  spec.rng = RngKind::kPhilox;
  spec.lane_width = 32;
  const harness::ProtocolHandle handle =
      harness::HandleFor(harness::AlgorithmByName("two_active"));
  const auto run = [&] {
    return harness::RunTrials(spec, handle, 1024, /*keep_runs=*/false,
                              /*threads=*/1);
  };
  ASSERT_EQ(run().unsolved, 0);
  EXPECT_EQ(CountAllocations([&] { (void)run(); }), 13);
}

}  // namespace
}  // namespace crmc::sim
