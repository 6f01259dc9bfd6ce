// Tests for the active-count estimators.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <tuple>

#include "core/estimation.h"
#include "sim/engine.h"

namespace crmc::core {
namespace {

struct EstimateStats {
  std::vector<std::int64_t> exponents;  // one agreed value per trial
};

EstimateStats Collect(const sim::ProtocolFactory& factory,
                      std::int32_t num_active, std::int64_t population,
                      std::int32_t channels, int trials) {
  EstimateStats stats;
  for (int t = 0; t < trials; ++t) {
    sim::EngineConfig config;
    config.num_active = num_active;
    config.population = population;
    config.channels = channels;
    config.seed = static_cast<std::uint64_t>(t) + 1;
    config.stop_when_solved = false;
    config.max_rounds = 100000;
    const sim::RunResult r = sim::Engine::Run(config, factory);
    EXPECT_TRUE(r.all_terminated);
    const auto values = r.MetricValues("estimate_log2");
    EXPECT_EQ(static_cast<std::int32_t>(values.size()), num_active);
    // Agreement: every node reports the same exponent.
    std::set<std::int64_t> distinct(values.begin(), values.end());
    EXPECT_EQ(distinct.size(), 1u) << "trial " << t;
    stats.exponents.push_back(values.front());
  }
  return stats;
}

double MedianError(const EstimateStats& stats, std::int32_t num_active) {
  // |exponent - lg |A||, median over trials.
  std::vector<double> errors;
  const double truth = std::log2(static_cast<double>(num_active));
  for (const auto e : stats.exponents) {
    errors.push_back(std::abs(static_cast<double>(e) - truth));
  }
  std::sort(errors.begin(), errors.end());
  return errors[errors.size() / 2];
}

// The estimator name is a std::string, not a const char*: gtest prints a
// char pointer with its address, which would make the test names change
// from one process to the next.
using Params = std::tuple<std::int32_t, std::string>;
class EstimatorSweep : public ::testing::TestWithParam<Params> {};

TEST_P(EstimatorSweep, ConstantFactorAccuracy) {
  const auto [num_active, which] = GetParam();
  const bool geometric = which[0] == 'g';
  const auto factory = geometric ? MakeGeometricEstimateOnly()
                                 : MakeDensityEstimateOnly();
  const std::int32_t channels = geometric ? 32 : 1;
  const EstimateStats stats =
      Collect(factory, num_active, 1 << 16, channels, 40);
  // Median (over trials) absolute error of the exponent <= 3, i.e. the
  // typical estimate is within a factor of 8 — constant-factor as claimed.
  EXPECT_LE(MedianError(stats, num_active), 3.0)
      << which << " |A|=" << num_active;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EstimatorSweep,
    ::testing::Combine(::testing::Values<std::int32_t>(1, 4, 32, 256, 4096),
                       ::testing::Values<std::string>("geometric", "density")));

TEST(GeometricEstimate, SaturatesAtChannelBudget) {
  // With only 4 channels the estimator can't see above level 4: estimates
  // for huge |A| clamp near lg C rather than lg |A|.
  const EstimateStats stats =
      Collect(MakeGeometricEstimateOnly(), 4096, 1 << 16, 4, 20);
  for (const auto e : stats.exponents) EXPECT_LE(e, 4);
}

TEST(GeometricEstimate, RoundCostIsLogLog) {
  sim::EngineConfig config;
  config.num_active = 500;
  config.population = 1 << 20;
  config.channels = 64;
  config.seed = 1;
  config.stop_when_solved = false;
  EstimationParams params;
  params.samples = 1;
  const sim::RunResult r =
      sim::Engine::Run(config, MakeGeometricEstimateOnly(params));
  // One sample = one binary search over <= 21 levels: <= 6 probes.
  EXPECT_LE(r.rounds_executed, 6);
}

TEST(DensityEstimate, RoundCostIsLogLogPerSample) {
  sim::EngineConfig config;
  config.num_active = 500;
  config.population = 1 << 20;
  config.channels = 1;
  config.seed = 1;
  config.stop_when_solved = false;
  EstimationParams params;
  params.samples = 3;
  const sim::RunResult r =
      sim::Engine::Run(config, MakeDensityEstimateOnly(params));
  // Each sample's search is <= ceil(lg 21) + 1 probes.
  EXPECT_LE(r.rounds_executed, 3 * 6);
}

TEST(Estimators, DeterministicGivenSeed) {
  for (const auto& factory :
       {MakeGeometricEstimateOnly(), MakeDensityEstimateOnly()}) {
    sim::EngineConfig config;
    config.num_active = 64;
    config.population = 1 << 12;
    config.channels = 16;
    config.seed = 77;
    config.stop_when_solved = false;
    const sim::RunResult a = sim::Engine::Run(config, factory);
    const sim::RunResult b = sim::Engine::Run(config, factory);
    EXPECT_EQ(a.MetricValues("estimate_log2"),
              b.MetricValues("estimate_log2"));
  }
}

TEST(Estimators, RejectBadParams) {
  EstimationParams bad;
  bad.samples = 0;
  sim::EngineConfig config;
  config.num_active = 2;
  config.channels = 4;
  config.seed = 1;
  EXPECT_THROW(sim::Engine::Run(config, MakeGeometricEstimateOnly(bad)),
               std::invalid_argument);
}

}  // namespace
}  // namespace crmc::core
