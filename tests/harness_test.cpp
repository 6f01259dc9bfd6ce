// Tests for the experiment harness: stats, runner, tables, registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "harness/bisect.h"
#include "harness/json_writer.h"
#include "harness/registry.h"
#include "harness/runner.h"
#include "harness/stats.h"
#include "harness/table.h"
#include "mac/channel.h"
#include "sim/node_context.h"
#include "sim/task.h"
#include "support/rng.h"

namespace crmc::harness {
namespace {

TEST(Stats, SummaryOfKnownValues) {
  const Summary s = Summarize({1, 2, 3, 4, 5});
  EXPECT_EQ(s.count, 5);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_EQ(s.min, 1);
  EXPECT_EQ(s.max, 5);
  EXPECT_NEAR(s.stddev, 1.5811, 1e-3);
}

TEST(Stats, SummaryHandlesEmptyAndSingleton) {
  const Summary empty = Summarize({});
  EXPECT_EQ(empty.count, 0);
  const Summary one = Summarize({7});
  EXPECT_EQ(one.count, 1);
  EXPECT_DOUBLE_EQ(one.mean, 7.0);
  EXPECT_DOUBLE_EQ(one.stddev, 0.0);
  EXPECT_DOUBLE_EQ(one.p95, 7.0);
}

TEST(Stats, QuantileInterpolates) {
  EXPECT_DOUBLE_EQ(Quantile({0, 10}, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(Quantile({0, 10, 20, 30}, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(Quantile({0, 10, 20, 30}, 1.0), 30.0);
  EXPECT_THROW(Quantile({1}, 1.5), std::invalid_argument);
}

TEST(Stats, UnorderedInputIsSorted) {
  const Summary s = Summarize({5, 1, 4, 2, 3});
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_EQ(s.min, 1);
}

// Bit for bit, not approximately: the counting path must perform the sort
// path's floating-point additions in the same order.
void ExpectSameSummaryBits(const Summary& want, const Summary& got) {
  EXPECT_EQ(want.count, got.count);
  EXPECT_EQ(want.min, got.min);
  EXPECT_EQ(want.max, got.max);
  for (const auto& [w, g] : {std::pair{want.mean, got.mean},
                             std::pair{want.stddev, got.stddev},
                             std::pair{want.median, got.median},
                             std::pair{want.p95, got.p95},
                             std::pair{want.p99, got.p99}}) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(w), std::bit_cast<std::uint64_t>(g))
        << w << " vs " << g;
  }
}

TEST(Stats, CountingSummaryMatchesSortBitForBit) {
  support::RandomSource rng(0x5ca1e);
  const auto draw = [&](std::size_t n, std::int64_t lo, std::int64_t hi) {
    std::vector<std::int64_t> v(n);
    for (std::int64_t& x : v) x = rng.UniformInt(lo, hi);
    return v;
  };
  // Solved-round-like: small values, heavy repeats, unsorted.
  std::vector<std::int64_t> rounds;
  for (std::int32_t i = 0; i < 32768; ++i) {
    std::int64_t r = 1;
    while (rng.UniformInt(0, 2) != 0 && r < 40) ++r;
    rounds.push_back(r);
  }
  const std::vector<std::pair<const char*, std::vector<std::int64_t>>> inputs =
      {{"single value", {7}},
       {"all equal", std::vector<std::int64_t>(1000, 4)},
       {"solved rounds", rounds},
       {"wide range", draw(500, 1, 1'000'000)},
       {"max_rounds scale", draw(5000, 3'999'000, 4'000'000)},
       {"max_rounds with a cap spike",
        [&] {
          std::vector<std::int64_t> v = draw(3000, 3'999'990, 4'000'000);
          v.insert(v.end(), 200, 4'000'000);
          return v;
        }()},
       {"negative", {-3, -1, -3, 2, -1, 0}}};
  for (const auto& [label, values] : inputs) {
    SCOPED_TRACE(label);
    const Summary sorted = SummarizeBySort(values);
    ExpectSameSummaryBits(sorted, SummarizeByCount(values));
    ExpectSameSummaryBits(sorted, Summarize(values));
  }
}

TEST(Stats, JainFairnessDegenerateCasesPinnedAtOne) {
  EXPECT_DOUBLE_EQ(JainFairness({}), 1.0);
  EXPECT_DOUBLE_EQ(JainFairness({7.0}), 1.0);
  EXPECT_DOUBLE_EQ(JainFairness({0.0, 0.0, 0.0}), 1.0);
}

TEST(Stats, JainFairnessKnownValues) {
  EXPECT_DOUBLE_EQ(JainFairness({3.0, 3.0, 3.0, 3.0}), 1.0);
  // One party hoards everything: the index collapses to 1/n.
  EXPECT_DOUBLE_EQ(JainFairness({10.0, 0.0, 0.0, 0.0}), 0.25);
  // (1+2+3)^2 / (3 * (1+4+9)).
  EXPECT_DOUBLE_EQ(JainFairness({1.0, 2.0, 3.0}), 36.0 / 42.0);
  EXPECT_THROW(JainFairness({1.0, -1.0}), std::invalid_argument);
}

TEST(Stats, WeightedQuantileMatchesQuantileWithUnitWeights) {
  const std::vector<std::int64_t> values{5, 1, 9, 3, 3, 7, 2};
  std::vector<std::pair<std::int64_t, std::int64_t>> hist;
  for (const std::int64_t v : values) hist.emplace_back(v, 1);
  for (const double q : {0.0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(WeightedQuantile(hist, q), Quantile(values, q))
        << "q=" << q;
  }
}

TEST(Stats, WeightedQuantileMatchesExpandedMultiset) {
  const std::vector<std::pair<std::int64_t, std::int64_t>> hist{
      {10, 1}, {2, 3}, {4, 2}};  // unsorted on purpose
  std::vector<std::int64_t> expanded;
  for (const auto& [v, w] : hist) {
    expanded.insert(expanded.end(), static_cast<std::size_t>(w), v);
  }
  for (const double q : {0.0, 0.3, 0.5, 0.9, 1.0}) {
    EXPECT_DOUBLE_EQ(WeightedQuantile(hist, q), Quantile(expanded, q))
        << "q=" << q;
  }
}

TEST(Stats, WeightedQuantileDegenerateCases) {
  EXPECT_DOUBLE_EQ(WeightedQuantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(WeightedQuantile({{5, 0}}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(WeightedQuantile({{5, 1}}, 0.99), 5.0);
  EXPECT_THROW(WeightedQuantile({{5, -1}}, 0.5), std::invalid_argument);
  EXPECT_THROW(WeightedQuantile({{5, 1}}, 1.5), std::invalid_argument);
}

TEST(Stats, LinearFitRecoversLine) {
  std::vector<double> x, y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(2.5 * i + 7.0);
  }
  const LinearFit fit = FitLinear(x, y);
  EXPECT_NEAR(fit.slope, 2.5, 1e-9);
  EXPECT_NEAR(fit.intercept, 7.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
}

TEST(Stats, LinearFitDegenerateInputs) {
  EXPECT_DOUBLE_EQ(FitLinear({}, {}).slope, 0.0);
  EXPECT_DOUBLE_EQ(FitLinear({1.0}, {2.0}).slope, 0.0);
  // Vertical data (all x equal) cannot be fit.
  EXPECT_DOUBLE_EQ(FitLinear({3.0, 3.0}, {1.0, 2.0}).slope, 0.0);
  EXPECT_THROW(FitLinear({1.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(Stats, BootstrapCiCoversTheMean) {
  std::vector<std::int64_t> values;
  for (int i = 0; i < 500; ++i) values.push_back(10 + (i % 5));
  const ConfidenceInterval ci = BootstrapMeanCi(values);
  EXPECT_LT(ci.lower, 12.0);
  EXPECT_GT(ci.upper, 12.0);
  EXPECT_LT(ci.upper - ci.lower, 1.0);  // tight for 500 near-constant values
}

TEST(Stats, BootstrapCiDegenerateInputs) {
  const ConfidenceInterval empty = BootstrapMeanCi({});
  EXPECT_DOUBLE_EQ(empty.lower, 0.0);
  EXPECT_DOUBLE_EQ(empty.upper, 0.0);
  const ConfidenceInterval one = BootstrapMeanCi({7});
  EXPECT_DOUBLE_EQ(one.lower, 7.0);
  EXPECT_DOUBLE_EQ(one.upper, 7.0);
  EXPECT_THROW(BootstrapMeanCi({1, 2}, 1.5), std::invalid_argument);
}

TEST(Stats, BootstrapCiIsDeterministic) {
  std::vector<std::int64_t> values{1, 5, 9, 2, 8, 4, 7};
  const ConfidenceInterval a = BootstrapMeanCi(values);
  const ConfidenceInterval b = BootstrapMeanCi(values);
  EXPECT_DOUBLE_EQ(a.lower, b.lower);
  EXPECT_DOUBLE_EQ(a.upper, b.upper);
}

TEST(Stats, AsciiHistogramShapes) {
  const std::string h = AsciiHistogram({1, 1, 1, 2, 2, 9}, 3, 10);
  // Three bins covering 1..9; the first (values 1 and 2) holds 5 entries.
  EXPECT_NE(h.find("##########"), std::string::npos);  // peak bin full bar
  EXPECT_NE(h.find(" 5\n"), std::string::npos);
  EXPECT_NE(h.find(" 1\n"), std::string::npos);
  EXPECT_EQ(AsciiHistogram({}), "(no data)\n");
  // Single-value input collapses to one bin.
  const std::string single = AsciiHistogram({4, 4, 4});
  EXPECT_NE(single.find(" 3\n"), std::string::npos);
}

TEST(Table, PrintHonoursCrmcOutputEnv) {
  Table t({"a", "b"});
  t.AddRow({"1", "2"});
  {
    ::setenv("CRMC_OUTPUT", "csv", 1);
    std::ostringstream os;
    t.Print(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
    ::unsetenv("CRMC_OUTPUT");
  }
  std::ostringstream os;
  t.Print(os);
  EXPECT_NE(os.str().find("|"), std::string::npos);  // markdown
}

TEST(Table, MarkdownLayout) {
  Table t({"n", "C", "rounds"});
  t.AddRow({"1024", "16", "12.50"});
  std::ostringstream os;
  t.PrintMarkdown(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| n"), std::string::npos);
  EXPECT_NE(out.find("12.50"), std::string::npos);
  EXPECT_NE(out.find("|------"), std::string::npos);
}

TEST(Table, CsvLayout) {
  Table t({"a", "b"});
  t.AddRow({"1", "2"});
  t.AddRow({"3", "4"});
  std::ostringstream os;
  t.PrintCsv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n3,4\n");
}

TEST(Table, RowScopeCommitsOnDestruction) {
  Table t({"x", "y"});
  { Table::RowScope(t).Cells(std::int64_t{5}, 2.5); }
  EXPECT_EQ(t.num_rows(), 1u);
  std::ostringstream os;
  t.PrintCsv(os);
  EXPECT_EQ(os.str(), "x,y\n5,2.50\n");
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.AddRow({"only-one"}), std::invalid_argument);
}

TEST(Json, WriterProducesWellFormedDocument) {
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject();
  w.Key("schema").Value("crmc.bench_engine.v1");
  w.Key("count").Value(std::int64_t{3});
  w.Key("rate").Value(12.5);
  w.Key("ok").Value(true);
  w.Key("points").BeginArray();
  w.BeginObject();
  w.Key("name").Value("a");
  w.EndObject();
  w.Value(std::int64_t{7});
  w.EndArray();
  w.Key("empty").BeginArray().EndArray();
  w.EndObject();
  w.Finish();
  const std::string out = os.str();
  EXPECT_NE(out.find("\"schema\": \"crmc.bench_engine.v1\""),
            std::string::npos);
  EXPECT_NE(out.find("\"count\": 3"), std::string::npos);
  EXPECT_NE(out.find("\"rate\": 12.5"), std::string::npos);
  EXPECT_NE(out.find("\"ok\": true"), std::string::npos);
  EXPECT_NE(out.find("\"empty\": []"), std::string::npos);
  EXPECT_EQ(out.back(), '\n');
  // Balanced braces/brackets (no string cells contain them here).
  EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
            std::count(out.begin(), out.end(), '}'));
  EXPECT_EQ(std::count(out.begin(), out.end(), '['),
            std::count(out.begin(), out.end(), ']'));
}

TEST(Json, EscapesStrings) {
  EXPECT_EQ(JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(JsonEscape(std::string("\x01", 1)), "\\u0001");
  std::ostringstream os;
  JsonWriter w(os);
  w.Value("quote \" here");
  w.Finish();
  EXPECT_EQ(os.str(), "\"quote \\\" here\"\n");
}

TEST(Json, RejectsMisnesting) {
  {
    std::ostringstream os;
    JsonWriter w(os);
    w.BeginObject();
    EXPECT_THROW(w.Value(std::int64_t{1}), std::invalid_argument);  // no Key
  }
  {
    std::ostringstream os;
    JsonWriter w(os);
    w.BeginArray();
    EXPECT_THROW(w.Key("x"), std::invalid_argument);  // key in array
    EXPECT_THROW(w.EndObject(), std::invalid_argument);
    EXPECT_THROW(w.Finish(), std::invalid_argument);  // open scope
  }
}

TEST(Runner, CollectsSolvedRounds) {
  TrialSpec spec;
  spec.num_active = 2;
  spec.population = 1 << 10;
  spec.channels = 16;
  const TrialSetResult r =
      RunTrials(spec, AlgorithmByName("two_active").make(), 20);
  EXPECT_EQ(r.unsolved, 0);
  EXPECT_EQ(r.summary.count, 20);
  EXPECT_GE(r.summary.min, 1);
}

TEST(Runner, SingleThreadMatchesMultiThread) {
  TrialSpec spec;
  spec.num_active = 2;
  spec.population = 1 << 10;
  spec.channels = 16;
  const auto factory = AlgorithmByName("two_active").make();
  const TrialSetResult a = RunTrials(spec, factory, 16, false, 1);
  const TrialSetResult b = RunTrials(spec, factory, 16, false, 8);
  EXPECT_EQ(Summarize(a.solved_rounds).mean, Summarize(b.solved_rounds).mean);
}

// Satellite of ISSUE 1: the per-trial seed derivation makes the solved
// rounds a pure function of the spec — the thread count must not reorder
// or change them, on either engine path.
TEST(Runner, ThreadCountPreservesSolvedRoundsExactly) {
  TrialSpec spec;
  spec.num_active = 48;
  spec.population = 1 << 12;
  spec.channels = 32;
  const ProtocolHandle handle = HandleFor(AlgorithmByName("general"));
  const TrialSetResult a = RunTrials(spec, handle, 64, false, 1);
  const TrialSetResult b = RunTrials(spec, handle, 64, false, 8);
  EXPECT_EQ(a.solved_rounds, b.solved_rounds);
  EXPECT_EQ(a.unsolved, b.unsolved);

  spec.use_batch_engine = false;  // and on the coroutine oracle
  const TrialSetResult c = RunTrials(spec, handle, 64, false, 1);
  const TrialSetResult d = RunTrials(spec, handle, 64, false, 8);
  EXPECT_EQ(c.solved_rounds, d.solved_rounds);
  // The fast path reproduced the oracle bit-exactly.
  EXPECT_EQ(a.solved_rounds, c.solved_rounds);
}

// Satellite of ISSUE 3: the same determinism contract under the
// counter-based generator and with the fault layer active — the full
// statistics (round list, failure breakdown, fault counters) must be a
// pure function of the spec regardless of thread count.
TEST(Runner, ThreadCountDeterministicPhiloxAndFaults) {
  TrialSpec spec;
  spec.num_active = 48;
  spec.population = 1 << 12;
  spec.channels = 32;
  spec.rng = support::RngKind::kPhilox;
  spec.max_rounds = 2000;
  spec.faults.jam_rate = 0.1;
  spec.faults.crash_rate = 0.005;
  const ProtocolHandle handle = HandleFor(AlgorithmByName("general"));
  const TrialSetResult a = RunTrials(spec, handle, 64, false, 1);
  const TrialSetResult b = RunTrials(spec, handle, 64, false, 8);
  EXPECT_EQ(a.solved_rounds, b.solved_rounds);
  EXPECT_EQ(a.unsolved, b.unsolved);
  EXPECT_EQ(a.timed_out, b.timed_out);
  EXPECT_EQ(a.aborted, b.aborted);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.crashed_nodes, b.crashed_nodes);
}

TEST(Runner, BatchFastPathMatchesCoroutineOracle) {
  TrialSpec spec;
  spec.num_active = 2;
  spec.population = 1 << 10;
  spec.channels = 16;
  const ProtocolHandle handle = HandleFor(AlgorithmByName("two_active"));
  const TrialSetResult fast = RunTrials(spec, handle, 200);
  spec.use_batch_engine = false;
  const TrialSetResult oracle = RunTrials(spec, handle, 200);
  EXPECT_EQ(fast.solved_rounds, oracle.solved_rounds);
  EXPECT_EQ(fast.unsolved, oracle.unsolved);
}

// Failed trials must be reported as counts, not folded into the round
// statistics: a trial capped at max_rounds would otherwise drag the mean
// toward the cap.
// Deterministically unsolvable: every activated node transmits on the
// primary channel forever, so no round ever has a lone delivery. The round
// cap must surface as failure *counts*, never as samples in the statistics.
sim::Task<void> CollidePrimaryForever(sim::NodeContext& ctx) {
  for (;;) co_await ctx.Transmit(mac::kPrimaryChannel);
}

TEST(Runner, TimedOutTrialsAreCountedNotAveraged) {
  TrialSpec spec;
  spec.num_active = 2;
  spec.population = 256;
  spec.channels = 8;
  spec.max_rounds = 5;
  const ProtocolHandle handle(
      [](sim::NodeContext& ctx) { return CollidePrimaryForever(ctx); });
  const TrialSetResult r = RunTrials(spec, handle, 20);
  EXPECT_EQ(r.unsolved, 20);
  EXPECT_EQ(r.timed_out, 20);
  EXPECT_EQ(r.aborted, 0);
  EXPECT_TRUE(r.solved_rounds.empty());
  EXPECT_EQ(r.summary.count, 0);  // the cap never entered the statistics
}

TEST(Runner, FaultySweepKeepsFailureBreakdown) {
  TrialSpec spec;
  spec.num_active = 2;
  spec.population = 256;
  spec.channels = 8;
  spec.max_rounds = 40;
  spec.faults.jam_rate = 1.0;  // nothing is ever delivered
  const ProtocolHandle handle = HandleFor(AlgorithmByName("two_active"));
  const TrialSetResult r = RunTrials(spec, handle, 10);
  EXPECT_EQ(r.unsolved, 10);
  EXPECT_EQ(r.timed_out + r.aborted, 10);
  EXPECT_GT(r.faults_injected, 0);
  EXPECT_TRUE(r.solved_rounds.empty());
  // And the batch fast path agrees on the breakdown.
  spec.use_batch_engine = false;
  const TrialSetResult oracle = RunTrials(spec, handle, 10);
  EXPECT_EQ(r.timed_out, oracle.timed_out);
  EXPECT_EQ(r.aborted, oracle.aborted);
  EXPECT_EQ(r.wedged, oracle.wedged);
  EXPECT_EQ(r.faults_injected, oracle.faults_injected);
}

TEST(Runner, KeepRunsRetainsResults) {
  TrialSpec spec;
  spec.num_active = 2;
  spec.population = 256;
  spec.channels = 8;
  const TrialSetResult r =
      RunTrials(spec, AlgorithmByName("two_active").make(), 5, true);
  EXPECT_EQ(r.runs.size(), 5u);
}

TEST(Registry, AllAlgorithmsListedAndConstructible) {
  EXPECT_GE(Algorithms().size(), 9u);
  for (const AlgorithmInfo& info : Algorithms()) {
    EXPECT_FALSE(info.name.empty());
    EXPECT_FALSE(info.description.empty());
    ASSERT_NE(info.make, nullptr);
    EXPECT_TRUE(static_cast<bool>(info.make()));  // factory is callable
  }
}

TEST(Registry, StepProgramTwinsRegistered) {
  for (const char* name : {"two_active", "general", "knockout_cd"}) {
    const AlgorithmInfo& info = AlgorithmByName(name);
    ASSERT_NE(info.make_step, nullptr) << name;
    const auto program = info.make_step()();
    ASSERT_NE(program, nullptr) << name;
    EXPECT_EQ(program->name(), info.name);
    EXPECT_TRUE(program->identical_draw_order()) << name;
    EXPECT_TRUE(static_cast<bool>(HandleFor(info).step_program)) << name;
  }
  // Baselines without a columnar twin yield a coroutine-only handle.
  const AlgorithmInfo& decay = AlgorithmByName("decay_no_cd");
  EXPECT_EQ(decay.make_step, nullptr);
  EXPECT_FALSE(static_cast<bool>(HandleFor(decay).step_program));
}

TEST(Registry, LookupByName) {
  EXPECT_EQ(AlgorithmByName("general").name, "general");
  EXPECT_TRUE(AlgorithmByName("two_active").requires_two_active);
  EXPECT_TRUE(AlgorithmByName("aloha_oracle").oracle);
  EXPECT_THROW(AlgorithmByName("nope"), std::invalid_argument);
}

// --- optimal-budget bisection (harness/bisect.h) ---

// A deterministic step landscape: every budget below `knee` passes the
// 0.99 floor, everything at or above it fails hard.
std::function<double(std::int64_t)> StepEval(std::int64_t knee,
                                             std::vector<std::int64_t>* log) {
  return [knee, log](std::int64_t budget) {
    if (log != nullptr) log->push_back(budget);
    return budget < knee ? 1.0 : 0.4;
  };
}

TEST(Bisect, FindsTheKneeToAdjacentIntegers) {
  BisectionSpec spec;
  spec.budget_lo = 0;
  spec.budget_hi = 16'384;
  const BisectionResult r = BisectMinBreakBudget(spec, StepEval(5'701, {}));
  EXPECT_EQ(r.min_break_budget, 5'701);
  EXPECT_EQ(r.max_pass_budget, 5'700);
  // Both endpoints always evaluated, points ascending and deduplicated.
  ASSERT_GE(r.points.size(), 2u);
  EXPECT_EQ(r.points.front().budget, 0);
  EXPECT_EQ(r.points.back().budget, 16'384);
  for (std::size_t i = 1; i < r.points.size(); ++i) {
    EXPECT_LT(r.points[i - 1].budget, r.points[i].budget);
  }
}

TEST(Bisect, BracketInvariantHoldsOnANonMonotoneLandscape) {
  // A lucky passing pocket above the knee: rates are NOT monotone, yet the
  // bracket discipline must still keep every evaluated pass strictly below
  // every evaluated fail.
  BisectionSpec spec;
  spec.budget_lo = 0;
  spec.budget_hi = 1'024;
  const BisectionResult r = BisectMinBreakBudget(spec, [](std::int64_t b) {
    if (b >= 700 && b <= 720) return 1.0;  // the pocket
    return b < 300 ? 1.0 : 0.5;
  });
  std::int64_t max_pass = -1;
  std::int64_t min_fail = -1;
  for (const BisectionPoint& p : r.points) {
    if (p.pass) {
      max_pass = std::max(max_pass, p.budget);
    } else {
      min_fail = min_fail < 0 ? p.budget : std::min(min_fail, p.budget);
    }
  }
  ASSERT_GE(max_pass, 0);
  ASSERT_GE(min_fail, 0);
  EXPECT_LT(max_pass, min_fail);
  EXPECT_EQ(r.min_break_budget, min_fail);
  EXPECT_EQ(r.max_pass_budget, max_pass);
}

TEST(Bisect, CensoredCurveCostsOnlyTheTwoEndpoints) {
  BisectionSpec spec;
  spec.budget_lo = 0;
  spec.budget_hi = 8'192;
  std::vector<std::int64_t> evaluated;
  const BisectionResult r =
      BisectMinBreakBudget(spec, StepEval(1 << 20, &evaluated));
  EXPECT_EQ(r.min_break_budget, -1);
  EXPECT_EQ(r.max_pass_budget, 8'192);
  EXPECT_EQ(evaluated, (std::vector<std::int64_t>{0, 8'192}));
}

TEST(Bisect, FailingLowAnchorIsItselfTheBreakBudget) {
  BisectionSpec spec;
  spec.budget_lo = 10;
  spec.budget_hi = 100;
  std::vector<std::int64_t> evaluated;
  const BisectionResult r = BisectMinBreakBudget(spec, StepEval(0, &evaluated));
  EXPECT_EQ(r.min_break_budget, 10);
  EXPECT_EQ(r.max_pass_budget, -1);
  // The hi endpoint is still evaluated so the curve carries both ends.
  EXPECT_EQ(evaluated, (std::vector<std::int64_t>{10, 100}));
}

TEST(Bisect, DegenerateSinglePointRangeEvaluatesOnce) {
  BisectionSpec spec;
  spec.budget_lo = 42;
  spec.budget_hi = 42;
  std::vector<std::int64_t> evaluated;
  const BisectionResult pass =
      BisectMinBreakBudget(spec, StepEval(100, &evaluated));
  EXPECT_EQ(pass.min_break_budget, -1);
  EXPECT_EQ(pass.max_pass_budget, 42);
  EXPECT_EQ(evaluated, (std::vector<std::int64_t>{42}));
  evaluated.clear();
  const BisectionResult broke =
      BisectMinBreakBudget(spec, StepEval(0, &evaluated));
  EXPECT_EQ(broke.min_break_budget, 42);
  EXPECT_EQ(broke.max_pass_budget, -1);
  EXPECT_EQ(evaluated, (std::vector<std::int64_t>{42}));
}

TEST(Bisect, ValidateRejectsEachConstraintDistinctly) {
  const auto message_of = [](const BisectionSpec& spec) {
    try {
      spec.Validate();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  BisectionSpec spec;
  spec.budget_lo = -1;
  EXPECT_NE(message_of(spec).find("budget_lo"), std::string::npos);
  spec = {};
  spec.budget_lo = 10;
  spec.budget_hi = 5;
  EXPECT_NE(message_of(spec).find("budget_hi"), std::string::npos);
  spec = {};
  spec.pass_floor = 0.0;
  EXPECT_NE(message_of(spec).find("pass_floor"), std::string::npos);
  spec = {};
  spec.pass_floor = 1.5;
  EXPECT_NE(message_of(spec).find("pass_floor"), std::string::npos);
  spec = {};
  spec.max_probes = 0;
  EXPECT_NE(message_of(spec).find("max_probes"), std::string::npos);
  spec = {};
  spec.budget_hi = 1'000;
  EXPECT_EQ(message_of(spec), "no throw");
}

}  // namespace
}  // namespace crmc::harness
