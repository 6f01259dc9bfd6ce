#include "sim/engine.h"

#include <deque>
#include <string_view>

#include "sim/batch_engine.h"
#include "sim/step_program.h"
#include "support/assert.h"
#include "support/rng.h"

namespace crmc::sim {

namespace {

// Below this many node_reports a direct scan beats building the index.
constexpr std::size_t kReportIndexThreshold = 16;

}  // namespace

const RunResult::ReportIndex& RunResult::Index() const {
  if (!report_index_) {
    auto idx = std::make_shared<ReportIndex>();
    for (const NodeReport& r : node_reports) {
      for (const auto& [key, value] : r.phase_marks) {
        auto [it, inserted] = idx->last_phase_marks.try_emplace(key, value);
        if (!inserted && value > it->second) it->second = value;
      }
      for (const auto& [key, value] : r.metrics) {
        idx->metric_values[key].push_back(value);  // node order preserved
      }
    }
    report_index_ = std::move(idx);
  }
  return *report_index_;
}

std::int64_t RunResult::LastPhaseMark(const std::string& name) const {
  if (node_reports.size() >= kReportIndexThreshold) {
    const ReportIndex& idx = Index();
    const auto it = idx.last_phase_marks.find(name);
    return it == idx.last_phase_marks.end() ? -1 : it->second;
  }
  std::int64_t best = -1;
  for (const NodeReport& r : node_reports) {
    auto it = r.phase_marks.find(name);
    if (it != r.phase_marks.end() && it->second > best) best = it->second;
  }
  return best;
}

std::vector<std::int64_t> RunResult::MetricValues(
    const std::string& name) const {
  if (node_reports.size() >= kReportIndexThreshold) {
    const ReportIndex& idx = Index();
    const auto it = idx.metric_values.find(name);
    return it == idx.metric_values.end() ? std::vector<std::int64_t>{}
                                         : it->second;
  }
  std::vector<std::int64_t> out;
  for (const NodeReport& r : node_reports) {
    for (const auto& [key, value] : r.metrics) {
      if (key == name) out.push_back(value);
    }
  }
  return out;
}

std::int64_t ValidateEngineConfig(const EngineConfig& config) {
  CRMC_REQUIRE_MSG(config.num_active >= 1,
                   "need at least one activated node, got "
                       << config.num_active);
  CRMC_REQUIRE_MSG(config.channels >= 1,
                   "need at least one channel, got " << config.channels);
  CRMC_REQUIRE_MSG(config.max_rounds >= 1,
                   "max_rounds must be at least 1, got " << config.max_rounds);
  const std::int64_t population =
      config.population == 0 ? config.num_active : config.population;
  CRMC_REQUIRE_MSG(population >= config.num_active,
                   "num_active " << config.num_active
                                 << " exceeds population " << population);
  config.faults.Validate();
  config.adversary.Validate();
  config.robust.Validate();
  // One jamming source at a time: an adversary (reactive *or* oblivious)
  // combined with an explicit jam_rate would silently double-jam — the
  // oblivious_rate case would even draw twice from one stream. Distinct
  // message, unit-tested.
  CRMC_REQUIRE_MSG(
      !config.adversary.Active() || config.faults.jam_rate == 0.0,
      "conflicting fault configuration: --adversary "
          << adversary::ToString(config.adversary.kind)
          << " cannot be combined with an explicit --jam-rate "
          << config.faults.jam_rate
          << " (use --adversary-rate for oblivious_rate)");
  for (const adversary::ScriptEntry& e : config.adversary.script) {
    CRMC_REQUIRE_MSG(e.channel <= config.channels,
                     "scripted adversary jams channel "
                         << e.channel << " but the network has only "
                         << config.channels << " channels");
  }
  return population;
}

mac::FaultSpec EffectiveFaultSpec(const EngineConfig& config) {
  mac::FaultSpec spec = config.faults;
  if (config.adversary.kind == adversary::Kind::kObliviousRate) {
    spec.jam_rate = config.adversary.rate;
  }
  return spec;
}

// Runs per-node protocol coroutines as a StepProgram, so they execute on
// BatchEngine's round loop. Node state lives in the NodeContexts and the
// coroutine frames, indexed by node: EmitActions and Advance walk the
// alive set in ascending node order, so the dense action array carries
// the same actions in the same order as a columnar twin's, and every
// resolver, fault and adversary draw lines up.
class CoroutineProgram final : public StepProgram {
 public:
  // Unique IDs for baselines that assume them, sampled from [1, n] once
  // per run from the unsalted seed: a node keeps its identity across
  // robust epoch restarts.
  CoroutineProgram(const EngineConfig& config, std::int64_t population,
                   const ProtocolFactory& protocol)
      : protocol_(protocol) {
    support::RandomSource id_rng =
        support::RandomSource::ForStream(config.seed, 0x1d5eed, config.rng);
    unique_ids_ = support::SampleWithoutReplacement(
        population, config.num_active, id_rng);
  }

  std::string_view name() const override { return "coroutine"; }

  // Fresh contexts for every node, crashed ones included, on the epoch's
  // streams. The tasks go first: their frames refer to the contexts.
  void Reset(const BatchContext& ctx) override {
    tasks_.clear();
    contexts_.clear();
    for (NodeId i = 0; i < ctx.num_active; ++i) {
      const auto s = static_cast<std::size_t>(i);
      contexts_.emplace_back(i, ctx.population, ctx.num_active, ctx.channels,
                             unique_ids_[s], ctx.rng[s]);
    }
    beacon_emitted_.assign(static_cast<std::size_t>(ctx.num_active), 0);
  }

  // Builds every live node's coroutine, then kicks each to its first round
  // request; one that finishes instead leaves the alive set. Crashed
  // slots keep an empty placeholder task.
  void Start(const BatchContext& ctx, std::vector<NodeId>& alive) override {
    tasks_.resize(static_cast<std::size_t>(ctx.num_active));
    for (const NodeId i : alive) {
      ProtocolTask& task = tasks_[static_cast<std::size_t>(i)];
      task = protocol_(contexts_[static_cast<std::size_t>(i)]);
      CRMC_CHECK_MSG(task.Valid(), "protocol factory returned no task");
    }
    std::size_t write = 0;
    for (const NodeId i : alive) {
      ProtocolTask& task = tasks_[static_cast<std::size_t>(i)];
      task.Resume();
      if (task.Done()) {
        task.RethrowIfFailed();
        continue;
      }
      CRMC_CHECK_MSG(contexts_[static_cast<std::size_t>(i)].has_pending_,
                     "protocol suspended without submitting a round action");
      alive[write++] = i;
    }
    alive.resize(write);
  }

  // A node in auto-beacon mode (the wakeup transform) transmits on the
  // primary channel in the round *before* each of its protocol rounds.
  // beacon_emitted_[i] == 1 means the beacon for node i's pending action
  // went out this round, so the action itself runs next round.
  void EmitActions(const BatchContext&, std::span<const NodeId> alive,
                   std::span<mac::Action> actions) override {
    for (std::size_t k = 0; k < alive.size(); ++k) {
      const auto s = static_cast<std::size_t>(alive[k]);
      NodeContext& node = contexts_[s];
      if (node.auto_beacon_ && !beacon_emitted_[s]) {
        actions[k] = mac::Action::Transmit(mac::kPrimaryChannel);
        beacon_emitted_[s] = 1;
        continue;
      }
      actions[k] = node.pending_action_;
      node.has_pending_ = false;
      beacon_emitted_[s] = 0;
    }
  }

  // Resumes every live coroutine with its feedback, up to its next round
  // request or completion. A node that spent the round on a beacon is not
  // resumed: its protocol action is still pending.
  void Advance(const BatchContext& ctx, std::span<const NodeId> alive,
               std::span<const mac::Action>,
               std::span<const mac::Feedback> feedback,
               std::span<std::uint8_t> finished) override {
    for (std::size_t k = 0; k < alive.size(); ++k) {
      const auto s = static_cast<std::size_t>(alive[k]);
      NodeContext& node = contexts_[s];
      node.round_ = ctx.round;
      if (beacon_emitted_[s]) continue;
      node.feedback_ = feedback[k];
      CRMC_CHECK(node.resume_point_);
      node.resume_point_.resume();
      ProtocolTask& task = tasks_[s];
      if (task.Done()) {
        task.RethrowIfFailed();
        finished[k] = 1;
      } else {
        CRMC_CHECK_MSG(node.has_pending_,
                       "protocol suspended without submitting a round action");
      }
    }
  }

  // Instrumentation from the final epoch's nodes (earlier epochs' state is
  // discarded on restart), for nodes that produced any.
  void AppendReports(RunResult& result) const {
    for (const NodeContext& node : contexts_) {
      if (node.phase_marks().empty() && node.metrics().empty()) continue;
      NodeReport report;
      report.index = node.index();
      report.finished = tasks_[static_cast<std::size_t>(node.index())].Done();
      report.phase_marks = node.phase_marks();
      report.metrics = node.metrics();
      result.node_reports.push_back(std::move(report));
    }
  }

 private:
  const ProtocolFactory& protocol_;
  std::vector<std::int64_t> unique_ids_;
  std::deque<NodeContext> contexts_;  // NodeContext is immovable
  std::vector<ProtocolTask> tasks_;   // destroyed before contexts_
  std::vector<std::uint8_t> beacon_emitted_;
};

RunResult Engine::Run(const EngineConfig& config,
                      const ProtocolFactory& protocol) {
  const std::int64_t population = ValidateEngineConfig(config);
  CRMC_REQUIRE(protocol != nullptr);
  CoroutineProgram program(config, population, protocol);
  RunResult result = BatchEngine::RunOnce(config, program);
  program.AppendReports(result);
  return result;
}

}  // namespace crmc::sim
