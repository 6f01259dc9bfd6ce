#include "sim/batch_engine.h"

#include <algorithm>

#include "simd/kernels.h"
#include "support/assert.h"

namespace crmc::sim {

void FinishRun(const EngineConfig& config, std::int64_t rounds,
               std::int64_t stall_streak, bool terminated, bool timed_out,
               std::span<const std::int64_t> node_tx, RunResult& result) {
  result.rounds_executed = rounds;
  result.stall_rounds = stall_streak;
  result.all_terminated = terminated;
  for (const std::int64_t tx : node_tx) {
    result.max_node_transmissions = std::max(result.max_node_transmissions, tx);
    result.mean_node_transmissions += static_cast<double>(tx);
  }
  result.mean_node_transmissions /= static_cast<double>(config.num_active);
  if (config.record_node_transmissions) {
    result.node_transmissions.assign(node_tx.begin(), node_tx.end());
  }
  result.timed_out = timed_out;
  result.wedged = timed_out && stall_streak * 2 >= rounds;
}

RunResult BatchEngine::Run(const EngineConfig& config, StepProgram& program) {
  const std::int64_t population = ValidateEngineConfig(config);

  const auto n = static_cast<std::size_t>(config.num_active);

  robust::EpochDriver epochs(config.robust, population, config.channels,
                             config.seed);

  BatchContext ctx;
  ctx.population = population;
  ctx.num_active = config.num_active;
  ctx.channels = config.channels;

  node_tx_.assign(n, 0);
  crashed_.assign(n, 0);

  if (!resolver_ || resolver_->num_channels() != config.channels ||
      resolver_->cd_model() != config.cd_model) {
    resolver_.emplace(config.channels, config.cd_model);
  }

  RunResult result;
  mac::FaultInjector injector(EffectiveFaultSpec(config), config.seed);
  mac::FaultInjector* const fault_ptr =
      injector.active() ? &injector : nullptr;
  adversary::AdversaryRun adversary(config.adversary, config.seed);
  std::int64_t round = 0;
  std::int64_t stall_streak = 0;
  bool aborted = false;
  // True iff the run hit max_rounds inside a between-epoch backoff pause
  // (folded into timed_out below; the round loop's own timeout leaves
  // alive_ nonempty and is detected from that).
  bool out_of_rounds = false;
  // Fused-round gate: FastRound assumes feedback is a pure function of the
  // emitted actions (strong CD, no faults) and produces no trace. These are
  // per-run constants, though a program may decline a single round (e.g.
  // the general algorithm's LeafElection stage). An observation-reading
  // adversary pins the run to materialized rounds (FastRound never runs
  // the resolver it would eavesdrop on), and so does the robust layer,
  // whose echoes, epochs and watchdogs need them. Either path is bit-exact.
  const bool fast_rounds = fused_rounds_enabled_ && !injector.active() &&
                           config.cd_model == mac::CdModel::kStrong &&
                           !config.record_trace &&
                           !adversary.needs_observation() &&
                           !config.robust.enabled;
  // FastRound also leans on lockstep invariants ("survivors share bounds
  // and phase") that a single jam can split. A materialized jam drops the
  // run to the generic path until the program reports the split healed:
  // on every later jam-free round LockstepRestored is asked whether the
  // survivors are fused-representable again, so a budget-k adversary costs
  // O(k) materialized windows instead of pinning the whole run.
  bool adv_perturbed = false;

  // Shared accounting for every resolved round, protocol and fabricated
  // alike: totals, trace, solved-detection, round advance.
  const auto account_round = [&](const mac::RoundSummary& summary) {
    result.total_transmissions += summary.total_transmissions;
    result.adv_jams_spent += summary.adv_jams;
    result.adv_jams_effective += summary.adv_jams_effective;
    if (config.record_trace) {
      RoundTrace rt;
      rt.round = round;
      for (const mac::ChannelId ch : resolver_->touched_channels()) {
        const mac::ChannelActivity& act = resolver_->ActivityOf(ch);
        rt.events.push_back(
            ChannelTraceEvent{ch, act.transmitters, act.listeners});
      }
      result.trace.push_back(std::move(rt));
    }
    if (summary.primary_lone_delivered) RecordLoneDelivery(result, round);
    ++round;
  };

  // One engine-fabricated round over `fab` (confirmation echo, chaff, or
  // an empty span for a backoff pause). The adversary plans and observes it
  // like any protocol round (backoff silence is a honeypot: a reactive
  // jammer cannot tell it from an all-listen round), but crash draws are
  // skipped and the program does not advance: node state is frozen while
  // the engine holds the floor, so the round is tallied, not resolved into
  // feedback. Callers charge node_tx_ for the fabricated transmissions.
  // Returns the round summary so the call sites can feed the adaptive
  // policy and the echo/chaff/backoff spend breakdown.
  const auto fabricated_round =
      [&](std::span<const mac::Action> fab) -> mac::RoundSummary {
    if (config.record_active_counts) {
      result.active_counts.push_back(static_cast<std::int64_t>(alive_.size()));
    }
    const std::span<const mac::ChannelId> adv_jams =
        adversary.PlanRound(round, config.channels);
    adv_perturbed = adv_perturbed || !adv_jams.empty();
    const mac::RoundSummary summary =
        resolver_->Tally(fab, fault_ptr, adv_jams);
    adversary.ObserveRound(*resolver_, round);
    account_round(summary);
    return summary;
  };

  while (true) {  // one iteration per robust epoch (single pass when off)
    // Bounded exponential backoff before every retry epoch (epoch 0 starts
    // immediately). All-idle rounds: the protocol is silent, but the
    // adversary still plans and observes — and every reactive strategy
    // falls back to camping the primary channel on silence, so the pause
    // drains its budget.
    for (std::int64_t pause = epochs.PauseRounds();
         pause > 0 && round < config.max_rounds; --pause) {
      const mac::RoundSummary pause_summary = fabricated_round({});
      ++result.backoff_rounds;
      result.adv_jams_backoff += pause_summary.adv_jams;
      epochs.NoteBackoffRound(pause_summary.adv_jams);
    }
    if (round >= config.max_rounds) {
      out_of_rounds = true;
      break;
    }

    // (Re)seed per-node streams and reset program state for this epoch.
    // Epoch 0 uses the unsalted seed, so a wrapped pristine run stays
    // bit-identical to an unwrapped one. Crashed nodes never rejoin.
    rng_.resize(n);
    simd::SeedStreams(epochs.SeedFor(config.seed), 1, config.rng, rng_);
    ctx.rng = rng_;
    program.Reset(ctx);

    alive_.resize(n);
    std::size_t live = 0;
    for (std::size_t i = 0; i < n; ++i) {
      alive_[live] = static_cast<NodeId>(i);
      live += crashed_[i] ? 0 : 1;
    }
    alive_.resize(live);
    program.Start(ctx, alive_);
    stall_streak = 0;

    bool epoch_failed = false;
    while (!alive_.empty() && round < config.max_rounds) {
      // Crash-stop sweep: one draw per alive node in ascending node order,
      // at the start of the round, before the node gets to act.
      if (injector.has_crashes()) {
        std::size_t write = 0;
        for (std::size_t read = 0; read < alive_.size(); ++read) {
          if (injector.DrawCrash()) {
            crashed_[static_cast<std::size_t>(alive_[read])] = 1;
          } else {
            alive_[write++] = alive_[read];
          }
        }
        alive_.resize(write);
        if (alive_.empty()) break;
      }
      const std::size_t m = alive_.size();
      if (config.record_active_counts) {
        result.active_counts.push_back(static_cast<std::int64_t>(m));
      }
      ctx.round = round;

      // Plan this round's adversary jams from rounds < round only (the
      // observation recorded after the previous Resolve): jamming is a bet
      // on where activity will land, never a reaction to it.
      const std::span<const mac::ChannelId> adv_jams =
          adversary.PlanRound(round, config.channels);
      adv_perturbed = adv_perturbed || !adv_jams.empty();
      if (fast_rounds && adv_perturbed && adv_jams.empty() &&
          program.LockstepRestored(ctx, alive_)) {
        adv_perturbed = false;  // the jam-induced split healed: re-fuse
      }

      if (fast_rounds && !adv_perturbed) {
        finished_.assign(m, 0);
        FastRoundEffects fx;
        if (program.FastRound(ctx, alive_, node_tx_, finished_, &fx)) {
          ++result.fused_rounds;
          result.total_transmissions += fx.transmissions;
          if (fx.primary_lone_delivered) RecordLoneDelivery(result, round);
          ++round;
          // Same order as the materialized path: the solving round ends
          // the run before the alive set is compacted.
          if (result.solved && config.stop_when_solved) break;
          const std::size_t write = simd::CompactKeep(alive_, finished_);
          alive_.resize(write);
          const bool progress = fx.lone_deliveries > 0 || write < m;
          stall_streak = progress ? 0 : stall_streak + 1;
          continue;
        }
      }

      actions_.resize(m);
      program.EmitActions(ctx, alive_, actions_);

      for (std::size_t k = 0; k < m; ++k) {
        if (actions_[k].channel != mac::kIdleChannel && actions_[k].transmit) {
          ++node_tx_[static_cast<std::size_t>(alive_[k])];
        }
      }

      // Dense alive-only span: the resolver's sparse touched_channels path
      // makes this O(m), independent of num_active and C.
      const mac::RoundSummary summary =
          resolver_->Resolve(actions_, feedback_, fault_ptr, adv_jams);
      adversary.ObserveRound(*resolver_, round);
      account_round(summary);
      epochs.CountRound();
      // Hardened jam credit: a jammed protocol round is adversary-bought
      // time — it extends the epoch budget and holds the stall clock
      // (applied at the streak update below).
      const bool jam_credit = epochs.NoteProtocolRound(summary.adv_jams);

      // Delivery confirmation: exactly one primary-channel transmitter
      // whose message was suppressed is a *candidate* — insert echo rounds
      // until one delivers or attempts run out. A delivered candidate needs
      // no echo (strong CD already acked it: the transmitter observed its
      // own kMessage), and a delivered echo is itself the solving lone
      // delivery.
      if (epochs.enabled() && !result.solved &&
          summary.primary_transmitters == 1 &&
          !summary.primary_lone_delivered) {
        const std::int32_t winner_slot = robust::FindPrimaryWinner(actions_);
        CRMC_CHECK(winner_slot >= 0);
        epochs.NoteCandidate();
        // Every echo of the exchange is the same round: the candidate
        // retransmits its message on the primary channel while every other
        // live node listens there.
        const auto winner = static_cast<std::size_t>(winner_slot);
        fab_actions_.assign(m, mac::Action::Listen(mac::kPrimaryChannel));
        fab_actions_[winner] = mac::Action::Transmit(
            mac::kPrimaryChannel, actions_[winner].message);
        std::int64_t& winner_tx =
            node_tx_[static_cast<std::size_t>(alive_[winner])];
        // The loop bound is re-read after every echo: under the adaptive
        // policy a suppressed echo raises the quorum, so the exchange
        // escalates in place until an echo delivers or kMaxConfirmQuorum
        // caps it.
        for (std::int32_t attempt = 0;
             attempt < epochs.confirm_attempts() &&
             round < config.max_rounds && !result.solved;
             ++attempt) {
          ++winner_tx;
          const mac::RoundSummary echo = fabricated_round(fab_actions_);
          ++result.confirm_rounds;
          result.adv_jams_echo += echo.adv_jams;
          epochs.NoteEchoRound(echo.primary_lone_delivered, echo.adv_jams);
          epochs.CountRound();
        }
      }
      // Hardened reactive chaff: retry-epoch non-lone activity, the trigger
      // a calibrated striker waits for, is answered with a burst of dummy
      // rounds, extended one round per jammed dummy up to the epoch's chaff
      // window. A trigger never opens the confirmation exchange above (that
      // needs a lone primary transmitter), so the two are exclusive.
      if (epochs.ChaffTriggered(summary.total_transmissions,
                                summary.primary_transmitters) &&
          alive_.size() >= 2 && !result.solved) {
        // Quorum-obfuscating dummy confirm round: the two lowest-index
        // alive nodes (alive_ is ascending, so slots 0 and 1) transmit
        // together on the primary channel — a guaranteed collision — while
        // every other live node listens there. To the adversary it is
        // indistinguishable from a sparse endgame or echo round; faults
        // apply as usual, so an erasure thinning the pair to a lone
        // transmission genuinely solves the run.
        fab_actions_.assign(m, mac::Action::Listen(mac::kPrimaryChannel));
        fab_actions_[0] = mac::Action::Transmit(mac::kPrimaryChannel);
        fab_actions_[1] = mac::Action::Transmit(mac::kPrimaryChannel);
        for (std::int32_t burst = epochs.TakeChaffBurst();
             burst > 0 && round < config.max_rounds && !result.solved;) {
          ++node_tx_[static_cast<std::size_t>(alive_[0])];
          ++node_tx_[static_cast<std::size_t>(alive_[1])];
          const mac::RoundSummary dummy = fabricated_round(fab_actions_);
          epochs.NoteDummyRound(dummy.adv_jams);
          epochs.CountRound();
          --burst;
          if (burst == 0 && dummy.adv_jams > 0) burst = epochs.ExtendChaff();
        }
      }
      if (result.solved && config.stop_when_solved) break;

      // Advance sees the index of the round about to execute, after any
      // echo or chaff rounds. Assumption checks fire only in Advance: a
      // ProtocolAssumptionViolation aborts the run gracefully (or, under
      // the robust layer, fails the epoch) when an adversarial layer really
      // broke the guarantee it checks; otherwise it is a bug and propagates.
      finished_.assign(m, 0);
      ctx.round = round;
      try {
        program.Advance(ctx, alive_, actions_, feedback_, finished_);
      } catch (const support::ProtocolAssumptionViolation&) {
        if (!injector.active() && !adversary.active()) throw;
        if (epochs.CanRetry()) {
          epoch_failed = true;
          break;
        }
        result.assumption_violated = true;
        aborted = true;
        break;
      }
      const std::size_t write = simd::CompactKeep(alive_, finished_);
      alive_.resize(write);
      // Livelock watchdog: a round made progress iff some channel delivered
      // a lone message or some node terminated (crashes are not progress).
      // Jam-credited rounds hold the clock.
      const bool progress = summary.lone_deliveries > 0 || write < m;
      if (progress) {
        stall_streak = 0;
      } else if (!jam_credit) {
        ++stall_streak;
      }

      // Phase watchdogs: a jammed stage restarts the epoch instead of
      // stalling to max_rounds. The final permitted epoch runs to its
      // natural end (CanRetry gates the check), preserving the timeout and
      // wedge diagnostics when retries are exhausted.
      if (!result.solved && epochs.CanRetry() &&
          epochs.WatchdogExpired(stall_streak)) {
        epoch_failed = true;
        break;
      }
    }

    // Deluded exit: every node terminated (or crashed) without a confirmed
    // delivery — the silent failure E23 measures. Retry iff someone is
    // left to restart.
    if (!epoch_failed && !aborted && !result.solved && alive_.empty() &&
        epochs.CanRetry()) {
      for (std::size_t i = 0; i < n; ++i) {
        if (!crashed_[i]) {
          epoch_failed = true;
          break;
        }
      }
    }
    if (!epoch_failed || round >= config.max_rounds) break;
    epochs.BeginNextEpoch();
    // A watchdog-failed epoch leaves mid-flight nodes behind; they are
    // discarded (the backoff pause sees an empty network).
    alive_.clear();
  }

  const mac::FaultCounters& fc = injector.counters();
  result.jams_injected = fc.jams;
  result.erasures_injected = fc.erasures;
  result.cd_flips_injected = fc.cd_flips;
  result.faults_injected = fc.Total();
  result.crashed_nodes = static_cast<std::int32_t>(fc.crashes);
  const bool timed_out = (!alive_.empty() && round >= config.max_rounds &&
                          !(result.solved && config.stop_when_solved)) ||
                         out_of_rounds;
  FinishRun(config, round, stall_streak,
            !aborted && !out_of_rounds && alive_.empty() && fc.crashes == 0,
            timed_out, node_tx_, result);
  result.adv_rounds_held = adversary.rounds_held();
  if (epochs.enabled()) {
    result.epochs_used = epochs.epoch() + 1;
    result.retries = epochs.epoch();
    result.confirmed = result.solved;
    result.adaptive_confirm_extra = epochs.adaptive_confirm_extra();
    result.adaptive_backoff_trimmed = epochs.adaptive_backoff_trimmed();
    result.confirm_quorum_peak = epochs.confirm_quorum_peak();
    result.probe_rounds_detected = epochs.probe_rounds_detected();
    result.obfuscation_rounds = epochs.obfuscation_rounds();
  }
  return result;
}

}  // namespace crmc::sim
