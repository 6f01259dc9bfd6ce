#include "sim/batch_engine.h"

#include <algorithm>

#include "simd/kernels.h"
#include "support/assert.h"

namespace crmc::sim {

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
  // (folded into timed_out below, same as Engine::Run).
  bool out_of_rounds = false;
  // Fused-round gate: FastRound assumes feedback is a pure function of the
  // emitted actions (strong CD, no faults) and produces no trace. The
  // conditions are per-run constants, so the whole run takes one path —
  // except a program may decline a specific round (e.g. the general
  // algorithm's LeafElection stage), which falls through to the generic
  // materialized round below. An observation-reading adversary pins the
  // whole run to materialized rounds (FastRound never runs the resolver it
  // would eavesdrop on), and so does the robust layer: epoch boundaries,
  // confirmation echoes and watchdog bookkeeping all need materialized
  // rounds, and a wrapped run is only interesting under adversarial
  // pressure anyway. Wrapped pristine runs stay bit-identical regardless —
  // the fused path's contract is bit-exactness with the generic one.
  const bool fast_rounds = fused_rounds_enabled_ && !injector.active() &&
                           config.cd_model == mac::CdModel::kStrong &&
                           !config.record_trace &&
                           !adversary.needs_observation() &&
                           !config.robust.enabled;
  // FastRound implementations also lean on lockstep invariants ("survivors
  // share identical bounds/phase") that only hold while every past round
  // was pristine: a single jam can split previously-lockstep node states
  // (one node sees a forced collision where its peer saw a clean delivery),
  // and the programs do not re-verify the invariant per round. A
  // materialized jam therefore drops the run to the generic path — but only
  // until the program reports the split healed: on every later jam-free
  // round the engine asks LockstepRestored whether the survivors are back
  // in a fused-representable shape and re-fuses when they are, so a
  // budget-k adversary costs O(k) materialized windows instead of pinning
  // the whole run (an observation-free adversary with budget 0, or one
  // that never fires, still fuses every round).
  bool adv_perturbed = false;

  // Shared accounting for every resolved round, protocol and fabricated
  // alike — mirrors Engine::Run's lambda exactly.
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
    if (summary.primary_lone_delivered) {
      if (!result.solved) {
        result.solved = true;
        result.solved_round = round;
      }
      result.all_solved_rounds.push_back(round);
    }
    ++round;
  };

  // One engine-fabricated round, bit-exact with Engine::Run's: the dense
  // alive-ordered action array carries the same non-idle actions in the
  // same ascending-node order as the coroutine engine's full array, so the
  // resolver touches channels — and draws faults — identically. Crash
  // draws are skipped and the program does not advance. `winner_slot`
  // >= 0 indexes alive_ and fabricates a confirmation echo; -1 fabricates
  // an all-idle backoff round. Returns the round summary so the call sites
  // can feed the adaptive policy and the echo/backoff spend breakdown.
  const auto fabricated_round =
      [&](std::int32_t winner_slot) -> mac::RoundSummary {
    const std::size_t m = alive_.size();
    if (config.record_active_counts) {
      result.active_counts.push_back(static_cast<std::int64_t>(m));
    }
    fab_actions_.assign(m, mac::Action::Listen(mac::kPrimaryChannel));
    if (winner_slot >= 0) {
      fab_actions_[static_cast<std::size_t>(winner_slot)] =
          mac::Action::Transmit(
              mac::kPrimaryChannel,
              actions_[static_cast<std::size_t>(winner_slot)].message);
      ++node_tx_[static_cast<std::size_t>(
          alive_[static_cast<std::size_t>(winner_slot)])];
    } else {
      fab_actions_.clear();  // backoff: nobody participates
    }
    const std::span<const mac::ChannelId> adv_jams =
        adversary.PlanRound(round, config.channels);
    adv_perturbed = adv_perturbed || !adv_jams.empty();
    const mac::RoundSummary summary =
        resolver_->Resolve(fab_actions_, fab_feedback_, fault_ptr, adv_jams);
    adversary.ObserveRound(*resolver_, round);
    account_round(summary);
    return summary;
  };

  // Quorum-obfuscating dummy confirm round, bit-exact with Engine::Run's:
  // the two lowest-index alive nodes (alive_ is ascending, so slots 0 and 1)
  // transmit together on the primary channel — a guaranteed collision —
  // while every other live node listens there. Faults apply as usual, so an
  // erasure thinning the pair to a lone transmission genuinely solves the
  // run. Requires alive_.size() >= 2 (call sites gate).
  const auto fabricated_dummy_round = [&]() -> mac::RoundSummary {
    const std::size_t m = alive_.size();
    if (config.record_active_counts) {
      result.active_counts.push_back(static_cast<std::int64_t>(m));
    }
    fab_actions_.assign(m, mac::Action::Listen(mac::kPrimaryChannel));
    for (std::size_t k = 0; k < 2; ++k) {
      fab_actions_[k] = mac::Action::Transmit(mac::kPrimaryChannel);
      ++node_tx_[static_cast<std::size_t>(alive_[k])];
    }
    const std::span<const mac::ChannelId> adv_jams =
        adversary.PlanRound(round, config.channels);
    adv_perturbed = adv_perturbed || !adv_jams.empty();
    const mac::RoundSummary summary =
        resolver_->Resolve(fab_actions_, fab_feedback_, fault_ptr, adv_jams);
    adversary.ObserveRound(*resolver_, round);
    account_round(summary);
    return summary;
  };

  while (true) {  // one iteration per robust epoch (single pass when off)
    // Bounded exponential backoff before every retry epoch — all-idle
    // rounds the adversary still plans against (and, being reactive,
    // typically wastes budget on).
    for (std::int64_t pause = epochs.PauseRounds();
         pause > 0 && round < config.max_rounds; --pause) {
      const mac::RoundSummary pause_summary = fabricated_round(-1);
      ++result.backoff_rounds;
      result.adv_jams_backoff += pause_summary.adv_jams;
      epochs.NoteBackoffRound(pause_summary.adv_jams);
    }
    if (round >= config.max_rounds) {
      out_of_rounds = true;
      break;
    }

    // (Re)seed per-node streams and reset program state for this epoch.
    // Epoch 0 uses the unsalted seed — the historical construction — and
    // crashed nodes are excluded from the rebuilt alive set for good.
    rng_.resize(n);
    simd::SeedStreams(epochs.SeedFor(config.seed), 1, config.rng, rng_);
    ctx.rng = rng_;
    program.Reset(ctx);

    alive_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (!crashed_[i]) alive_.push_back(static_cast<NodeId>(i));
    }
    stall_streak = 0;

    bool epoch_failed = false;
    while (!alive_.empty() && round < config.max_rounds) {
      // Crash-stop sweep, bit-exact with Engine::Run: one draw per alive
      // node in ascending node order at the start of the round.
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

      // Planned before the round resolves, from strictly earlier
      // observations — same call point as Engine::Run, so strategy, ledger
      // and RNG state advance in lockstep across executors.
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
          if (fx.primary_lone_delivered) {
            if (!result.solved) {
              result.solved = true;
              result.solved_round = round;
            }
            result.all_solved_rounds.push_back(round);
          }
          ++round;
          // Same order as the generic path: the solving round ends the run
          // before the alive set is compacted.
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
      // Hardened jam credit, mirroring Engine::Run: a jammed protocol
      // round extends the epoch budget and holds the stall clock.
      const bool jam_credit = epochs.NoteProtocolRound(summary.adv_jams);

      // Delivery confirmation, mirroring Engine::Run: a suppressed
      // candidate (lone primary transmitter, delivery jammed/erased)
      // triggers echo rounds until one delivers or attempts run out.
      if (epochs.enabled() && !result.solved &&
          summary.primary_transmitters == 1 &&
          !summary.primary_lone_delivered) {
        const std::int32_t winner_slot = robust::FindPrimaryWinner(actions_);
        CRMC_CHECK(winner_slot >= 0);
        epochs.NoteCandidate();
        // Bound re-evaluated after every echo — the adaptive quorum
        // escalates in place, same as Engine::Run.
        for (std::int32_t attempt = 0;
             attempt < epochs.confirm_attempts() &&
             round < config.max_rounds && !result.solved;
             ++attempt) {
          const mac::RoundSummary echo = fabricated_round(winner_slot);
          ++result.confirm_rounds;
          result.adv_jams_echo += echo.adv_jams;
          epochs.NoteEchoRound(echo.primary_lone_delivered, echo.adv_jams);
          epochs.CountRound();
        }
      }
      // Hardened reactive chaff, same call point as Engine::Run: retry-
      // epoch non-lone activity is answered with a dummy-round burst that
      // extends one round per jammed dummy up to the epoch's chaff window.
      if (epochs.ChaffTriggered(summary.total_transmissions,
                                summary.primary_transmitters) &&
          alive_.size() >= 2 && !result.solved) {
        for (std::int32_t burst = epochs.TakeChaffBurst();
             burst > 0 && round < config.max_rounds && !result.solved;) {
          const mac::RoundSummary dummy = fabricated_dummy_round();
          epochs.NoteDummyRound(dummy.adv_jams);
          epochs.CountRound();
          --burst;
          if (burst == 0 && dummy.adv_jams > 0) burst = epochs.ExtendChaff();
        }
      }
      if (result.solved && config.stop_when_solved) break;

      finished_.assign(m, 0);
      // All step-program assumption checks fire in Advance (Emit paths use
      // hard CRMC_CHECKs only), so wrapping Advance alone keeps the
      // graceful abort bit-exact with the coroutine engine's resume loop.
      try {
        program.Advance(ctx, alive_, actions_, feedback_, finished_);
      } catch (const support::ProtocolAssumptionViolation&) {
        // Same graceful-abort rule as Engine::Run: an active adversary
        // layer (oblivious faults or adaptive jammer) legitimately breaks
        // protocol model assumptions. Under the robust layer the violation
        // fails the epoch and retries instead.
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
      // Livelock watchdog, identical to Engine::Run: progress means a lone
      // message got through somewhere or a node terminated. Jam-credited
      // rounds hold the clock.
      const bool progress = summary.lone_deliveries > 0 || write < m;
      if (progress) {
        stall_streak = 0;
      } else if (!jam_credit) {
        ++stall_streak;
      }

      // Phase watchdogs (see Engine::Run): the final permitted epoch runs
      // to its natural end.
      if (!result.solved && epochs.CanRetry() &&
          epochs.WatchdogExpired(stall_streak)) {
        epoch_failed = true;
        break;
      }
    }

    // Deluded exit: every node terminated (or crashed) without a confirmed
    // delivery. Retry iff someone is left to restart.
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
    alive_.clear();
  }

  result.rounds_executed = round;
  const mac::FaultCounters& fc = injector.counters();
  result.jams_injected = fc.jams;
  result.erasures_injected = fc.erasures;
  result.cd_flips_injected = fc.cd_flips;
  result.faults_injected = fc.Total();
  result.crashed_nodes = static_cast<std::int32_t>(fc.crashes);
  result.stall_rounds = stall_streak;
  result.all_terminated =
      !aborted && !out_of_rounds && alive_.empty() && fc.crashes == 0;
  for (const std::int64_t tx : node_tx_) {
    result.max_node_transmissions = std::max(result.max_node_transmissions, tx);
    result.mean_node_transmissions += static_cast<double>(tx);
  }
  result.mean_node_transmissions /= static_cast<double>(config.num_active);
  if (config.record_node_transmissions) {
    result.node_transmissions = node_tx_;
  }
  result.timed_out = (!alive_.empty() && round >= config.max_rounds &&
                      !(result.solved && config.stop_when_solved)) ||
                     out_of_rounds;
  result.wedged =
      result.timed_out && stall_streak * 2 >= result.rounds_executed;
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
