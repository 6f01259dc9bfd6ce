// Explicit per-round state machines ("step programs") for the round loop.
//
// BatchEngine (sim/batch_engine.h) owns the one round loop; a StepProgram
// is what it drives. Each round is two linear sweeps over the alive prefix
// (EmitActions, then Advance), with per-node state in whatever form the
// program keeps it. The columnar programs in this file keep per-node
// registers in flat arrays; the coroutine adapter behind Engine::Run
// (sim/engine.h) keeps them in per-node coroutine frames, which read like
// the paper's pseudocode and serve as the reference semantics.
//
// Every step program is *draw-order identical* to its coroutine twin, with
// no exception and no opt-out: it makes exactly the RNG draws the coroutine
// makes, in the same order, on the same per-node stream — so it reproduces
// Engine::Run bit-exactly for the same EngineConfig, which is what the
// parity suite (tests/batch_engine_test.cpp) enforces per seed.
//
// Programs provided: TwoActive, Reduce, IDReduction, LeafElection, the
// single-channel CD knockout, and the composed general algorithm
// (Reduce -> IDReduction -> LeafElection with the C = O(1) fallback).
// Each stage of the general algorithm is written once in step_program.cpp
// (Reduce and the CD knockout share one knockout stage). The standalone
// programs run one stage over every alive node; the general program runs
// the same stage code in sequence and moves a node to the next stage where
// the standalone program would finish it.
// Trial-parallel lanes (sim/trial_engine.h) run two_active on the trial
// engine's own duel executor, not through this interface; they recognise
// a two_active program by TwoActiveParamsOf.
#pragma once

#include <cstdint>
#include <memory>
#include <functional>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/params.h"
#include "mac/channel.h"
#include "support/assert.h"
#include "support/rng.h"

namespace crmc::sim {

using NodeId = std::int32_t;

// Read-only model parameters plus the engine-owned per-node columns a
// program may use. Views stay valid for the duration of one BatchEngine
// run. `rng` is the engine's stream plane: `rng[slot]` is a StreamRef to
// stream ForStream(epoch seed, slot + 1), and the simd:: draw kernels take
// `rng` whole.
struct BatchContext {
  std::int64_t population = 0;
  std::int32_t num_active = 0;
  std::int32_t channels = 1;
  // 0-based index of the round being executed; during Advance, of the
  // round about to execute (any echo or chaff rounds the robust layer
  // inserted after the protocol round are already counted).
  std::int64_t round = 0;
  support::StreamPlaneView rng;
};

// What one fused fast round did to the world — the slice of
// mac::RoundSummary the engine's result accounting needs.
struct FastRoundEffects {
  std::int64_t transmissions = 0;       // total transmissions this round
  std::int64_t lone_deliveries = 0;     // channels with exactly 1 transmitter
  bool primary_lone_delivered = false;  // primary channel had exactly 1
};

// One protocol as an explicit state machine over columnar node state.
//
// Contract (one engine round):
//   Reset(ctx)        — size the columns for ctx.num_active nodes and set
//                       initial state; called once per epoch (once per
//                       run without the robust layer), reusing capacity
//                       across runs.
//   Start(ctx, alive) — optional: drop nodes that terminate before their
//                       first round from the epoch's alive set.
//   EmitActions(...)  — write actions[k] (the round action of node
//                       alive[k]) for every k; RNG draws happen here, in
//                       alive order, so per-node draw order matches the
//                       coroutine (one resume per round).
//   Advance(...)      — consume feedback[k] for node alive[k], transition
//                       its state, and set finished[k] = 1 when the node's
//                       protocol terminated this round. Returns the first
//                       broken model assumption it met (empty when every
//                       check held); see the Advance declaration.
//   FastRound(...)    — optional fused round: EmitActions + channel
//                       resolution + Advance in one pass, skipping the
//                       Action/Feedback arrays and mac::Resolver entirely
//                       (src/simd/ kernels do the heavy loops). Only called
//                       on pristine strong-CD untraced rounds.
//
// A program instance is reusable (Reset) but not thread-safe; use one
// instance per thread.
class StepProgram {
 public:
  virtual ~StepProgram() = default;

  virtual std::string_view name() const = 0;

  virtual void Reset(const BatchContext& ctx) = 0;

  // Called after Reset with the epoch's alive set (nodes not crashed in an
  // earlier epoch, ascending). Erasing a node whose protocol ends before
  // its first round spares it an alive slot and a crash draw. Columnar
  // programs start every node in a round-0 state, so the default keeps all.
  virtual void Start(const BatchContext& ctx, std::vector<NodeId>& alive) {
    (void)ctx;
    (void)alive;
  }

  virtual void EmitActions(const BatchContext& ctx,
                           std::span<const NodeId> alive,
                           std::span<mac::Action> actions) = 0;
  // A protocol that meets feedback its model rules out (a check in the
  // coroutine twin's CRMC_PROTO_CHECK) stops at that node and returns the
  // breach (CRMC_STEP_CHECK), with no exception thrown: the round loop
  // fails the epoch or aborts the run with assumption_violated when a
  // fault injector or adversary is active, and otherwise raises it with
  // support::ThrowBreach, as a bug. The program's state after a breach is
  // unspecified; the engine Resets it before any further round.
  virtual support::AssumptionBreach Advance(
      const BatchContext& ctx, std::span<const NodeId> alive,
      std::span<const mac::Action> actions,
      std::span<const mac::Feedback> feedback,
      std::span<std::uint8_t> finished) = 0;

  // Executes the whole round — the draws EmitActions would make (same
  // streams, same order), strong-CD channel resolution, and the Advance
  // transitions — writing per-slot transmission charges into
  // node_tx[alive[k]]'s slot, termination into finished[k], and the round's
  // channel summary into *effects. Returns false to decline (the engine
  // then runs the generic materialized path); a declining implementation
  // must be side-effect-free. The engine only calls this when no fault
  // injection is active, cd_model == kStrong, and no trace is recorded, so
  // feedback is a pure function of the emitted actions. `finished` arrives
  // zeroed.
  virtual bool FastRound(const BatchContext& ctx, std::span<const NodeId> alive,
                         std::span<std::int64_t> node_tx,
                         std::span<std::uint8_t> finished,
                         FastRoundEffects* effects) {
    (void)ctx;
    (void)alive;
    (void)node_tx;
    (void)finished;
    (void)effects;
    return false;
  }

  // True iff the survivors' state currently satisfies every lockstep
  // invariant FastRound assumes, so the engine may (re-)enter the fused
  // path. A materialized jam can split previously-lockstep node states; the
  // engine queries this after jam-free materialized rounds to detect that
  // the split healed (e.g. two_active's duel has no cross-node invariant at
  // all, and its search pair re-syncs once both nodes share bounds again).
  // Must be side-effect-free. The conservative default keeps a perturbed
  // run pinned to the generic path forever — correct for programs whose
  // invariants span rounds that already happened (the composed general
  // program's stage bookkeeping).
  virtual bool LockstepRestored(const BatchContext& ctx,
                                std::span<const NodeId> alive) {
    (void)ctx;
    (void)alive;
    return false;
  }
};

using StepProgramFactory = std::function<std::unique_ptr<StepProgram>()>;

// Factories, one per registered protocol. Parameters mirror the coroutine
// factories in core/.
std::unique_ptr<StepProgram> MakeTwoActiveProgram(
    core::TwoActiveParams params = {});
// The params of a program MakeTwoActiveProgram made, or nullopt for any
// other program. This is the one answer to "does this program run in
// trial-parallel lanes, and with which params": only two_active does
// (sim/trial_engine.h); every other protocol runs per trial under --lanes.
std::optional<core::TwoActiveParams> TwoActiveParamsOf(
    const StepProgram& program);
std::unique_ptr<StepProgram> MakeReduceProgram(core::ReduceParams params = {});
std::unique_ptr<StepProgram> MakeIdReductionProgram(
    core::IdReductionParams params = {});
std::unique_ptr<StepProgram> MakeLeafElectionProgram(
    std::vector<std::int32_t> leaves, std::int32_t num_leaves,
    core::LeafElectionParams params = {});
std::unique_ptr<StepProgram> MakeKnockoutCdProgram();
std::unique_ptr<StepProgram> MakeGeneralProgram(core::GeneralParams params = {});

}  // namespace crmc::sim
