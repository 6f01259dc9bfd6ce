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
#pragma once

#include <cstdint>
#include <memory>
#include <functional>
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

// ---------------------------------------------------------------------------
// Trial-parallel execution (sim/trial_engine.h): lanes are whole trials.
//
// Within one trial the SIMD kernels can only vectorize across alive nodes,
// which in the small-|A| regimes the paper cares about (two_active is |A|=2)
// leaves vector units mostly idle. With counter-based Philox streams, draw i
// of stream s is a pure function of (key, s, i), so W *independent trials*
// can instead run in lockstep: per-(lane, node) streams live in one flat
// [lane * num_active + node] plane and each round's draws are gathered into
// slot lists spanning all lanes, which the existing simd:: kernels then
// evaluate in one vectorized pass. A TrialProgram is the protocol's
// lane-parallel twin: it owns [lane][node] state planes and executes one
// lockstep round for every live lane per call. A twin is kept only where
// it beats the per-trial engine at equal RNG; today that is two_active,
// whose |A| = 2 rounds leave most of a vector idle. Every other protocol
// runs per trial under --lanes.

// Read-only parameters plus the engine-owned flat planes for one
// trial-parallel run. `rng` is one stream plane over every lane:
// `rng[lane * num_active + node]` is the stream node `node` of the trial
// seeded seeds[lane] gets per trial (ForStream(seed, node + 1)). Views
// stay valid for one TrialBatchEngine chunk. Like BatchContext it carries
// no node IDs: only Engine::Run's coroutine adapter samples them, for
// baselines that read NodeContext::unique_id() (none has a columnar twin),
// and no result depends on that ID stream.
struct TrialContext {
  std::int64_t population = 0;
  std::int32_t num_active = 0;
  std::int32_t channels = 1;
  support::StreamPlaneView rng;
};

// What one lockstep round did to one lane — FastRoundEffects plus the
// lane-lifecycle bits the trial engine needs for retirement. A two_active
// lane ends all at once (a lone transmission or the final pair round ends
// both nodes), so no round retires part of a lane and only a lone
// delivery counts as progress for the stall streak.
struct LaneEffects {
  std::int64_t transmissions = 0;
  std::int64_t lone_deliveries = 0;
  bool primary_lone_delivered = false;
  // Every node of the lane terminated this round.
  bool finished = false;
  // The lane left the lockstep-representable state set. The trial engine
  // retires it and re-runs that seed from scratch on the per-trial batch
  // path (with freshly seeded streams, so partial draw consumption in the
  // aborted round is harmless) — results stay bit-exact because every run
  // is a pure function of its config. A diverged lane's other effect
  // fields are ignored.
  bool diverged = false;
};

// One protocol over [lane][node] state planes, executing W independent
// trials in lockstep. Instances come from StepProgram::MakeTrialProgram and
// are reusable (Reset) but not thread-safe, like their per-trial twins.
//
// Draw-order contract: within each lane, the per-node streams are consumed
// exactly as the per-trial FastRound/EmitActions path would consume them —
// lanes touch disjoint stream slots, so cross-lane kernel batching cannot
// reorder draws within a stream and every lane stays bit-exact against a
// solo run of its seed.
class TrialProgram {
 public:
  virtual ~TrialProgram() = default;

  // Sizes the state planes for `lanes` lanes of ctx.num_active nodes each
  // and sets every lane to its initial state. Returns false when the shape
  // is outside the program's lockstep-representable set (e.g. two_active
  // with num_active != 2 outside duel mode); the engine then runs every
  // trial on the per-trial fallback path instead.
  virtual bool Reset(const TrialContext& ctx, std::int32_t lanes) = 0;

  // Executes one lockstep round for every lane in `lanes` (live lane
  // indices, ascending). Writes effects[k] for lane lanes[k] (`effects`
  // arrives zeroed) and charges transmissions into the flat
  // node_tx[lane * num_active + node] plane.
  virtual void Round(const TrialContext& ctx,
                     std::span<const std::int32_t> lanes,
                     std::span<std::int64_t> node_tx,
                     std::span<LaneEffects> effects) = 0;
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

  // Returns the protocol's trial-parallel twin (a fresh instance carrying
  // the same parameters), or nullptr when the protocol has none — the
  // trial engine (sim/trial_engine.h) then falls back to per-trial
  // BatchEngine runs, which stay bit-exact by construction.
  virtual std::unique_ptr<TrialProgram> MakeTrialProgram() const {
    return nullptr;
  }
};

using StepProgramFactory = std::function<std::unique_ptr<StepProgram>()>;

// Factories, one per registered protocol. Parameters mirror the coroutine
// factories in core/.
std::unique_ptr<StepProgram> MakeTwoActiveProgram(
    core::TwoActiveParams params = {});
std::unique_ptr<StepProgram> MakeReduceProgram(core::ReduceParams params = {});
std::unique_ptr<StepProgram> MakeIdReductionProgram(
    core::IdReductionParams params = {});
std::unique_ptr<StepProgram> MakeLeafElectionProgram(
    std::vector<std::int32_t> leaves, std::int32_t num_leaves,
    core::LeafElectionParams params = {});
std::unique_ptr<StepProgram> MakeKnockoutCdProgram();
std::unique_ptr<StepProgram> MakeGeneralProgram(core::GeneralParams params = {});

}  // namespace crmc::sim
