// Vector kernels for the batch engine's three dominant loops: knockout
// Bernoulli masking, channel-choice histogramming with lone/collision
// classification, and active-set stream compaction.
//
// Every kernel has a scalar reference implementation and (on x86 builds)
// SSE4.2 / AVX2 / AVX-512 variants selected at runtime through
// simd::ActiveBackend() (dispatch.h). All variants are bit-identical: the
// draw kernels consume each lane's RandomSource exactly as the scalar
// Draw() path would — same per-lane draw count and order — so the batch
// engine stays draw-for-draw parity-exact against the coroutine oracle
// under every backend.
//
// The draw kernels vectorize across streams, never along one. Philox-mode
// lanes (support::RngKind::kPhilox) are counter-based: a lane's next draw
// is a pure function of (key, stream, draw index), so SSE4.2 and AVX2 run
// 4 / 8 block functions at once. Xoshiro-mode lanes are sequential within
// a stream, but four streams' 32-byte states still step together: AVX2
// transposes them 4x4, runs one xoshiro256++ step on 64-bit lanes and
// transposes back. SSE4.2 (two 64-bit lanes) takes the scalar loop for
// xoshiro. The kernels accept either kind, so callers need no mode check;
// the kind of the first slot picks the path (the engines seed every stream
// of a call with one kind). A slot list must not repeat a slot.
//
// Slot lists are just indices into the caller's RandomSource span; nothing
// requires them to address one trial. The trial-parallel executor
// (sim/trial_engine.h) exploits exactly this: it flattens W independent
// trials' per-node streams into one [lane * num_active + node] plane and
// hands the draw kernels slot lists spanning every lane, so a single
// CoinMask/UniformFill call vectorizes Philox evaluation *across trials* —
// the regime where per-trial batches are too short to fill vector lanes.
// Per-slot draw order is unchanged (each slot is an independent stream),
// so every lane stays bit-exact against a solo run of its seed.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "support/rng.h"

namespace crmc::simd {

namespace internal {
std::size_t CompactKeepDispatch(std::span<std::int32_t> ids,
                                std::span<const std::uint8_t> drop);
}  // namespace internal

// Seeds out[k] = support::RandomSource::ForStream(master_seed,
// first_stream + k, kind) for every k, bit-exact with the scalar factory.
// The engines re-derive one stream per node on every trial, which made
// per-node stream construction a measurable slice of Monte-Carlo setup for
// large active sets; this kernel writes each record in place (no
// per-stream construction/copy). The AVX-512 backend runs the SplitMix64
// expansion eight streams at a time; every other backend runs it scalar —
// see the dispatch note in kernels.cpp for the measured reason.
void SeedStreams(std::uint64_t master_seed, std::uint64_t first_stream,
                 support::RngKind kind,
                 std::span<support::RandomSource> out);

// Draws one Bernoulli per lane: mask[k] = coin.Draw(rng[alive[k]]) for
// every k, bit-exact with the scalar call (including consuming no draw for
// fixed-outcome coins). Returns the number of successes.
std::int64_t CoinMask(const support::BatchBernoulli& coin,
                      std::span<support::RandomSource> rng,
                      std::span<const std::int32_t> alive,
                      std::span<std::uint8_t> mask);

// Draws one bounded uniform integer per lane:
// out[k] = int32(dist.Draw(rng[alive[k]])), bit-exact with the scalar call
// (Lemire rejection included). Requires dist.range() to fit in int32 — the
// channel-pick use case; enforced with a check.
void UniformFill(const support::BatchUniformInt& dist,
                 std::span<support::RandomSource> rng,
                 std::span<const std::int32_t> alive,
                 std::span<std::int32_t> out);

// In-place stream compaction: keeps ids[k] where drop[k] == 0, preserving
// order, and returns the new length. drop.size() must equal ids.size().
// Tiny inputs skip dispatch entirely: the endgame of every trial (and the
// whole of two_active) compacts a handful of lanes per round, where the
// dispatch switch itself outweighed the copy.
inline std::size_t CompactKeep(std::span<std::int32_t> ids,
                               std::span<const std::uint8_t> drop) {
  CRMC_CHECK(ids.size() == drop.size());
  if (ids.size() <= 16) {
    std::size_t write = 0;
    for (std::size_t read = 0; read < ids.size(); ++read) {
      ids[write] = ids[read];
      write += drop[read] == 0;
    }
    return write;
  }
  return internal::CompactKeepDispatch(ids, drop);
}

// Outcome of one all-transmitter round over chosen channels (the
// IDReduction spread round): per-channel occupancy plus the summary the
// MAC resolver would report.
struct Occupancy {
  std::int64_t lone_channels = 0;  // channels with exactly 1 transmitter
  bool primary_lone = false;       // channel `primary` had exactly 1
};

// Histograms channels[0..m) into `counts` (packed 16-bit counters,
// saturating at 2 — lone/collision classification only needs 0/1/2+) and
// classifies each lane: lone[k] = 1 iff channels[k] had exactly one
// transmitter. `counts` is caller-owned scratch sized >= max channel + 3
// (two padding entries for the vector gather) and must be all-zero on
// entry; it is sparsely re-zeroed before returning. `touched` is reusable
// scratch for the dirty-channel list.
Occupancy ClassifyChannels(std::span<const std::int32_t> channels,
                           std::int32_t primary,
                           std::span<std::uint16_t> counts,
                           std::vector<std::int32_t>& touched,
                           std::span<std::uint8_t> lone);

}  // namespace crmc::simd
