// Vector kernels for the batch engine's three dominant loops: knockout
// Bernoulli masking, channel-choice histogramming with lone/collision
// classification, and active-set stream compaction.
//
// Every kernel has a scalar reference implementation and (on x86 builds)
// SSE4.2 / AVX2 / AVX-512 variants selected at runtime through
// simd::ActiveBackend() (dispatch.h). All variants are bit-identical: the
// draw kernels consume each slot's stream exactly as the scalar Draw()
// path would — same per-slot draw count and order — so the batch engine
// stays draw-for-draw parity-exact against the coroutine oracle under
// every backend.
//
// The streams live in a support::StreamPlane: four contiguous word planes
// (state word w of slot s at plane(w)[s]) and one RngKind for the whole
// plane. The draw kernels vectorize across streams, never along one.
// Philox-mode planes (support::RngKind::kPhilox) are counter-based: a
// slot's next draw is a pure function of (key, stream, draw index), so
// SSE4.2 and AVX2 run 4 / 8 block functions at once. Xoshiro-mode planes
// are sequential within a stream, but AVX2 steps four streams at once;
// SSE4.2 (two 64-bit lanes) takes the scalar loop for xoshiro. AVX2 takes
// the slot list in blocks (8 slots for Philox, 4 for xoshiro) as they
// come: a contiguous block (slots[k..k+w) == slots[k] + 0..w-1, e.g. every
// block of a full-width round) loads and stores the word planes as
// vectors; any other block (a sparse round after compaction, a lane-major
// or shuffled list) gathers its words and scatters them back. SSE4.2
// gathers every Philox block slot by slot. A slot list must not repeat a
// slot.
//
// Slot lists are just indices into the caller's plane; nothing requires
// them to address one trial. The trial-parallel executor
// (sim/trial_engine.h) exploits exactly this: it flattens W independent
// trials' per-node streams into one [lane * num_active + node] plane and
// hands the draw kernels slot lists spanning every lane, so a single
// CoinMask/UniformFill call vectorizes Philox evaluation *across trials* —
// the regime where per-trial batches are too short to fill vector lanes.
// Per-slot draw order is unchanged (each slot is an independent stream),
// so every lane stays bit-exact against a solo run of its seed.
//
// The std::span<RandomSource> overloads are adapters for callers that keep
// 40-byte records: they copy the records into a scratch plane, run the
// plane kernel and copy the words back. They are for tools and tests, not
// hot loops.
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

// Seeds slot k of `out` with stream first_stream + k of master_seed, of
// the plane's kind — bit-exact with support::RandomSource::ForStream. The
// engines re-derive one stream per node on every trial, which made per-node
// stream construction a measurable slice of Monte-Carlo setup for large
// active sets. The AVX-512 backend runs the SplitMix64 expansion eight
// streams at a time and stores whole vectors into the word planes; every
// other backend runs it scalar — see the dispatch note in kernels.cpp for
// the measured reason.
void SeedStreams(std::uint64_t master_seed, std::uint64_t first_stream,
                 support::StreamPlaneView out);
// The same for several master seeds in one call: with m = out.size() /
// master_seeds.size() (a whole number), slot j * m + k gets stream
// first_stream + k of master_seeds[j]. The trial engine seeds a whole
// chunk this way, lane j's nodes from trial j's seed. Scalar under every
// backend (see kernels.cpp).
void SeedStreams(std::span<const std::uint64_t> master_seeds,
                 std::uint64_t first_stream, support::StreamPlaneView out);

// Draws one Bernoulli per slot: mask[k] = coin.Draw(rng[alive[k]]) for
// every k, bit-exact with the scalar call (including consuming no draw for
// fixed-outcome coins). Returns the number of successes.
std::int64_t CoinMask(const support::BatchBernoulli& coin,
                      support::StreamPlaneView rng,
                      std::span<const std::int32_t> alive,
                      std::span<std::uint8_t> mask);

// Draws one bounded uniform integer per slot:
// out[k] = int32(dist.Draw(rng[alive[k]])), bit-exact with the scalar call
// (Lemire rejection included). Requires dist.range() to fit in int32 — the
// channel-pick use case; enforced with a check.
void UniformFill(const support::BatchUniformInt& dist,
                 support::StreamPlaneView rng,
                 std::span<const std::int32_t> alive,
                 std::span<std::int32_t> out);

// Record adapters of the three kernels above (see the header comment):
// out[k] becomes ForStream(master_seed, first_stream + k, kind); the draw
// adapters require every record of `rng` to share one kind.
void SeedStreams(std::uint64_t master_seed, std::uint64_t first_stream,
                 support::RngKind kind,
                 std::span<support::RandomSource> out);
std::int64_t CoinMask(const support::BatchBernoulli& coin,
                      std::span<support::RandomSource> rng,
                      std::span<const std::int32_t> alive,
                      std::span<std::uint8_t> mask);
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
