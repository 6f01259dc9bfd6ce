// AVX-512 backend: stream seeding only. SeedStreams runs the SplitMix64
// expansion of eight streams at once on native 64-bit lane multiplies
// (vpmullq, AVX-512DQ) — the multiply that AVX2 has to emulate, which is
// why an AVX2 seeding kernel lost to scalar — and stores each state word
// as one 64-byte vector into its word plane, with no transpose. Two
// prototypes over the plane were measured and dropped (Sapphire Rapids
// Xeon, pinned CPU, best of 200 x 50 calls):
//   - emulating the multiply here too (vpmuludq plus shifts, to free the
//     kernel of AVX-512DQ) took 13.0 us per 4096 streams against 9.1 us
//     with vpmullq;
//   - an 8-wide xoshiro coin round took 3.4 us per 4096 slots against
//     3.7 us for AVX2's 4-wide one, too close to carry a second draw
//     kernel.
// So every other kernel of this backend is the AVX2 one (see the dispatch
// in kernels.cpp).
//
// Compiled with -mavx512f -mavx512dq -mavx512vl (see src/CMakeLists.txt);
// only reached through the dispatch after a cpuid probe that also checks
// the OS saves zmm state. Bit-exact with support::StreamCore::Seed.
#include <immintrin.h>

// GCC 12's avx512fintrin.h passes _mm512_undefined_epi32() as the unused
// merge source of unmasked ops, which -Wmaybe-uninitialized reports once
// the intrinsics are inlined (GCC bug 105593). The warning is about the
// header, not this file.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include "simd/kernels_impl.h"

#if !defined(CRMC_SIMD_HAS_AVX512)
#error "kernels_avx512.cpp requires CRMC_SIMD_HAS_AVX512"
#endif

namespace crmc::simd::internal {
namespace {

using support::SplitMix64;

inline __m512i Splat(std::uint64_t v) {
  return _mm512_set1_epi64(static_cast<long long>(v));
}

// SplitMix64's output function of an already-advanced state, per lane.
inline __m512i Mix(__m512i z) {
  z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 30)),
                         Splat(SplitMix64::kMul1));
  z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 27)),
                         Splat(SplitMix64::kMul2));
  return _mm512_xor_si512(z, _mm512_srli_epi64(z, 31));
}

// Stores slots k..k+8 of each word plane: word w of slot k + j is lane j
// of words[w].
inline void StorePlanes8(support::StreamPlaneView out, std::size_t k,
                         const __m512i (&words)[4]) {
  for (int w = 0; w < 4; ++w) {
    _mm512_storeu_si512(out.plane(w) + k, words[w]);
  }
}

}  // namespace

void SeedStreamsAvx512(std::uint64_t master_seed, std::uint64_t first_stream,
                       support::StreamPlaneView out) {
  const std::size_t m = out.size();
  const support::RngKind kind = out.kind();
  const __m512i gamma = Splat(SplitMix64::kGamma);
  const __m512i master = Splat(master_seed);
  const __m512i premix = Splat(support::StreamCore::kStreamMix);
  __m512i stream = _mm512_add_epi64(Splat(first_stream),
                                    _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7));
  std::size_t k = 0;
  for (; k + 8 <= m; k += 8) {
    // The premixed SplitMix64 state, advanced once: its output is the
    // xoshiro seed or the philox key.
    const __m512i state = _mm512_xor_si512(
        master, _mm512_mullo_epi64(premix, _mm512_add_epi64(stream, Splat(1))));
    const __m512i seed = Mix(_mm512_add_epi64(state, gamma));
    if (kind == support::RngKind::kXoshiro) {
      // Xoshiro state word i is output i + 1 of SplitMix64(seed).
      const __m512i s1 = _mm512_add_epi64(seed, gamma);
      const __m512i s2 = _mm512_add_epi64(s1, gamma);
      const __m512i s3 = _mm512_add_epi64(s2, gamma);
      const __m512i s4 = _mm512_add_epi64(s3, gamma);
      StorePlanes8(out, k, {Mix(s1), Mix(s2), Mix(s3), Mix(s4)});
    } else {
      const __m512i zero = _mm512_setzero_si512();
      StorePlanes8(out, k, {seed, stream, zero, zero});
    }
    stream = _mm512_add_epi64(stream, Splat(8));
  }
  if (k < m) {
    SeedStreamsScalar(master_seed, first_stream + k, out.Subspan(k, m - k));
  }
}

}  // namespace crmc::simd::internal
