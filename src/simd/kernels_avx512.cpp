// AVX-512 backend: stream seeding only. SeedStreams runs the SplitMix64
// expansion of eight streams at once on native 64-bit lane multiplies
// (vpmullq, AVX-512DQ) — the multiply that AVX2 has to emulate, which is
// why an AVX2 seeding kernel lost to scalar. Every other kernel of this
// backend is the AVX2 one (see the dispatch in kernels.cpp).
//
// Compiled with -mavx512f -mavx512dq -mavx512vl (see src/CMakeLists.txt);
// only reached through the dispatch after a cpuid probe that also checks
// the OS saves zmm state. Bit-exact with RandomSource::SeedStream.
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

// Writes eight records: record j gets (w0[j], w1[j], w2[j], w3[j]) and
// `kind`. The 4x8 word block is transposed in registers into eight 32-byte
// rows, each stored into its record in place.
inline void StoreRecords8(support::RandomSource* out, __m512i w0, __m512i w1,
                          __m512i w2, __m512i w3, support::RngKind kind) {
  // Per 128-bit lane i: a = (w0, w1)[2i], b = (w0, w1)[2i+1],
  // c = (w2, w3)[2i], d = (w2, w3)[2i+1]. Record 2i is (a.i, c.i) and
  // record 2i+1 is (b.i, d.i).
  const __m512i a = _mm512_unpacklo_epi64(w0, w1);
  const __m512i b = _mm512_unpackhi_epi64(w0, w1);
  const __m512i c = _mm512_unpacklo_epi64(w2, w3);
  const __m512i d = _mm512_unpackhi_epi64(w2, w3);
  const __m512i lanes01 = _mm512_setr_epi64(0, 1, 8, 9, 2, 3, 10, 11);
  const __m512i lanes23 = _mm512_setr_epi64(4, 5, 12, 13, 6, 7, 14, 15);
  const __m512i rows[4] = {
      _mm512_permutex2var_epi64(a, lanes01, c),  // records 0, 2
      _mm512_permutex2var_epi64(b, lanes01, d),  // records 1, 3
      _mm512_permutex2var_epi64(a, lanes23, c),  // records 4, 6
      _mm512_permutex2var_epi64(b, lanes23, d),  // records 5, 7
  };
  for (int r = 0; r < 4; ++r) {
    const int lo = (r & 1) + (r >> 1) * 4;  // 0, 1, 4, 5
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out[lo].words()),
                        _mm512_castsi512_si256(rows[r]));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out[lo + 2].words()),
                        _mm512_extracti64x4_epi64(rows[r], 1));
  }
  for (int j = 0; j < 8; ++j) out[j].set_kind(kind);
}

}  // namespace

void SeedStreamsAvx512(std::uint64_t master_seed, std::uint64_t first_stream,
                       support::RngKind kind,
                       std::span<support::RandomSource> out) {
  const std::size_t m = out.size();
  const __m512i gamma = Splat(SplitMix64::kGamma);
  const __m512i master = Splat(master_seed);
  const __m512i premix = Splat(support::RandomSource::kStreamMix);
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
      StoreRecords8(out.data() + k, Mix(s1), Mix(s2), Mix(s3), Mix(s4), kind);
    } else {
      const __m512i zero = _mm512_setzero_si512();
      StoreRecords8(out.data() + k, seed, stream, zero, zero, kind);
    }
    stream = _mm512_add_epi64(stream, Splat(8));
  }
  for (; k < m; ++k) {
    out[k].SeedStream(master_seed, first_stream + static_cast<std::uint64_t>(k),
                      kind);
  }
}

}  // namespace crmc::simd::internal
