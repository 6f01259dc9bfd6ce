// Runtime CPU dispatch for the vector kernels (src/simd/kernels.h).
//
// Four backends, all bit-identical: a portable scalar reference, SSE4.2,
// AVX2, and AVX-512. AVX-512 only has its own stream-seeding kernel
// (native 64-bit multiplies for SplitMix64) and takes the AVX2 kernels for
// everything else. The x86 backends are compiled into separate translation
// units with per-file -m flags (only when the compiler supports them and
// CRMC_SIMD is ON), and are only ever *called* after a cpuid probe says the
// instruction set exists — so the binary runs everywhere the scalar build
// would. The probe runs once; the active backend is process-global and
// overridable (--simd=scalar|sse4.2|avx2|avx512|auto on the CLI, SetBackend
// here) so the bit-exactness suite can force every backend on one machine.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>

namespace crmc::simd {

enum class Backend : std::uint8_t {
  kScalar = 0,
  kSse42 = 1,
  kAvx2 = 2,
  kAvx512 = 3,
};

// Every backend, compiled in or not, in preference order (worst first).
// Tests, benches and `crmc simd` iterate this list, so a new backend gets
// bit-exactness coverage and a table row by construction.
constexpr std::array<Backend, 4> AllBackends() {
  return {Backend::kScalar, Backend::kSse42, Backend::kAvx2, Backend::kAvx512};
}

const char* ToString(Backend backend);

// True when `backend` is compiled into this binary. kScalar always is.
bool BackendCompiled(Backend backend);

// True when `backend` is both compiled into this binary and supported by
// the running CPU. kScalar is always available.
bool BackendAvailable(Backend backend);

// Best available backend for this binary/CPU (cpuid probe, memoized).
Backend DetectBackend();

// The backend the kernels currently dispatch to. Starts at DetectBackend().
Backend ActiveBackend();

// Forces dispatch to `backend`. Returns false (active backend unchanged)
// when the backend is not available in this build or on this CPU.
bool SetBackend(Backend backend);

// "scalar" | "sse4.2" | "avx2" | "avx512" | "auto"; auto means
// DetectBackend(). Returns nullopt for anything else.
std::optional<Backend> ParseBackend(std::string_view name);

}  // namespace crmc::simd
