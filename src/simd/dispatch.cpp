#include "simd/dispatch.h"

#include <atomic>

namespace crmc::simd {
namespace {

bool CpuSupports(Backend backend) {
#if defined(__x86_64__) || defined(__i386__)
  switch (backend) {
    case Backend::kScalar:
      return true;
    case Backend::kSse42:
      return __builtin_cpu_supports("sse4.2") != 0;
    case Backend::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case Backend::kAvx512:
      // libgcc's probe reports the AVX-512 features only when XCR0 shows
      // the OS saves zmm/opmask state, so this is also the OS check.
      return __builtin_cpu_supports("avx2") != 0 &&
             __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512dq") != 0 &&
             __builtin_cpu_supports("avx512vl") != 0;
  }
#endif
  return backend == Backend::kScalar;
}

std::atomic<Backend>& ActiveSlot() {
  static std::atomic<Backend> active{DetectBackend()};
  return active;
}

}  // namespace

bool BackendCompiled(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return true;
    case Backend::kSse42:
#if defined(CRMC_SIMD_HAS_SSE42)
      return true;
#else
      return false;
#endif
    case Backend::kAvx2:
#if defined(CRMC_SIMD_HAS_AVX2)
      return true;
#else
      return false;
#endif
    case Backend::kAvx512:
#if defined(CRMC_SIMD_HAS_AVX512)
      return true;
#else
      return false;
#endif
  }
  return false;
}

const char* ToString(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kSse42:
      return "sse4.2";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kAvx512:
      return "avx512";
  }
  return "?";
}

bool BackendAvailable(Backend backend) {
  return BackendCompiled(backend) && CpuSupports(backend);
}

Backend DetectBackend() {
  static const Backend detected = [] {
    Backend best = Backend::kScalar;
    for (const Backend b : AllBackends()) {
      if (BackendAvailable(b)) best = b;
    }
    return best;
  }();
  return detected;
}

Backend ActiveBackend() {
  return ActiveSlot().load(std::memory_order_relaxed);
}

bool SetBackend(Backend backend) {
  if (!BackendAvailable(backend)) return false;
  ActiveSlot().store(backend, std::memory_order_relaxed);
  return true;
}

std::optional<Backend> ParseBackend(std::string_view name) {
  if (name == "scalar") return Backend::kScalar;
  if (name == "sse4.2" || name == "sse42") return Backend::kSse42;
  if (name == "avx2") return Backend::kAvx2;
  if (name == "avx512") return Backend::kAvx512;
  if (name == "auto") return DetectBackend();
  return std::nullopt;
}

}  // namespace crmc::simd
