// Always-on invariant checking for the crmc library.
//
// CRMC_CHECK is used for internal invariants whose violation indicates a bug
// in the library itself; it aborts with a diagnostic. CRMC_REQUIRE is used to
// validate caller-supplied arguments at API boundaries and throws
// std::invalid_argument so callers can recover. CRMC_PROTO_CHECK and
// CRMC_STEP_CHECK guard a protocol's model assumptions: the first throws,
// the second returns the breach as a result (see AssumptionBreach).
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <stdexcept>
#include <string>

namespace crmc::support {

[[noreturn]] inline void CheckFailed(const char* expr, const char* file,
                                     int line, const std::string& detail) {
  std::fprintf(stderr, "CRMC_CHECK failed: %s at %s:%d %s\n", expr, file, line,
               detail.c_str());
  std::fflush(stderr);
  std::abort();
}

[[noreturn]] inline void RequireFailed(const char* expr, const char* file,
                                       int line, const std::string& detail) {
  std::ostringstream os;
  os << "precondition violated: " << expr << " at " << file << ":" << line;
  if (!detail.empty()) os << " (" << detail << ")";
  throw std::invalid_argument(os.str());
}

// A protocol model assumption found broken: channel feedback that is
// impossible under the protocol's assumed model (e.g. a strong-CD algorithm
// run on a receiver-only-CD network, or a jam that split two nodes' view of
// one round). It names the failing check by its source text, file and line,
// plus an optional note, all static strings, so reporting one neither
// formats nor allocates. `note` may hold one "%lld", filled from `value`
// when the breach is raised as an exception. An empty breach (expr ==
// nullptr) means every check held.
struct AssumptionBreach {
  const char* expr = nullptr;
  const char* file = nullptr;
  int line = 0;
  const char* note = nullptr;
  std::int64_t value = 0;
  // Set when the breach was caught as a thrown ProtocolAssumptionViolation
  // (a coroutine protocol's CRMC_PROTO_CHECK): ThrowBreach rethrows that
  // exception unchanged. The pointee is owned by whoever caught it.
  const std::exception_ptr* thrown = nullptr;

  explicit operator bool() const { return expr != nullptr; }
};

// Thrown by CRMC_PROTO_CHECK, and by ThrowBreach for a breach reported as a
// result. Recoverable — it aborts the run, not the process. where() is the
// breach it reports (without the formatted detail, which only what() has).
class ProtocolAssumptionViolation : public std::logic_error {
 public:
  ProtocolAssumptionViolation(const std::string& what, AssumptionBreach where)
      : std::logic_error(what), where_(where) {}

  const AssumptionBreach& where() const { return where_; }

 private:
  AssumptionBreach where_;
};

[[noreturn]] inline void ProtoCheckFailed(const char* expr, const char* file,
                                          int line,
                                          const std::string& detail) {
  std::ostringstream os;
  os << "protocol model assumption violated: " << expr << " at " << file
     << ":" << line;
  if (!detail.empty()) os << " (" << detail << ")";
  throw ProtocolAssumptionViolation(os.str(),
                                    AssumptionBreach{expr, file, line});
}

// Raises a breach reported as a result: the same ProtocolAssumptionViolation
// and message CRMC_PROTO_CHECK throws at the check itself.
[[noreturn]] inline void ThrowBreach(const AssumptionBreach& breach) {
  if (breach.thrown != nullptr) std::rethrow_exception(*breach.thrown);
  std::string detail;
  if (breach.note != nullptr) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), breach.note,
                  static_cast<long long>(breach.value));
    detail = buf;
  }
  ProtoCheckFailed(breach.expr, breach.file, breach.line, detail);
}

}  // namespace crmc::support

#define CRMC_CHECK(expr)                                                 \
  do {                                                                   \
    if (!(expr)) {                                                       \
      ::crmc::support::CheckFailed(#expr, __FILE__, __LINE__, "");       \
    }                                                                    \
  } while (false)

#define CRMC_CHECK_MSG(expr, msg)                                        \
  do {                                                                   \
    if (!(expr)) {                                                       \
      std::ostringstream crmc_check_os;                                  \
      crmc_check_os << msg;                                              \
      ::crmc::support::CheckFailed(#expr, __FILE__, __LINE__,            \
                                   crmc_check_os.str());                 \
    }                                                                    \
  } while (false)

#define CRMC_PROTO_CHECK(expr)                                           \
  do {                                                                   \
    if (!(expr)) {                                                       \
      ::crmc::support::ProtoCheckFailed(#expr, __FILE__, __LINE__, "");  \
    }                                                                    \
  } while (false)

#define CRMC_PROTO_CHECK_MSG(expr, msg)                                  \
  do {                                                                   \
    if (!(expr)) {                                                       \
      std::ostringstream crmc_proto_os;                                  \
      crmc_proto_os << msg;                                              \
      ::crmc::support::ProtoCheckFailed(#expr, __FILE__, __LINE__,       \
                                        crmc_proto_os.str());            \
    }                                                                    \
  } while (false)

// CRMC_PROTO_CHECK for code that reports breaches as a result
// (sim::StepProgram::Advance): returns the AssumptionBreach from the
// enclosing function instead of throwing. `note` is a string literal; the
// _VALUE form fills a "%lld" in it with `value`.
#define CRMC_STEP_CHECK_VALUE(expr, note, value)                         \
  do {                                                                   \
    if (!(expr)) {                                                       \
      return ::crmc::support::AssumptionBreach{                          \
          #expr, __FILE__, __LINE__, note,                               \
          static_cast<std::int64_t>(value), nullptr};                    \
    }                                                                    \
  } while (false)

#define CRMC_STEP_CHECK_MSG(expr, note) CRMC_STEP_CHECK_VALUE(expr, note, 0)

#define CRMC_STEP_CHECK(expr) CRMC_STEP_CHECK_VALUE(expr, nullptr, 0)

#define CRMC_REQUIRE(expr)                                               \
  do {                                                                   \
    if (!(expr)) {                                                       \
      ::crmc::support::RequireFailed(#expr, __FILE__, __LINE__, "");     \
    }                                                                    \
  } while (false)

#define CRMC_REQUIRE_MSG(expr, msg)                                      \
  do {                                                                   \
    if (!(expr)) {                                                       \
      std::ostringstream crmc_req_os;                                    \
      crmc_req_os << msg;                                                \
      ::crmc::support::RequireFailed(#expr, __FILE__, __LINE__,          \
                                     crmc_req_os.str());                 \
    }                                                                    \
  } while (false)
