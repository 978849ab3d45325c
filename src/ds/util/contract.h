// Contract macros: machine-checked invariants for the hot paths.
//
// DS_CHECK (logging.h) stays the unconditional "state is corrupt, abort"
// assertion. This header adds *contracts* — declared pre/postconditions and
// invariants whose violation is reported through a configurable policy so a
// serving process can count-and-continue while tests turn violations into
// exceptions and CI turns them into aborts:
//
//   DS_REQUIRE(cond, fmt, ...)    precondition, always evaluated
//   DS_ENSURE(cond, fmt, ...)     postcondition, always evaluated
//   DS_INVARIANT(cond, fmt, ...)  internal state invariant, always evaluated
//   DS_DCHECK(cond, fmt, ...)     hot-path check; compiled out of plain
//                                 Release builds, active in Debug and in all
//                                 sanitizer builds (DS_SANITIZE=...)
//
// Every failed contract bumps a process-wide counter regardless of policy;
// the serving layer exports it as ds_contract_violations_total so a fleet
// can alert on contract pressure without scraping stderr. The failure
// message carries file:line, the failed expression, and a printf-formatted
// context string.
//
// DS_NO_ALLOC_BEGIN/END mark allocation-free regions. They are (1) scanned
// statically by tools/ds_lint.cc, which rejects allocation and
// container-growth calls inside the region (ResizeInPlace, the sanctioned
// warm-capacity grow-once API, is allowed), and (2) checked at runtime when
// armed via SetNoAllocEnforcement(true): leaving the region with a nonzero
// AllocCount() delta is a contract violation. Enforcement is off by default
// — warmup batches legitimately grow capacity, so tests arm it only around
// steady-state sections. The count is per thread: a region sees only its
// own thread's allocations.

#ifndef DS_UTIL_CONTRACT_H_
#define DS_UTIL_CONTRACT_H_

#include <cstdint>
#include <exception>

namespace ds::util {

enum class ContractKind : uint8_t {
  kRequire,
  kEnsure,
  kInvariant,
  kDcheck,
  kNoAlloc,
};

/// What a failed contract does after the counter is bumped and the message
/// is formatted.
enum class ContractPolicy : uint8_t {
  kAbort,  // print to stderr, abort() — the default (Google CHECK style)
  kThrow,  // throw ContractViolationError (tests, embedding hosts)
  kCount,  // print to stderr once per site burst, continue (resilient mode)
};

struct ContractViolation {
  ContractKind kind = ContractKind::kRequire;
  const char* file = "";
  int line = 0;
  const char* expression = "";
  const char* message = "";  // formatted context, "" when none
};

/// Thrown under ContractPolicy::kThrow.
class ContractViolationError : public std::exception {
 public:
  explicit ContractViolationError(const ContractViolation& v);
  const char* what() const noexcept override { return what_; }
  ContractKind kind() const { return kind_; }

 private:
  char what_[512];
  ContractKind kind_;
};

/// Violations observed since process start (bumped before any policy runs;
/// mirrored into the ds_contract_violations_total metric by the serving
/// layer's snapshot path).
uint64_t ContractViolationCount();

ContractPolicy GetContractPolicy();
/// Returns the previous policy. Thread-safe; affects the whole process.
ContractPolicy SetContractPolicy(ContractPolicy policy);

/// Optional hook invoked (after the counter bump, before the policy action)
/// for every violation; nullptr disables. Returns the previous handler.
using ContractObserver = void (*)(const ContractViolation&);
ContractObserver SetContractObserver(ContractObserver observer);

/// RAII guard that applies a policy for a scope (tests).
class ScopedContractPolicy {
 public:
  explicit ScopedContractPolicy(ContractPolicy policy)
      : previous_(SetContractPolicy(policy)) {}
  ~ScopedContractPolicy() { SetContractPolicy(previous_); }
  ScopedContractPolicy(const ScopedContractPolicy&) = delete;
  ScopedContractPolicy& operator=(const ScopedContractPolicy&) = delete;

 private:
  ContractPolicy previous_;
};

namespace internal {

/// Reports a failed contract: counts it, formats `fmt` (printf-style;
/// defaulted so the message-less DS_REQUIRE(cond) form compiles), then
/// applies the active policy. Returns only under kCount (or if a custom
/// observer swallowed a throw); callers must tolerate continuing with the
/// contract unsatisfied.
void ContractFailed(ContractKind kind, const char* file, int line,
                    const char* expression, const char* fmt = nullptr, ...)
#if defined(__GNUC__) || defined(__clang__)
    __attribute__((format(printf, 5, 6)))
#endif
    ;

}  // namespace internal

// ---- Allocation-free regions ---------------------------------------------------

/// Global switch for runtime DS_NO_ALLOC enforcement (off by default).
bool NoAllocEnforcementEnabled();
/// Returns the previous value. Arm only around steady-state sections.
bool SetNoAllocEnforcement(bool enabled);

/// Scope guard behind DS_NO_ALLOC_BEGIN/END. When enforcement is armed and
/// allocation counting is available, a nonzero allocation delta over the
/// region raises a kNoAlloc contract violation.
class NoAllocRegion {
 public:
  NoAllocRegion(const char* file, int line);
  ~NoAllocRegion() {
    // Backstop for early returns. Under kThrow the violation would escape a
    // destructor, so it is swallowed here (the counter is still bumped);
    // normal flow closes the region explicitly via DS_NO_ALLOC_END.
    try {
      End();
    } catch (...) {
    }
  }
  NoAllocRegion(const NoAllocRegion&) = delete;
  NoAllocRegion& operator=(const NoAllocRegion&) = delete;

  /// Idempotent early close (DS_NO_ALLOC_END); the destructor is the
  /// backstop for early returns.
  void End();

 private:
  const char* file_;
  int line_;
  uint64_t start_count_ = 0;
  bool armed_ = false;
  bool ended_ = false;
};

}  // namespace ds::util

// DS_DCHECK is active in Debug builds and under any sanitizer; plain
// Release builds compile it to a no-op that still typechecks its arguments.
#if !defined(NDEBUG) || defined(DS_FORCE_DCHECKS) ||  \
    defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DS_DCHECK_ENABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
#define DS_DCHECK_ENABLED 1
#else
#define DS_DCHECK_ENABLED 0
#endif
#else
#define DS_DCHECK_ENABLED 0
#endif

#define DS_CONTRACT_IMPL__(kind, cond, ...)                                  \
  do {                                                                       \
    if (!(cond)) {                                                           \
      ::ds::util::internal::ContractFailed(::ds::util::ContractKind::kind,   \
                                           __FILE__, __LINE__, #cond,        \
                                           ##__VA_ARGS__);                   \
    }                                                                        \
  } while (false)

/// Precondition on arguments/caller state. Always evaluated.
#define DS_REQUIRE(cond, ...) DS_CONTRACT_IMPL__(kRequire, cond, ##__VA_ARGS__)

/// Postcondition on results/exit state. Always evaluated.
#define DS_ENSURE(cond, ...) DS_CONTRACT_IMPL__(kEnsure, cond, ##__VA_ARGS__)

/// Internal consistency invariant. Always evaluated.
#define DS_INVARIANT(cond, ...) \
  DS_CONTRACT_IMPL__(kInvariant, cond, ##__VA_ARGS__)

#if DS_DCHECK_ENABLED
#define DS_DCHECK(cond, ...) DS_CONTRACT_IMPL__(kDcheck, cond, ##__VA_ARGS__)
#else
#define DS_DCHECK(cond, ...)                  \
  do {                                        \
    if (false && !(cond)) {                   \
      /* arguments must stay well-formed */   \
    }                                         \
  } while (false)
#endif

/// Opens an allocation-free region (see file comment). Must be paired with
/// DS_NO_ALLOC_END in the same scope; the guard also closes on scope exit.
#define DS_NO_ALLOC_BEGIN() \
  ::ds::util::NoAllocRegion ds_no_alloc_region__(__FILE__, __LINE__)

/// Closes the region opened by DS_NO_ALLOC_BEGIN.
#define DS_NO_ALLOC_END() ds_no_alloc_region__.End()

#endif  // DS_UTIL_CONTRACT_H_
