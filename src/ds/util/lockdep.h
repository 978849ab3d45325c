// Runtime lockdep: dynamic verification of the lock order declared in
// ds/util/lock_order.h (the Linux-kernel-lockdep / absl-deadlock-detector
// idea, sized for this codebase's fixed, named lock universe).
//
// Every ds::util::Mutex acquisition and release calls the inline hooks
// below (every Mutex is ranked: its only constructor takes a LockRank).
// When armed, the checker maintains
//
//   - a per-thread stack of held locks (each with the stack trace captured
//     at its acquisition), and
//   - a global acquired-after graph over lock classes: an edge A -> B means
//     "some thread acquired B while holding A", with the pair of stack
//     traces that first established the edge.
//
// On each acquisition of B while A is held it checks, in order:
//   1. rank discipline: rank(B) must be strictly greater than rank(A) —
//      the manifest's total order (same rank = never held together, which
//      is how "shard locks are never nested" is expressed);
//   2. cycle freedom: adding A -> B must not close a cycle in the
//      acquired-after graph (catches ABBA even between same-rank classes
//      before any thread actually deadlocks — the edge is the evidence,
//      no unlucky interleaving required).
//
// A violation prints both acquisition stacks (the held lock's and the
// current one, plus the first-observation stacks of the conflicting edge)
// and aborts by default; SetAbortOnViolation(false) switches to
// count-and-continue for harnesses that want to keep going.
//
// Arming: default-on in debug (!NDEBUG) and ThreadSanitizer builds;
// overridable either way with DS_LOCKDEP=0|1 in the environment (the test
// suite sets DS_LOCKDEP=1 for every ctest, and ds_stress arms it
// explicitly). A disarmed checker costs one relaxed atomic load and a
// predictable branch per lock operation.

#ifndef DS_UTIL_LOCKDEP_H_
#define DS_UTIL_LOCKDEP_H_

#include <atomic>
#include <cstdint>

#include "ds/util/lock_order.h"

namespace ds::util::lockdep {

namespace internal {
/// Armed flag. Initialized from the build type and the DS_LOCKDEP
/// environment variable (see lockdep.cc); writable via SetEnabled.
extern std::atomic<bool> g_enabled;

void AcquireSlow(const LockRankEntry* cls, bool try_lock);
void ReleaseSlow(const LockRankEntry* cls);
}  // namespace internal

/// Whether the checker is currently armed.
bool Enabled();

/// Arms / disarms the checker process-wide. Threads already inside a
/// critical section keep their held stacks consistent (release of a lock
/// acquired while disarmed is a no-op).
void SetEnabled(bool enabled);

/// Abort (default) or count-and-continue on violation.
void SetAbortOnViolation(bool abort_on_violation);

/// Violations observed so far (only meaningful in count-and-continue mode;
/// in abort mode the first violation ends the process).
uint64_t ViolationCount();

/// How many acquisitions of `to` happened while the acquiring thread held
/// `from` (the observed acquired-after edge from -> to; 0 = never seen).
uint64_t EdgeCount(LockRank from, LockRank to);

/// Test hook: clears the global edge graph and the violation counter (the
/// calling thread must hold no locks).
void ResetForTest();

/// Hot-path hooks, called by Mutex/MutexLock (ds/util/thread_annotations.h)
/// with the mutex's manifest row. OnAcquire runs BEFORE the underlying lock
/// blocks, so an inversion that would deadlock is reported instead of
/// hanging.
inline void OnAcquire(const LockRankEntry* cls) {
  if (!internal::g_enabled.load(std::memory_order_relaxed)) return;
  internal::AcquireSlow(cls, /*try_lock=*/false);
}

/// Hook for a SUCCESSFUL TryLock: records the held lock and the graph edge
/// but never aborts — a trylock cannot deadlock, but the edge it proves is
/// still evidence for other threads' blocking acquisitions.
inline void OnTryAcquire(const LockRankEntry* cls) {
  if (!internal::g_enabled.load(std::memory_order_relaxed)) return;
  internal::AcquireSlow(cls, /*try_lock=*/true);
}

inline void OnRelease(const LockRankEntry* cls) {
  if (!internal::g_enabled.load(std::memory_order_relaxed)) return;
  internal::ReleaseSlow(cls);
}

}  // namespace ds::util::lockdep

#endif  // DS_UTIL_LOCKDEP_H_
