// Clang thread-safety annotations and the annotated mutex wrapper.
//
// The serving/observability layers are heavily concurrent; every invariant
// of the form "member X is protected by mutex M" is declared with these
// macros so clang's -Wthread-safety analysis (wired into CMake for clang
// builds and enforced as an error in CI's lint job) proves lock discipline
// at compile time. Under GCC the annotations expand to nothing and the
// wrappers cost exactly what std::mutex/std::unique_lock cost.
//
// Project rule (enforced by tools/ds_lint.cc): library code under src/ never
// uses std::mutex / std::condition_variable / std::lock_guard directly —
// always ds::util::Mutex, MutexLock, and CondVar, so every lock site is
// visible to the analysis. A Mutex cannot be constructed without its rank
// in the lock-order manifest (ds/util/lock_order.h).
//
//   class Cache {
//     mutable ds::util::Mutex mu_{ds::util::LockRank::kObsRegistry};
//     std::map<...> entries_ DS_GUARDED_BY(mu_);
//     void EvictLocked() DS_REQUIRES(mu_);
//   };
//
// Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html

#ifndef DS_UTIL_THREAD_ANNOTATIONS_H_
#define DS_UTIL_THREAD_ANNOTATIONS_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "ds/util/lockdep.h"

#if defined(__clang__)
#define DS_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define DS_THREAD_ANNOTATION__(x)  // no-op outside clang
#endif

/// Declares a class to be a lockable capability ("mutex").
#define DS_CAPABILITY(x) DS_THREAD_ANNOTATION__(capability(x))

/// Declares an RAII class that acquires a capability at construction and
/// releases it at destruction.
#define DS_SCOPED_CAPABILITY DS_THREAD_ANNOTATION__(scoped_lockable)

/// Member is protected by the given capability.
#define DS_GUARDED_BY(x) DS_THREAD_ANNOTATION__(guarded_by(x))

/// Pointed-to data (not the pointer itself) is protected by the capability.
#define DS_PT_GUARDED_BY(x) DS_THREAD_ANNOTATION__(pt_guarded_by(x))

/// Function requires the listed capabilities to be held on entry.
#define DS_REQUIRES(...) \
  DS_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))

/// Function acquires the listed capabilities (held on return).
#define DS_ACQUIRE(...) \
  DS_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))

/// Function releases the listed capabilities.
#define DS_RELEASE(...) \
  DS_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))

/// Function may acquire the capability; the bool result says whether it did.
#define DS_TRY_ACQUIRE(...) \
  DS_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))

/// Caller must NOT hold the listed capabilities (deadlock / lock-order
/// documentation: e.g. the server's cache helpers exclude the queue mutex).
#define DS_EXCLUDES(...) DS_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/// Asserts (at analysis time) that the capability is held.
#define DS_ASSERT_CAPABILITY(x) \
  DS_THREAD_ANNOTATION__(assert_capability(x))

/// Function returns a reference to the given capability.
#define DS_RETURN_CAPABILITY(x) DS_THREAD_ANNOTATION__(lock_returned(x))

/// Escape hatch: function body is not analyzed. Use sparingly, with a
/// comment explaining why the analysis cannot see the invariant.
#define DS_NO_THREAD_SAFETY_ANALYSIS \
  DS_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace ds::util {

class CondVar;
class MutexLock;

/// std::mutex annotated as a clang capability. Prefer MutexLock over calling
/// Lock/Unlock manually.
///
/// Every mutex is ranked: the only constructor takes its LockRank from the
/// manifest in ds/util/lock_order.h, so no mutex can sit outside the
/// declared global acquisition order that the runtime lockdep
/// (ds/util/lockdep.h) checks every acquisition against.
class DS_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(LockRank rank) : class_(LockRankInfo(rank)) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() DS_ACQUIRE() {
    lockdep::OnAcquire(class_);
    mu_.lock();
  }
  void Unlock() DS_RELEASE() {
    lockdep::OnRelease(class_);
    mu_.unlock();
  }
  bool TryLock() DS_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    lockdep::OnTryAcquire(class_);
    return true;
  }

 private:
  friend class CondVar;
  friend class MutexLock;
  std::mutex mu_;
  const LockRankEntry* const class_;  // this mutex's manifest row
};

/// RAII lock on a ds::util::Mutex (the std::unique_lock analogue, visible to
/// the analysis). Supports the worker-loop pattern of temporarily dropping
/// the lock around a long operation via Unlock()/Lock().
class DS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) DS_ACQUIRE(mu)
      : mu_(&mu), lock_(LockdepAcquire(mu)) {}
  ~MutexLock() DS_RELEASE() {
    if (lock_.owns_lock()) lockdep::OnRelease(mu_->class_);
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Drops the lock mid-scope (e.g. to run a batch outside the queue lock).
  void Unlock() DS_RELEASE() {
    lockdep::OnRelease(mu_->class_);
    lock_.unlock();
  }

  /// Reacquires after Unlock().
  void Lock() DS_ACQUIRE() {
    lockdep::OnAcquire(mu_->class_);
    lock_.lock();
  }

 private:
  friend class CondVar;

  /// Runs the lockdep order check BEFORE blocking on the mutex, so an
  /// inversion that would deadlock reports instead of hanging.
  static std::mutex& LockdepAcquire(Mutex& mu) {
    lockdep::OnAcquire(mu.class_);
    return mu.mu_;
  }

  Mutex* mu_;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable paired with ds::util::Mutex via MutexLock. Wait*
/// atomically release and reacquire the lock; the thread-safety analysis
/// models the lock as continuously held across the wait, which matches the
/// caller-visible contract (guarded members may be touched before and
/// after).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

  void Wait(MutexLock& lock) { cv_.wait(lock.lock_); }

  template <typename Clock, typename Duration>
  std::cv_status WaitUntil(
      MutexLock& lock,
      const std::chrono::time_point<Clock, Duration>& deadline) {
    return cv_.wait_until(lock.lock_, deadline);
  }

  template <typename Rep, typename Period>
  std::cv_status WaitFor(MutexLock& lock,
                         const std::chrono::duration<Rep, Period>& timeout) {
    return cv_.wait_for(lock.lock_, timeout);
  }

 private:
  std::condition_variable cv_;
};

}  // namespace ds::util

#endif  // DS_UTIL_THREAD_ANNOTATIONS_H_
