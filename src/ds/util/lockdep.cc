#include "ds/util/lockdep.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>  // NOLINT(ds-lint): lockdep instruments ds::util::Mutex, so its own graph lock must be the raw primitive

#if defined(__GLIBC__)
#include <execinfo.h>
#define DS_LOCKDEP_HAS_BACKTRACE 1
#endif

namespace ds::util::lockdep {

namespace {

constexpr size_t kMaxClasses = kNumLockRanks;
constexpr int kMaxHeld = 16;     // deepest legal nesting is 3 today
constexpr int kMaxFrames = 16;   // captured acquisition stack depth

struct HeldLock {
  const LockRankEntry* cls = nullptr;
  int num_frames = 0;
  void* frames[kMaxFrames];
};

// The per-thread held-lock stack. Fixed-size: lockdep must not allocate on
// the lock path (it runs inside DS_NO_ALLOC-adjacent code and under TSan).
thread_local HeldLock t_held[kMaxHeld];
thread_local int t_num_held = 0;

// Acquired-after edge counts, indexed by LockRankIndex. Relaxed atomics:
// the counts are statistics; the first-observation stacks below are the
// evidence and take the report mutex.
std::atomic<uint64_t> g_edge_count[kMaxClasses][kMaxClasses];

struct EdgeStacks {
  bool recorded = false;
  int num_from = 0;
  int num_to = 0;
  void* from_frames[kMaxFrames];
  void* to_frames[kMaxFrames];
};

// First-observation stacks per edge, plus all violation reporting, are
// serialized by g_report_mu. It is a leaf-of-leaves: lockdep never holds it
// while touching any instrumented mutex.
std::mutex g_report_mu;  // NOLINT(ds-lint): see file comment on the include
EdgeStacks g_edge_stacks[kMaxClasses][kMaxClasses];

std::atomic<uint64_t> g_violations{0};
std::atomic<bool> g_abort_on_violation{true};

int CaptureStack(void** frames, int max_frames) {
#if DS_LOCKDEP_HAS_BACKTRACE
  return backtrace(frames, max_frames);
#else
  (void)frames;
  (void)max_frames;
  return 0;
#endif
}

void PrintStack(const char* label, void* const* frames, int num_frames) {
  std::fprintf(stderr, "  %s\n", label);
#if DS_LOCKDEP_HAS_BACKTRACE
  if (num_frames > 0) {
    backtrace_symbols_fd(const_cast<void* const*>(frames), num_frames, 2);
    return;
  }
#endif
  (void)frames;
  std::fprintf(stderr, "    <no stack captured (frames=%d)>\n", num_frames);
}

/// DFS over the edge-count matrix: is `to` reachable from `from`?
bool Reachable(size_t from, size_t to, bool visited[kMaxClasses]) {
  if (from == to) return true;
  visited[from] = true;
  for (size_t next = 0; next < kMaxClasses; ++next) {
    if (visited[next]) continue;
    if (g_edge_count[from][next].load(std::memory_order_relaxed) == 0)
      continue;
    if (Reachable(next, to, visited)) return true;
  }
  return false;
}

void ReportViolation(const char* kind, const HeldLock& held,
                     const LockRankEntry* acquiring,
                     void* const* cur_frames, int cur_num_frames) {
  g_violations.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> guard(g_report_mu);  // NOLINT(ds-lint): raw primitive, see file comment
    std::fprintf(stderr,
                 "\n=== ds lockdep: %s ===\n"
                 "acquiring '%s' (rank %d, %s)\n"
                 "  while holding '%s' (rank %d, %s)\n"
                 "lock order manifest: src/ds/util/lock_order.h\n",
                 kind, acquiring->name, acquiring->rank, acquiring->holder,
                 held.cls->name, held.cls->rank, held.cls->holder);
    PrintStack("stack of the acquisition being attempted:", cur_frames,
               cur_num_frames);
    PrintStack("stack that acquired the held lock:", held.frames,
               held.num_frames);
    const size_t hi = LockRankIndex(held.cls);
    const size_t ci = LockRankIndex(acquiring);
    // The reverse edge (acquiring -> held) is what makes this an ABBA: show
    // where it was first established, if it ever was.
    const EdgeStacks& reverse = g_edge_stacks[ci][hi];
    if (reverse.recorded) {
      std::fprintf(stderr,
                   "the opposite order ('%s' before '%s') was first "
                   "observed here:\n",
                   acquiring->name, held.cls->name);
      PrintStack("  held-side stack:", reverse.from_frames,
                 reverse.num_from);
      PrintStack("  acquire-side stack:", reverse.to_frames, reverse.num_to);
    }
    std::fflush(stderr);
  }
  if (g_abort_on_violation.load(std::memory_order_relaxed)) {
    std::abort();
  }
}

bool DefaultEnabled() {
  bool enabled = false;
#if !defined(NDEBUG)
  enabled = true;
#endif
#if defined(__SANITIZE_THREAD__)
  enabled = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  enabled = true;
#endif
#endif
  const char* env = std::getenv("DS_LOCKDEP");
  if (env != nullptr && env[0] != '\0') {
    enabled = !(env[0] == '0' && env[1] == '\0');
  }
  return enabled;
}

}  // namespace

namespace internal {

std::atomic<bool> g_enabled{DefaultEnabled()};

void AcquireSlow(const LockRankEntry* cls, bool try_lock) {
  const size_t ci = LockRankIndex(cls);
  void* cur_frames[kMaxFrames];
  const int cur_num_frames = CaptureStack(cur_frames, kMaxFrames);

  for (int i = 0; i < t_num_held; ++i) {
    const HeldLock& held = t_held[i];
    const size_t hi = LockRankIndex(held.cls);
    const bool new_edge =
        g_edge_count[hi][ci].fetch_add(1, std::memory_order_relaxed) == 0;
    if (new_edge) {
      std::lock_guard<std::mutex> guard(g_report_mu);  // NOLINT(ds-lint): raw primitive, see file comment
      EdgeStacks& stacks = g_edge_stacks[hi][ci];
      if (!stacks.recorded) {
        stacks.recorded = true;
        stacks.num_from = held.num_frames;
        std::memcpy(stacks.from_frames, held.frames,
                    sizeof(void*) * static_cast<size_t>(held.num_frames));
        stacks.num_to = cur_num_frames;
        std::memcpy(stacks.to_frames, cur_frames,
                    sizeof(void*) * static_cast<size_t>(cur_num_frames));
      }
    }
    if (try_lock) continue;  // a successful trylock cannot deadlock
    if (cls->rank <= held.cls->rank) {
      ReportViolation("rank inversion (lock order violation)", held, cls,
                      cur_frames, cur_num_frames);
      continue;  // count-and-continue mode keeps going
    }
    if (new_edge) {
      // Ranks are a total order, so a rank-clean NEW edge can only close a
      // cycle through same-rank classes or stale edges; check anyway — the
      // graph is tiny and this branch runs once per distinct edge.
      bool visited[kMaxClasses] = {};
      if (Reachable(ci, hi, visited)) {
        ReportViolation("acquired-after cycle (potential deadlock)", held,
                        cls, cur_frames, cur_num_frames);
      }
    }
  }

  if (t_num_held < kMaxHeld) {
    HeldLock& slot = t_held[t_num_held];
    slot.cls = cls;
    slot.num_frames = cur_num_frames;
    std::memcpy(slot.frames, cur_frames,
                sizeof(void*) * static_cast<size_t>(cur_num_frames));
  }
  // Past kMaxHeld the depth is still tracked so releases rebalance, but the
  // overflowed entries carry no class (16-deep nesting would itself be a
  // finding worth hand-examining).
  ++t_num_held;
}

void ReleaseSlow(const LockRankEntry* cls) {
  // Releases may be out of LIFO order (MutexLock::Unlock mid-scope while an
  // outer lock stays held): remove the newest matching entry.
  for (int i = t_num_held - 1; i >= 0; --i) {
    if (i < kMaxHeld && t_held[i].cls == cls) {
      for (int j = i; j + 1 < t_num_held && j + 1 < kMaxHeld; ++j) {
        t_held[j] = t_held[j + 1];
      }
      --t_num_held;
      return;
    }
  }
  // No matching held entry: the lock was acquired while lockdep was
  // disarmed (or overflowed past kMaxHeld). Keep the depth sane.
  if (t_num_held > kMaxHeld) --t_num_held;
}

}  // namespace internal

bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

void SetEnabled(bool enabled) {
  internal::g_enabled.store(enabled, std::memory_order_relaxed);
}

void SetAbortOnViolation(bool abort_on_violation) {
  g_abort_on_violation.store(abort_on_violation, std::memory_order_relaxed);
}

uint64_t ViolationCount() {
  return g_violations.load(std::memory_order_relaxed);
}

uint64_t EdgeCount(LockRank from, LockRank to) {
  return g_edge_count[LockRankIndex(LockRankInfo(from))]
                     [LockRankIndex(LockRankInfo(to))]
                         .load(std::memory_order_relaxed);
}

void ResetForTest() {
  std::lock_guard<std::mutex> guard(g_report_mu);  // NOLINT(ds-lint): raw primitive, see file comment
  for (size_t i = 0; i < kMaxClasses; ++i) {
    for (size_t j = 0; j < kMaxClasses; ++j) {
      g_edge_count[i][j].store(0, std::memory_order_relaxed);
      g_edge_stacks[i][j] = EdgeStacks{};
    }
  }
  g_violations.store(0, std::memory_order_relaxed);
}

}  // namespace ds::util::lockdep
