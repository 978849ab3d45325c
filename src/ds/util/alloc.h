// Per-thread heap-allocation counting.
//
// alloc.cc replaces the global operator new/delete with forwarding versions
// that bump the calling thread's counter. The counter is a plain
// thread_local — cheap enough to leave on in Release builds — and powers the
// "zero allocations per steady-state batch" checks: tests and benches read
// AllocCount() before/after a hot-path call on the same thread, and the
// serving layer exports each worker's per-batch delta as a gauge. Other
// threads' allocations never land in such a delta.
//
// Under ASan/TSan/MSan the replacement is compiled out (the sanitizer
// runtimes interpose the allocator themselves); AllocCountingAvailable()
// reports whether real counts are being collected so callers can skip
// assertions instead of reading frozen zeros.

#ifndef DS_UTIL_ALLOC_H_
#define DS_UTIL_ALLOC_H_

#include <cstdint>

namespace ds::util {

/// True when operator new/delete are instrumented in this build.
bool AllocCountingAvailable();

/// Heap allocations (operator new calls) made so far by the calling thread.
uint64_t AllocCount();

}  // namespace ds::util

#endif  // DS_UTIL_ALLOC_H_
