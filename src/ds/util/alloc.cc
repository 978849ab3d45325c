#include "ds/util/alloc.h"

#include <cstdlib>
#include <new>

// Sanitizer runtimes interpose malloc/operator new; replacing the global
// operators underneath them breaks their bookkeeping, so counting is
// compiled out under ASan/TSan/MSan.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DS_ALLOC_COUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define DS_ALLOC_COUNTING 0
#endif
#endif
#ifndef DS_ALLOC_COUNTING
#define DS_ALLOC_COUNTING 1
#endif

namespace {

// Constant-initialized, so operator new can bump it on any thread at any
// time, before or during static initialization, without a TLS guard.
thread_local uint64_t t_alloc_count = 0;

#if DS_ALLOC_COUNTING
void* CountedAlloc(std::size_t size) {
  ++t_alloc_count;
  // malloc(0) may return nullptr legitimately; operator new must not.
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
#endif

}  // namespace

namespace ds::util {

bool AllocCountingAvailable() { return DS_ALLOC_COUNTING != 0; }

uint64_t AllocCount() { return t_alloc_count; }

}  // namespace ds::util

#if DS_ALLOC_COUNTING

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++t_alloc_count;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // DS_ALLOC_COUNTING
