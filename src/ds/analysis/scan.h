// Lock-free parallel file scanning for ds_lint.
//
// Work is pre-partitioned round-robin across `jobs` threads and every
// thread writes only to indices it owns, so there is no shared mutable
// state and no locking — the linter stays out of the very business
// (mutex discipline) it exists to check. Results land in caller-owned
// per-index slots; merge order is the deterministic input order, so
// parallel and serial runs produce byte-identical reports.

#ifndef DS_ANALYSIS_SCAN_H_
#define DS_ANALYSIS_SCAN_H_

#include <algorithm>
#include <cstddef>
#include <thread>
#include <vector>

namespace ds::analysis {

/// Calls fn(i) once for every i in [0, count), spread over `jobs` threads
/// (round-robin by index). jobs <= 1 runs inline. `fn` must only touch
/// state owned by index i.
template <typename Fn>
void ParallelScan(size_t count, int jobs, Fn fn) {
  if (jobs <= 1 || count <= 1) {
    for (size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  const size_t workers =
      std::min(static_cast<size_t>(jobs), count);
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (size_t t = 0; t < workers; ++t) {
    threads.emplace_back([t, workers, count, &fn] {
      for (size_t i = t; i < count; i += workers) fn(i);
    });
  }
  for (std::thread& th : threads) th.join();
}

}  // namespace ds::analysis

#endif  // DS_ANALYSIS_SCAN_H_
