// Serving metrics, built on the ds::obs metric registry.
//
// PR 1's bespoke metrics structs are migrated onto obs: Counter/Histogram
// here are aliases of the obs instruments, and ServerMetrics holds
// references into an obs::Registry (names follow the Prometheus
// conventions documented in README.md) so the same counters the server
// bumps on its hot path are scraped via obs exposition — no second
// bookkeeping path. MetricsSnapshot remains the benchmark's and tests'
// plain value view.

#ifndef DS_SERVE_METRICS_H_
#define DS_SERVE_METRICS_H_

#include <cstdint>

#include "ds/obs/metrics.h"

namespace ds::serve {

/// Outcome of offering a request to the serving layer. Everything except
/// kOk is a rejection: the request never entered the queue, its future (or
/// callback) resolves immediately with an error, and the per-reason
/// ds_serve_rejected_total{reason=...} counter is bumped.
enum class SubmitStatus : uint8_t {
  kOk = 0,
  kQueueFull = 1,     // backpressure: the shard's queue is at capacity
  kShedding = 2,      // admission control shed it (see net::NetServer)
  kShuttingDown = 3,  // Submit after Stop()
};

/// Stable lowercase name, used as the `reason` label value:
/// "ok", "queue_full", "shedding", "shutting_down".
const char* SubmitStatusName(SubmitStatus status);

using Counter = obs::Counter;
using Gauge = obs::Gauge;
using Histogram = obs::Histogram;
using HistogramSnapshot = obs::HistogramSnapshot;

/// Registry cache statistics (filled by SketchRegistry).
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t loads = 0;          // disk loads (successful)
  uint64_t load_failures = 0;  // disk loads that errored
  uint64_t evictions = 0;      // entries dropped by the byte budget
  uint64_t inserts = 0;
  uint64_t bytes_in_use = 0;   // serialized bytes of resident sketches
  uint64_t sketches_loaded = 0;
};

/// One coherent view of everything the server measures.
struct MetricsSnapshot {
  // Request accounting. Invariant once the queue is drained:
  //   submitted == completed + failed.
  uint64_t submitted = 0;    // accepted into the queue
  uint64_t rejected = 0;     // refused at Submit: sum of the reasons below
  uint64_t rejected_queue_full = 0;  // reason="queue_full"
  uint64_t rejected_shedding = 0;    // reason="shedding" (admission control)
  uint64_t rejected_shutdown = 0;    // reason="shutting_down"
  uint64_t completed = 0;    // promise resolved with a value
  uint64_t failed = 0;       // promise resolved with an error
  uint64_t bind_errors = 0;  // of `failed`: SQL that did not parse/bind
  uint64_t batches = 0;      // coalesced forward passes executed

  // Estimate cache (sketch+SQL -> cardinality); hits skip inference
  // entirely. hits + misses == requests that reached a worker with a
  // resolvable sketch.
  uint64_t result_cache_hits = 0;
  uint64_t result_cache_misses = 0;

  // Always 0: the server has no statement cache, so every estimate-cache
  // miss binds. Kept only because perfbench/src/main.cc reads both fields
  // for serve.stmt_cache_hit_ratio, and perfbench changes only together
  // with the benchmark definition.
  uint64_t stmt_cache_hits = 0;
  uint64_t stmt_cache_misses = 0;

  CacheStats cache;

  HistogramSnapshot queue_wait_us;  // Submit -> dequeued by a worker
  HistogramSnapshot infer_us;       // featurize + forward per batch
  HistogramSnapshot batch_size;     // requests per coalesced batch
};

/// The instruments the server writes on its hot path, registered in an
/// obs::Registry under the ds_serve_* names (see README.md). References
/// stay valid for the registry's lifetime; writes are lock-free.
struct ServerMetrics {
  explicit ServerMetrics(obs::Registry* registry);

  Counter& submitted;
  // One ds_serve_rejected_total series per rejection reason; Rejected()
  // maps a SubmitStatus to its counter.
  Counter& rejected_queue_full;
  Counter& rejected_shedding;
  Counter& rejected_shutdown;
  Counter& completed;
  Counter& failed;
  Counter& bind_errors;
  Counter& batches;
  Counter& result_cache_hits;
  Counter& result_cache_misses;
  Histogram& queue_wait_us;
  Histogram& infer_us;
  Histogram& batch_size;
  /// Heap allocations the worker thread made during its last EstimateMany
  /// batch (0 once the per-thread scratch is warm). The count is per
  /// thread, so other workers never land in it; with several workers the
  /// gauge shows whichever batch finished last.
  Gauge& batch_allocations;

  /// The rejection counter for `status` (which must not be kOk).
  Counter& Rejected(SubmitStatus status);

  /// `cache` comes from the registry the server fronts.
  MetricsSnapshot Snapshot(const CacheStats& cache) const;
};

/// Mirrors `cache` into gauges (ds_sketch_cache_*) on `registry`, so an
/// exposition snapshot carries the sketch cache's state alongside the
/// server counters. Called at snapshot/dump time, not on the hot path.
void ExportCacheStats(obs::Registry* registry, const CacheStats& cache);

}  // namespace ds::serve

#endif  // DS_SERVE_METRICS_H_
