#include "ds/serve/metrics.h"

namespace ds::serve {

const char* SubmitStatusName(SubmitStatus status) {
  switch (status) {
    case SubmitStatus::kOk:
      return "ok";
    case SubmitStatus::kQueueFull:
      return "queue_full";
    case SubmitStatus::kShedding:
      return "shedding";
    case SubmitStatus::kShuttingDown:
      return "shutting_down";
  }
  return "unknown";
}

namespace {

obs::Counter* RejectedCounter(obs::Registry* r, SubmitStatus status) {
  return r->GetCounter("ds_serve_rejected_total",
                       "Requests refused at Submit, by reason",
                       {{"reason", SubmitStatusName(status)}});
}

}  // namespace

ServerMetrics::ServerMetrics(obs::Registry* r)
    : submitted(*r->GetCounter("ds_serve_submitted_total",
                               "Requests accepted into the queue")),
      rejected_queue_full(*RejectedCounter(r, SubmitStatus::kQueueFull)),
      rejected_shedding(*RejectedCounter(r, SubmitStatus::kShedding)),
      rejected_shutdown(*RejectedCounter(r, SubmitStatus::kShuttingDown)),
      completed(*r->GetCounter("ds_serve_completed_total",
                               "Requests resolved with an estimate")),
      failed(*r->GetCounter("ds_serve_failed_total",
                            "Requests resolved with an error")),
      bind_errors(*r->GetCounter("ds_serve_bind_errors_total",
                                 "Failed requests whose SQL did not "
                                 "parse or bind")),
      batches(*r->GetCounter("ds_serve_batches_total",
                             "Coalesced forward passes executed")),
      result_cache_hits(*r->GetCounter("ds_serve_result_cache_hits_total",
                                       "Estimate-cache hits (skip "
                                       "inference)")),
      result_cache_misses(*r->GetCounter("ds_serve_result_cache_misses_total",
                                         "Estimate-cache misses")),
      queue_wait_us(*r->GetHistogram("ds_serve_queue_wait_us",
                                     "Microseconds from Submit to dequeue "
                                     "by a worker")),
      infer_us(*r->GetHistogram("ds_serve_infer_us",
                                "Microseconds of featurize + forward per "
                                "batch")),
      batch_size(*r->GetHistogram("ds_serve_batch_size",
                                  "Requests per coalesced batch")),
      batch_allocations(*r->GetGauge(
          "ds_serve_batch_allocations",
          "Heap allocations during the last EstimateMany batch")) {}

Counter& ServerMetrics::Rejected(SubmitStatus status) {
  switch (status) {
    case SubmitStatus::kQueueFull:
      return rejected_queue_full;
    case SubmitStatus::kShedding:
      return rejected_shedding;
    case SubmitStatus::kOk:  // not a rejection; fall through to shutdown to
    case SubmitStatus::kShuttingDown:  // keep the accounting total-preserving
      return rejected_shutdown;
  }
  return rejected_shutdown;
}

MetricsSnapshot ServerMetrics::Snapshot(const CacheStats& cache) const {
  MetricsSnapshot s;
  s.submitted = submitted.value();
  s.rejected_queue_full = rejected_queue_full.value();
  s.rejected_shedding = rejected_shedding.value();
  s.rejected_shutdown = rejected_shutdown.value();
  s.rejected =
      s.rejected_queue_full + s.rejected_shedding + s.rejected_shutdown;
  s.completed = completed.value();
  s.failed = failed.value();
  s.bind_errors = bind_errors.value();
  s.batches = batches.value();
  s.result_cache_hits = result_cache_hits.value();
  s.result_cache_misses = result_cache_misses.value();
  s.cache = cache;
  s.queue_wait_us = queue_wait_us.Snapshot();
  s.infer_us = infer_us.Snapshot();
  s.batch_size = batch_size.Snapshot();
  return s;
}

void ExportCacheStats(obs::Registry* registry, const CacheStats& cache) {
  auto set = [registry](const char* name, const char* help, uint64_t v) {
    registry->GetGauge(name, help)->Set(static_cast<double>(v));
  };
  set("ds_sketch_cache_hits", "Sketch-cache hits", cache.hits);
  set("ds_sketch_cache_misses", "Sketch-cache misses", cache.misses);
  set("ds_sketch_cache_loads", "Successful sketch disk loads", cache.loads);
  set("ds_sketch_cache_load_failures", "Errored sketch disk loads",
      cache.load_failures);
  set("ds_sketch_cache_evictions", "Sketches dropped by the byte budget",
      cache.evictions);
  set("ds_sketch_cache_inserts", "Sketches inserted", cache.inserts);
  set("ds_sketch_cache_bytes_in_use",
      "Serialized bytes of resident sketches", cache.bytes_in_use);
  set("ds_sketch_cache_resident", "Sketches currently resident",
      cache.sketches_loaded);
}

}  // namespace ds::serve
