#include "ds/serve/server.h"

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ds/nn/kernels.h"
#include "ds/obs/exposition.h"
#include "ds/sql/binder.h"
#include "ds/util/alloc.h"
#include "ds/util/contract.h"
#include "ds/util/cpu_topology.h"
#include "ds/workload/query_spec.h"

namespace ds::serve {

namespace {

uint64_t MicrosSince(std::chrono::steady_clock::time_point start) {
  const auto now = std::chrono::steady_clock::now();
  const auto us =
      std::chrono::duration_cast<std::chrono::microseconds>(now - start)
          .count();
  return us < 0 ? 0 : static_cast<uint64_t>(us);
}

/// A time_point on the SpanRecord time base (steady-clock microseconds).
int64_t ToTraceUs(std::chrono::steady_clock::time_point tp) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             tp.time_since_epoch())
      .count();
}

/// Per-worker-thread ServeBatch state. Every member keeps its capacity
/// across batches; `specs` only grows, and a batch uses its first slots.
struct BatchScratch {
  sql::BoundQuery bound;                   // one statement's bind target
  std::vector<workload::QuerySpec> specs;  // bound statements of the batch
  std::vector<size_t> spec_owner;          // index into the batch per spec
  std::vector<std::string> keys;           // cache key per request
  std::vector<int64_t> bind_us;            // per-request bind stage
  std::vector<Result<double>> results;     // per spec
};

BatchScratch& LocalBatchScratch() {
  static thread_local BatchScratch scratch;
  return scratch;
}

}  // namespace

SketchServer::SketchServer(SketchRegistry* registry, ServerOptions options)
    : registry_(registry),
      options_(options),
      owned_registry_(options.metrics_registry == nullptr
                          ? std::make_unique<obs::Registry>()
                          : nullptr),
      obs_registry_(options.metrics_registry != nullptr
                        ? options.metrics_registry
                        : owned_registry_.get()),
      owned_tracer_(options.tracer == nullptr && options.trace_sample_every > 0
                        ? std::make_unique<obs::TraceRecorder>(
                              obs::TraceRecorder::Options{
                                  4096, options.trace_sample_every})
                        : nullptr),
      tracer_(options.tracer != nullptr ? options.tracer
                                        : owned_tracer_.get()),
      owned_flight_(options.flight_recorder == nullptr
                        ? std::make_unique<obs::FlightRecorder>()
                        : nullptr),
      flight_(options.flight_recorder != nullptr ? options.flight_recorder
                                                 : owned_flight_.get()),
      metrics_(obs_registry_) {
  options_.num_workers = std::max<size_t>(options_.num_workers, 1);
  options_.max_batch = std::max<size_t>(options_.max_batch, 1);
  options_.queue_capacity = std::max<size_t>(options_.queue_capacity, 1);
  options_.num_queue_shards = std::clamp<size_t>(options_.num_queue_shards, 1,
                                                 options_.num_workers);
  if (options_.tracer != nullptr && options_.trace_sample_every > 0) {
    tracer_->set_sample_every(options_.trace_sample_every);
  }
  shards_.reserve(options_.num_queue_shards);
  for (size_t i = 0; i < options_.num_queue_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  shard_capacity_ =
      std::max<size_t>(options_.queue_capacity / shards_.size(), 1);
  std::vector<int> worker_cpus;
  if (options_.pin_workers) {
    worker_cpus =
        util::PlanWorkerCpus(util::DetectCpuTopology(), options_.num_workers);
  }
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    // Workers are distributed round-robin over the shards; with the default
    // single shard every worker drains the one queue, exactly the
    // pre-sharding behavior.
    Shard* shard = shards_[i % shards_.size()].get();
    const int cpu = options_.pin_workers ? worker_cpus[i] : -1;
    workers_.emplace_back([this, shard, cpu] {
      // Pin before the first batch: the thread-local estimate scratch (and
      // its arena pages) is first-touched during the first ServeBatch, and
      // first-touch decides its NUMA placement. Pinning is best-effort.
      if (cpu >= 0) (void)util::PinCurrentThreadToCpu(cpu);
      WorkerLoop(shard);
    });
  }
}

SketchServer::~SketchServer() { Stop(); }

obs::RegistrySnapshot SketchServer::ObsSnapshot() const {
  ExportCacheStats(obs_registry_, registry_->stats());
  // Mirror the NN kernel counters (process-wide) into gauges so an
  // exposition snapshot shows how inference work is being executed.
  const nn::KernelStats& k = nn::GlobalKernelStats();
  auto set = [this](const char* name, const char* help, double v) {
    obs_registry_->GetGauge(name, help)->Set(v);
  };
  set("ds_nn_kernels_vectorized",
      "1 when the AVX2 intrinsic kernel path is compiled in",
      nn::KernelsVectorized() ? 1.0 : 0.0);
  set("ds_nn_kernel_dense_calls", "Dense matmul kernel invocations",
      static_cast<double>(k.dense_calls.load(std::memory_order_relaxed)));
  set("ds_nn_kernel_fused_calls", "Fused linear+bias(+ReLU) invocations",
      static_cast<double>(k.fused_calls.load(std::memory_order_relaxed)));
  set("ds_nn_kernel_sparse_calls", "Sparse linear kernel invocations",
      static_cast<double>(k.sparse_calls.load(std::memory_order_relaxed)));
  set("ds_nn_kernel_flops", "Multiply-accumulate flops issued by kernels",
      static_cast<double>(k.flops.load(std::memory_order_relaxed)));
  set("ds_nn_kernel_bytes", "Operand and result bytes touched by kernels",
      static_cast<double>(k.bytes.load(std::memory_order_relaxed)));
  // Mirror the process-wide contract counter (ds/util/contract.h) into the
  // registry by adding the delta since the last snapshot, so fleets can
  // alert on contract pressure under the count-and-continue policy.
  obs::Counter* violations = obs_registry_->GetCounter(
      "ds_contract_violations_total",
      "DS_REQUIRE/DS_ENSURE/DS_INVARIANT violations since process start");
  const uint64_t total = util::ContractViolationCount();
  const uint64_t exported = violations->value();
  if (total > exported) violations->Add(total - exported);
  return obs_registry_->Snapshot();
}

std::string SketchServer::MetricsJson() const {
  return obs::ToJson(ObsSnapshot());
}

void SketchServer::ApplyContext(Request* req, const RequestContext& ctx) {
  req->received_us = ctx.received_us;
  req->tenant = ctx.tenant;
  // Adopting a wire trace needs a recorder to write the spans into; with
  // no tracer configured the context is dropped (the client still has its
  // own spans), never half-recorded.
  if (ctx.trace.sampled() && tracer_ != nullptr) {
    req->trace_id = ctx.trace.trace_id;
    req->parent_span = ctx.trace.parent_span;
  }
  MaybeTrace(req);
}

void SketchServer::MaybeTrace(Request* req) {
  if (tracer_ == nullptr) return;
  if (req->trace_id == 0) req->trace_id = tracer_->StartTrace();
  if (req->trace_id != 0) req->root_span = tracer_->NextSpanId();
}

void SketchServer::FinishTrace(const Request& req) {
  if (req.trace_id == 0) return;
  // The root span is recorded with its pre-allocated id so the children
  // recorded earlier (queue_wait, parse, ...) already point at it. A
  // wire-adopted request nests under the transport's span instead of being
  // the trace root.
  obs::SpanRecord record;
  record.trace_id = req.trace_id;
  record.span_id = req.root_span;
  record.parent_id = req.parent_span;
  record.start_us = ToTraceUs(req.enqueue_time);
  record.duration_us = obs::TraceRecorder::NowUs() - record.start_us;
  record.SetName("estimate");
  tracer_->Record(record);
}

void SketchServer::RecordFlight(const Request& req, double estimate,
                                uint8_t status_code, int64_t queue_us,
                                int64_t bind_us, int64_t infer_us) {
  obs::FlightRecord r;
  r.trace_id = req.trace_id;
  r.sql_digest = obs::FlightRecorder::DigestSql(req.sql);
  // The request's clock starts when the transport read its bytes (wire
  // requests) or at Submit (local ones).
  const int64_t enqueue_us = ToTraceUs(req.enqueue_time);
  r.start_us = req.received_us != 0 ? req.received_us : enqueue_us;
  r.total_us = obs::TraceRecorder::NowUs() - r.start_us;
  r.stage_us[obs::kStagePre] =
      req.received_us != 0 ? enqueue_us - req.received_us : 0;
  r.stage_us[obs::kStageQueue] = queue_us;
  r.stage_us[obs::kStageBind] = bind_us;
  // The batched forward pass's wall time is attributed to every member of
  // the batch: it is the latency each of them experienced.
  r.stage_us[obs::kStageInfer] = infer_us;
  r.estimate = estimate;
  r.status = status_code;
  r.SetTenant(req.tenant);
  r.SetSketch(req.sketch);
  flight_->Record(r);
}

SketchServer::Shard* SketchServer::PickShard(std::optional<size_t> hint) {
  if (hint.has_value()) return shards_[*hint % shards_.size()].get();
  return shards_[next_shard_.fetch_add(1, std::memory_order_relaxed) %
                 shards_.size()]
      .get();
}

SubmitStatus SketchServer::TryEnqueueLocked(Shard* shard, Request* req) {
  if (shard->stopping) return SubmitStatus::kShuttingDown;
  if (shard->queue.size() >= shard_capacity_) return SubmitStatus::kQueueFull;
  shard->queue.push_back(std::move(*req));
  metrics_.submitted.Add();
  // Backpressure state machine: the capacity check above must keep each
  // shard bounded — a violation here means rejection logic regressed.
  DS_INVARIANT(shard->queue.size() <= shard_capacity_,
               "shard queue grew to %zu past capacity %zu",
               shard->queue.size(), shard_capacity_);
  return SubmitStatus::kOk;
}

void SketchServer::ResolveRequest(Request* req, Result<double> result) {
  if (req->callback) {
    (*req->callback)(req->index, std::move(result));
  } else {
    req->promise.set_value(std::move(result));
  }
}

void SketchServer::RejectRequest(Request* req, SubmitStatus status) {
  metrics_.Rejected(status).Add();
  Status error =
      status == SubmitStatus::kShuttingDown
          ? Status::OutOfRange("server is stopped")
          : Status::OutOfRange("serve queue is full (" +
                               std::to_string(shard_capacity_) + " pending)");
  // Callback submissions are answered by the caller from the returned
  // SubmitStatus; only the future path needs its promise resolved.
  if (!req->callback) req->promise.set_value(std::move(error));
}

std::vector<SubmitStatus> SketchServer::EnqueueGroup(
    std::vector<Request>* group, std::optional<size_t> shard_hint,
    const RequestContext& ctx) {
  const auto now = std::chrono::steady_clock::now();
  for (Request& req : *group) {
    req.enqueue_time = now;
    ApplyContext(&req, ctx);
  }
  std::vector<SubmitStatus> statuses(group->size());
  Shard* shard = PickShard(shard_hint);
  bool wake = false;
  {
    util::MutexLock lock(shard->mu);
    // Waking a worker costs a futex syscall; it is only needed on the
    // empty -> non-empty transition (a non-empty queue means a worker was
    // already woken for it and will sweep these requests up too).
    const bool was_empty = shard->queue.empty();
    for (size_t i = 0; i < group->size(); ++i) {
      statuses[i] = TryEnqueueLocked(shard, &(*group)[i]);
      wake = wake || (statuses[i] == SubmitStatus::kOk && was_empty);
    }
  }
  if (wake) shard->cv.NotifyOne();
  for (size_t i = 0; i < group->size(); ++i) {
    if (statuses[i] != SubmitStatus::kOk) {
      RejectRequest(&(*group)[i], statuses[i]);
    }
  }
  return statuses;
}

Submission SketchServer::Submit(std::string sketch_name, std::string sql,
                                RequestContext ctx) {
  std::vector<std::string> sqls(1);
  sqls[0] = std::move(sql);
  return std::move(SubmitMany(sketch_name, std::move(sqls), ctx).front());
}

std::vector<Submission> SketchServer::SubmitMany(
    const std::string& sketch_name, std::vector<std::string> sqls,
    RequestContext ctx) {
  std::vector<Request> group(sqls.size());
  std::vector<Submission> submissions(sqls.size());
  for (size_t i = 0; i < sqls.size(); ++i) {
    group[i].sketch = sketch_name;
    group[i].sql = std::move(sqls[i]);
    submissions[i].future = group[i].promise.get_future();
  }
  const std::vector<SubmitStatus> statuses =
      EnqueueGroup(&group, std::nullopt, ctx);
  for (size_t i = 0; i < statuses.size(); ++i) {
    submissions[i].status = statuses[i];
  }
  return submissions;
}

std::vector<SubmitStatus> SketchServer::SubmitManyAsync(
    const std::string& sketch_name, std::vector<std::string> sqls,
    EstimateCallback callback, std::optional<size_t> shard_hint,
    RequestContext ctx) {
  DS_REQUIRE(static_cast<bool>(callback),
             "SubmitManyAsync requires a completion callback");
  const auto shared =
      std::make_shared<const EstimateCallback>(std::move(callback));
  std::vector<Request> group(sqls.size());
  for (size_t i = 0; i < sqls.size(); ++i) {
    group[i].sketch = sketch_name;
    group[i].sql = std::move(sqls[i]);
    group[i].callback = shared;
    group[i].index = i;
  }
  return EnqueueGroup(&group, shard_hint, ctx);
}

void SketchServer::Stop() {
  // stop_mu_ serializes shutdown: without it two concurrent Stop() calls
  // (or Stop() racing the destructor) would race on workers_ and could
  // join the same std::thread twice. The losing caller blocks here until
  // the winner has fully joined, so Stop() returning always means the
  // workers are gone.
  util::MutexLock stop_lock(stop_mu_);
  for (auto& shard : shards_) {
    {
      util::MutexLock lock(shard->mu);
      shard->stopping = true;
    }
    shard->cv.NotifyAll();
  }
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
}

void SketchServer::TakeMatchingLocked(Shard* shard, const std::string& sketch,
                                      std::vector<Request>* batch) {
  for (auto it = shard->queue.begin();
       it != shard->queue.end() && batch->size() < options_.max_batch;) {
    if (it->sketch == sketch) {
      batch->push_back(std::move(*it));
      it = shard->queue.erase(it);
    } else {
      ++it;
    }
  }
}

void SketchServer::WorkerLoop(Shard* shard) {
  util::MutexLock lock(shard->mu);
  while (true) {
    // Explicit wait loop: the thread-safety analysis cannot see through a
    // predicate lambda passed to a wait overload.
    while (!shard->stopping && shard->queue.empty()) shard->cv.Wait(lock);
    if (shard->queue.empty()) {
      if (shard->stopping) return;
      continue;
    }
    std::vector<Request> batch;
    batch.reserve(options_.max_batch);
    batch.push_back(std::move(shard->queue.front()));
    shard->queue.pop_front();
    const std::string sketch = batch.front().sketch;
    TakeMatchingLocked(shard, sketch, &batch);
    if (options_.max_wait_us > 0 &&
        batch.size() < options_.max_batch && !shard->stopping) {
      // Hold the batch open briefly so concurrent submitters can join it.
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::microseconds(options_.max_wait_us);
      while (batch.size() < options_.max_batch && !shard->stopping &&
             shard->cv.WaitUntil(lock, deadline) ==
                 std::cv_status::no_timeout) {
        TakeMatchingLocked(shard, sketch, &batch);
      }
      TakeMatchingLocked(shard, sketch, &batch);
    }
    DS_INVARIANT(batch.size() <= options_.max_batch,
                 "batch grew to %zu past max_batch %zu", batch.size(),
                 options_.max_batch);
    // Submitters only wake a worker on the empty -> non-empty transition,
    // so if other-sketch requests remain, hand them to a sibling worker
    // before going off to serve this batch.
    if (!shard->queue.empty()) shard->cv.NotifyOne();
    lock.Unlock();
    ServeBatch(std::move(batch));
    lock.Lock();
  }
}

void SketchServer::ServeBatch(std::vector<Request> batch) {
  DS_REQUIRE(!batch.empty(), "ServeBatch called with an empty batch");
  const auto batch_start = std::chrono::steady_clock::now();
  const int64_t batch_start_us = ToTraceUs(batch_start);
  auto queue_us_of = [batch_start_us](const Request& r) {
    const int64_t us = batch_start_us - ToTraceUs(r.enqueue_time);
    return us < 0 ? int64_t{0} : us;
  };
  for (const Request& req : batch) {
    metrics_.queue_wait_us.Record(static_cast<uint64_t>(queue_us_of(req)));
    if (req.trace_id != 0) {
      obs::RecordSpan(tracer_, req.trace_id, req.root_span, "queue_wait",
                      ToTraceUs(req.enqueue_time), batch_start_us);
    }
  }
  metrics_.batches.Add();
  metrics_.batch_size.Record(batch.size());

  // The epoch is read under the same registry lock as the sketch handle:
  // every cache key below is scoped to this publication generation, so a
  // Put/Invalidate replacing the sketch can never serve pre-replacement
  // cached results (old-epoch entries just age out of the LRU).
  uint64_t epoch = 0;
  auto sketch = registry_->Get(batch.front().sketch, &epoch);
  if (!sketch.ok()) {
    for (Request& req : batch) {
      ResolveRequest(&req, sketch.status());
      FinishTrace(req);
      RecordFlight(req, 0.0, 1, queue_us_of(req), 0, 0);
    }
    metrics_.failed.Add(batch.size());
    return;
  }

  // Answer repeated statements from the estimate cache and bind the rest; a
  // request that fails to bind is answered immediately and excluded from
  // the forward pass. Statements bind into the worker thread's scratch,
  // whose containers keep their capacity, so a warm bind allocates nothing.
  BatchScratch& s = LocalBatchScratch();
  size_t num_specs = 0;  // s.specs[0, num_specs) feed the forward pass
  s.spec_owner.clear();
  if (s.keys.size() < batch.size()) s.keys.resize(batch.size());
  s.bind_us.assign(batch.size(), 0);
  // All requests in a batch target the same sketch (TakeMatchingLocked
  // groups by name), so the (name, epoch) prefix is shared. The name is
  // length-prefixed because wire names may contain any byte, including the
  // separators — with the length the key is injective over
  // (name, epoch, sql) triples.
  const std::string key_prefix = std::to_string(batch.front().sketch.size()) +
                                 ':' + batch.front().sketch + '\x1f' +
                                 std::to_string(epoch) + '\n';
  const auto infer_start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < batch.size(); ++i) {
    // Sampled requests get a thread-local trace context here, so the cache
    // lookup and the parse/bind spans inside DeepSketch::BindSql attach
    // under this request's root span.
    obs::ScopedTraceContext trace_scope(tracer_, batch[i].trace_id,
                                        batch[i].root_span);
    const int64_t iter_start_us = obs::TraceRecorder::NowUs();
    std::string& key = s.keys[i];
    key.assign(key_prefix).append(batch[i].sql);
    if (options_.result_cache_capacity > 0) {
      if (auto cached = ResultCacheGet(key); cached.has_value()) {
        metrics_.result_cache_hits.Add();
        metrics_.completed.Add();
        { obs::Span span("result_cache_hit"); }
        ResolveRequest(&batch[i], *cached);
        FinishTrace(batch[i]);
        RecordFlight(batch[i], *cached, 0, queue_us_of(batch[i]),
                     obs::TraceRecorder::NowUs() - iter_start_us, 0);
        continue;
      }
      metrics_.result_cache_misses.Add();
    }
    Status bound = (*sketch)->BindSql(batch[i].sql, &s.bound);
    if (bound.ok() && s.bound.placeholder.has_value()) {
      bound = Status::InvalidArgument(
          "query contains an uninstantiated '?' placeholder");
    }
    if (!bound.ok()) {
      metrics_.bind_errors.Add();
      metrics_.failed.Add();
      ResolveRequest(&batch[i], std::move(bound));
      FinishTrace(batch[i]);
      RecordFlight(batch[i], 0.0, 1, queue_us_of(batch[i]),
                   obs::TraceRecorder::NowUs() - iter_start_us, 0);
      continue;
    }
    if (num_specs == s.specs.size()) s.specs.emplace_back();
    std::swap(s.specs[num_specs++], s.bound.spec);
    s.spec_owner.push_back(i);
    s.bind_us[i] = obs::TraceRecorder::NowUs() - iter_start_us;
  }

  if (num_specs > 0) {
    // The padded forward pass serves the whole batch at once; its span
    // (with the featurize/forward children recorded inside EstimateMany)
    // is attached to the first sampled request in the batch.
    const Request* traced = nullptr;
    for (size_t owner : s.spec_owner) {
      if (batch[owner].trace_id != 0) {
        traced = &batch[owner];
        break;
      }
    }
    // EstimateManyInto keeps all featurization and inference state in warm
    // thread-local scratch, so steady-state batches allocate nothing. The
    // AllocCount delta around the call is exported as a gauge to watch
    // exactly that.
    std::vector<Result<double>>& results = s.results;
    const uint64_t allocs_before = util::AllocCount();
    const int64_t fwd_start_us = obs::TraceRecorder::NowUs();
    {
      obs::ScopedTraceContext trace_scope(
          tracer_, traced != nullptr ? traced->trace_id : 0,
          traced != nullptr ? traced->root_span : 0);
      obs::Span infer_span("infer", num_specs);
      (*sketch)->EstimateManyInto(
          std::span<const workload::QuerySpec>(s.specs.data(), num_specs),
          &results);
    }
    const int64_t fwd_us = obs::TraceRecorder::NowUs() - fwd_start_us;
    // The fulfillment loop below indexes spec_owner with the result index,
    // so the forward pass must answer exactly the specs it was given.
    DS_ENSURE(results.size() == num_specs,
              "EstimateManyInto returned %zu results for %zu specs",
              results.size(), num_specs);
    metrics_.batch_allocations.Set(
        static_cast<double>(util::AllocCount() - allocs_before));
    for (size_t r = 0; r < results.size(); ++r) {
      const size_t owner = s.spec_owner[r];
      if (results[r].ok()) {
        metrics_.completed.Add();
        ResultCachePut(s.keys[owner], *results[r]);
      } else {
        metrics_.failed.Add();
      }
      Request& req = batch[owner];
      const double estimate = results[r].ok() ? *results[r] : 0.0;
      const uint8_t code = results[r].ok() ? 0 : 1;
      ResolveRequest(&req, std::move(results[r]));
      FinishTrace(req);
      RecordFlight(req, estimate, code, queue_us_of(req), s.bind_us[owner],
                   fwd_us);
    }
  }
  metrics_.infer_us.Record(MicrosSince(infer_start));
}

std::optional<double> SketchServer::ResultCacheGet(const std::string& key) {
  if (options_.result_cache_capacity == 0) return std::nullopt;
  util::MutexLock lock(result_mu_);
  auto it = result_cache_.find(key);
  if (it == result_cache_.end()) return std::nullopt;
  result_lru_.splice(result_lru_.begin(), result_lru_, it->second.lru_it);
  return it->second.value;
}

void SketchServer::ResultCachePut(const std::string& key, double value) {
  if (options_.result_cache_capacity == 0) return;
  util::MutexLock lock(result_mu_);
  if (result_cache_.count(key) > 0) return;
  result_lru_.push_front(key);
  result_cache_.emplace(key, ResultEntry{value, result_lru_.begin()});
  while (result_cache_.size() > options_.result_cache_capacity) {
    result_cache_.erase(result_lru_.back());
    result_lru_.pop_back();
  }
}

}  // namespace ds::serve
