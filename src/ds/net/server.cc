#include "ds/net/server.h"

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <thread>
#include <utility>

#include "ds/net/event_loop.h"
#include "ds/net/http.h"
#include "ds/obs/export.h"
#include "ds/obs/exposition.h"
#include "ds/obs/trace.h"
#include "ds/util/build_info.h"
#include "ds/util/cpu_topology.h"

#if defined(__linux__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>
#include <cerrno>
#endif

namespace ds::net {

NetMetrics::NetMetrics(obs::Registry* r)
    : connections(*r->GetCounter("ds_net_connections_total",
                                 "Client connections accepted")),
      active_connections(*r->GetGauge("ds_net_connections_active",
                                      "Currently open client connections")),
      requests(*r->GetCounter("ds_net_requests_total",
                              "Estimate requests received over the wire "
                              "(batch items count individually)")),
      responses_ok(*r->GetCounter("ds_net_responses_total",
                                  "Estimate requests answered, by status",
                                  {{"status", WireStatusName(WireStatus::kOk)}})),
      responses_error(
          *r->GetCounter("ds_net_responses_total",
                         "Estimate requests answered, by status",
                         {{"status", WireStatusName(WireStatus::kError)}})),
      responses_rejected(*r->GetCounter(
          "ds_net_responses_total", "Estimate requests answered, by status",
          {{"status", WireStatusName(WireStatus::kRejected)}})),
      http_requests(*r->GetCounter("ds_net_http_requests_total",
                                   "HTTP requests handled (all endpoints)")),
      protocol_errors(*r->GetCounter(
          "ds_net_protocol_errors_total",
          "Connections dropped for malformed framing or HTTP")),
      bytes_read(*r->GetCounter("ds_net_bytes_read_total",
                                "Bytes read from client sockets")),
      bytes_written(*r->GetCounter("ds_net_bytes_written_total",
                                   "Bytes written to client sockets")),
      build_info(*r->GetGauge(
          "ds_build_info", "Build identity (constant 1; labels carry it)",
          {{"git_sha", util::GetBuildInfo().git_sha},
           {"build_type", util::GetBuildInfo().build_type}})),
      uptime_seconds(*r->GetGauge("ds_net_uptime_seconds",
                                  "Seconds since the server started")) {
  build_info.Set(1);
}

obs::Counter& NetMetrics::Response(WireStatus status) {
  switch (status) {
    case WireStatus::kOk:
      return responses_ok;
    case WireStatus::kError:
      return responses_error;
    case WireStatus::kRejected:
      return responses_rejected;
  }
  return responses_error;
}

namespace {

__attribute__((format(printf, 2, 3))) void AppendFmt(std::string* out,
                                                     const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out->append(buf, std::min<size_t>(static_cast<size_t>(n),
                                               sizeof(buf) - 1));
}

}  // namespace

double NetServer::UptimeSeconds() const {
  const int64_t start = start_us_.load(std::memory_order_relaxed);
  if (start == 0) return 0.0;
  return static_cast<double>(obs::TraceRecorder::NowUs() - start) / 1e6;
}

NetServer::TenantStats* NetServer::Tenant(const std::string& name) {
  util::MutexLock lock(tenant_mu_);
  auto [it, inserted] = tenants_.try_emplace(name);
  if (inserted) {
    const obs::Labels labels = {{"tenant", name}};
    it->second.submitted =
        registry_->GetCounter("ds_net_tenant_requests_total",
                              "Requests received, by tenant", labels);
    it->second.completed = registry_->GetCounter(
        "ds_net_tenant_completed_total",
        "Responses answered ok or error, by tenant", labels);
    it->second.rejected =
        registry_->GetCounter("ds_net_tenant_rejected_total",
                              "Admission-control refusals, by tenant",
                              labels);
    it->second.shed =
        registry_->GetCounter("ds_net_tenant_shed_total",
                              "Queue-full backpressure sheds, by tenant",
                              labels);
    it->second.latency_us = registry_->GetHistogram(
        "ds_net_tenant_latency_us",
        "Receive-to-response-queued latency in microseconds, by tenant",
        labels);
  }
  return &it->second;
}

std::string NetServer::StatuszJson() const {
  const util::BuildInfo build = util::GetBuildInfo();
  std::vector<std::pair<std::string, TenantStats>> rows;
  {
    util::MutexLock lock(tenant_mu_);
    rows.assign(tenants_.begin(), tenants_.end());
  }
  std::string out;
  out.reserve(1024);
  out += "{\"build\":{\"git_sha\":\"";
  out += JsonEscape(build.git_sha);
  out += "\",\"build_type\":\"";
  out += JsonEscape(build.build_type);
  out += "\",\"compiler\":\"";
  out += JsonEscape(build.compiler);
  out += "\"}";
  AppendFmt(&out, ",\"uptime_seconds\":%.3f", UptimeSeconds());
  AppendFmt(&out, ",\"draining\":%s", draining() ? "true" : "false");
  AppendFmt(&out, ",\"workers\":%zu", workers_.size());
  AppendFmt(&out, ",\"connections\":{\"active\":%zu,\"total\":%llu}",
            active_connections_.load(std::memory_order_relaxed),
            static_cast<unsigned long long>(metrics_.connections.value()));
  AppendFmt(&out,
            ",\"net\":{\"requests\":%llu,\"responses_ok\":%llu,"
            "\"responses_error\":%llu,\"responses_rejected\":%llu,"
            "\"http_requests\":%llu,\"protocol_errors\":%llu}",
            static_cast<unsigned long long>(metrics_.requests.value()),
            static_cast<unsigned long long>(metrics_.responses_ok.value()),
            static_cast<unsigned long long>(metrics_.responses_error.value()),
            static_cast<unsigned long long>(
                metrics_.responses_rejected.value()),
            static_cast<unsigned long long>(metrics_.http_requests.value()),
            static_cast<unsigned long long>(
                metrics_.protocol_errors.value()));
  out += ",\"tenants\":[";
  bool first = true;
  for (const auto& [name, stats] : rows) {
    if (!first) out += ',';
    first = false;
    const obs::HistogramSnapshot lat = stats.latency_us->Snapshot();
    out += "{\"tenant\":\"";
    out += JsonEscape(name);
    out += '"';
    AppendFmt(&out,
              ",\"submitted\":%llu,\"completed\":%llu,\"rejected\":%llu,"
              "\"shed\":%llu,\"count\":%llu,\"p50_us\":%llu,"
              "\"p99_us\":%llu}",
              static_cast<unsigned long long>(stats.submitted->value()),
              static_cast<unsigned long long>(stats.completed->value()),
              static_cast<unsigned long long>(stats.rejected->value()),
              static_cast<unsigned long long>(stats.shed->value()),
              static_cast<unsigned long long>(lat.count),
              static_cast<unsigned long long>(lat.ApproxPercentile(0.50)),
              static_cast<unsigned long long>(lat.ApproxPercentile(0.99)));
  }
  out += "]}";
  return out;
}

std::string NetServer::StatuszText() const {
  const util::BuildInfo build = util::GetBuildInfo();
  std::vector<std::pair<std::string, TenantStats>> rows;
  {
    util::MutexLock lock(tenant_mu_);
    rows.assign(tenants_.begin(), tenants_.end());
  }
  std::string out;
  out.reserve(1024);
  AppendFmt(&out, "ds_served  sha=%s  type=%s\n", build.git_sha,
            build.build_type);
  AppendFmt(&out,
            "uptime %.1fs  draining %s  workers %zu  conns %zu/%llu\n",
            UptimeSeconds(), draining() ? "yes" : "no", workers_.size(),
            active_connections_.load(std::memory_order_relaxed),
            static_cast<unsigned long long>(metrics_.connections.value()));
  AppendFmt(&out,
            "net: requests=%llu ok=%llu error=%llu rejected=%llu "
            "http=%llu proto_err=%llu\n",
            static_cast<unsigned long long>(metrics_.requests.value()),
            static_cast<unsigned long long>(metrics_.responses_ok.value()),
            static_cast<unsigned long long>(metrics_.responses_error.value()),
            static_cast<unsigned long long>(
                metrics_.responses_rejected.value()),
            static_cast<unsigned long long>(metrics_.http_requests.value()),
            static_cast<unsigned long long>(
                metrics_.protocol_errors.value()));
  AppendFmt(&out, "%-16s %8s %8s %6s %6s %9s %9s\n", "tenant", "submit",
            "done", "rej", "shed", "p50us", "p99us");
  for (const auto& [name, stats] : rows) {
    const obs::HistogramSnapshot lat = stats.latency_us->Snapshot();
    AppendFmt(&out, "%-16s %8llu %8llu %6llu %6llu %9llu %9llu\n",
              name.c_str(),
              static_cast<unsigned long long>(stats.submitted->value()),
              static_cast<unsigned long long>(stats.completed->value()),
              static_cast<unsigned long long>(stats.rejected->value()),
              static_cast<unsigned long long>(stats.shed->value()),
              static_cast<unsigned long long>(lat.ApproxPercentile(0.50)),
              static_cast<unsigned long long>(lat.ApproxPercentile(0.99)));
  }
  return out;
}

#if defined(__linux__)

namespace {

constexpr size_t kReadChunk = 64 * 1024;
/// A connection buffering more than this unanswered input or output is
/// either malicious or stuck; close it instead of growing without bound.
constexpr size_t kMaxReadBuffer = kMaxPayloadBytes + kFrameHeaderSize + 4096;
constexpr size_t kMaxWriteBuffer = 8 * 1024 * 1024;

uint32_t ConnEvents(bool want_write) {
  return EPOLLIN | EPOLLRDHUP | EPOLLET | (want_write ? EPOLLOUT : 0u);
}

/// The protocol that decoded a wire estimate request, and so encodes its
/// reply.
enum class Codec : uint8_t { kEstimate, kEstimateBatch, kHttp };

struct WireRequest;

}  // namespace

struct Connection;

/// Per-worker state: the event loop, its thread, and the connections it
/// owns. Everything except the loop's Post queue is touched only from the
/// loop thread.
struct NetServer::Worker {
  size_t index = 0;
  int cpu = -1;  // planned CPU, -1 = unpinned
  EventLoop loop;
  std::thread thread;
  std::unordered_map<int, std::shared_ptr<Connection>> conns;
  NetServer* server = nullptr;
};

/// One client connection. Owned by its worker's `conns` map; completion
/// tasks hold weak_ptrs, so a connection that closes mid-request only
/// loses the reply bytes (the outcome is still counted).
struct Connection : std::enable_shared_from_this<Connection> {
  enum class Proto { kSniffing, kBinary, kHttp };

  util::UniqueFd fd;
  NetServer* server = nullptr;
  NetServer::Worker* worker = nullptr;
  Proto proto = Proto::kSniffing;
  std::string tenant;
  /// Cached /statusz ledger row for `tenant`, reset when HELLO changes the
  /// tenant, so the binary hot path never takes the ledger lock. (HTTP
  /// requests naming another tenant in X-DS-Tenant look their row up per
  /// request.)
  NetServer::TenantStats* ledger = nullptr;
  std::string rbuf;
  std::string wbuf;  // unsent response bytes (fd would block)
  bool open = true;
  /// Close requested after the current wbuf drains; no further input is
  /// processed and no further responses are queued once set.
  bool close_after_flush = false;
  /// An async HTTP response is outstanding; pipelined requests stay in
  /// rbuf until it is queued so responses go out in request order.
  bool http_busy = false;

  void OnEvent(uint32_t events);
  void ReadInput();
  void Dispatch();
  void DispatchBinary();
  void DispatchHttp();
  void HandleFrame(const FrameHeader& header, std::string_view payload);
  void HandleHttpRequest(const HttpRequest& req);
  NetServer::TenantStats* Ledger();
  std::shared_ptr<WireRequest> NewRequest(Codec codec,
                                          std::string request_tenant,
                                          const obs::WireTraceContext& trace,
                                          int64_t received_us,
                                          size_t wire_bytes);
  void Serve(std::shared_ptr<WireRequest> req);
  static void Reply(NetServer* server, WireRequest* req, Connection* conn);
  void SendFrame(FrameType type, WireStatus status, uint64_t request_id,
                 std::string_view payload);
  void QueueWrite(std::string_view bytes);
  void FlushWrites();
  void ProtocolError(FrameType type, uint64_t request_id,
                     const std::string& message);
  void CloseAfterFlush();
  void Close();
};

void Connection::OnEvent(uint32_t events) {
  if (!open) return;
  if (events & (EPOLLERR | EPOLLHUP)) {
    Close();
    return;
  }
  if (events & EPOLLOUT) FlushWrites();
  if (!open || close_after_flush) return;
  if (events & (EPOLLIN | EPOLLRDHUP)) ReadInput();
}

void Connection::ReadInput() {
  char chunk[kReadChunk];
  while (open && !close_after_flush) {
    const ssize_t n = read(fd.get(), chunk, sizeof(chunk));
    if (n > 0) {
      server->metrics_.bytes_read.Add(static_cast<uint64_t>(n));
      rbuf.append(chunk, static_cast<size_t>(n));
      if (rbuf.size() > kMaxReadBuffer) {
        server->metrics_.protocol_errors.Add();
        Close();
        return;
      }
      // Parse eagerly so a pipelining client's requests start flowing into
      // the batching core before the socket is fully drained.
      Dispatch();
      continue;
    }
    if (n == 0) {  // orderly peer shutdown
      Close();
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // edge drained
    if (errno == EINTR) continue;
    Close();
    return;
  }
}

void Connection::Dispatch() {
  if (proto == Proto::kSniffing) {
    if (rbuf.size() < kMagicSize) return;
    if (std::memcmp(rbuf.data(), kMagic, kMagicSize) == 0) {
      proto = Proto::kBinary;
      rbuf.erase(0, kMagicSize);
    } else {
      proto = Proto::kHttp;
    }
  }
  if (proto == Proto::kBinary) {
    DispatchBinary();
  } else {
    DispatchHttp();
  }
}

void Connection::DispatchBinary() {
  while (open && !close_after_flush && rbuf.size() >= kFrameHeaderSize) {
    FrameHeader header;
    if (auto st = DecodeFrameHeader(rbuf.data(), &header); !st.ok()) {
      // The header did not decode, so the offending type is unknowable;
      // kPing is the undecodable-header fallback.
      ProtocolError(FrameType::kPing, 0, st.message());
      return;
    }
    const size_t frame_size = kFrameHeaderSize + header.payload_size;
    if (rbuf.size() < frame_size) return;  // wait for the full frame
    // The payload view stays valid through HandleFrame: nothing below
    // mutates rbuf until the erase.
    HandleFrame(header,
                std::string_view(rbuf.data() + kFrameHeaderSize,
                                 header.payload_size));
    if (!open || close_after_flush) return;
    rbuf.erase(0, frame_size);
  }
}

NetServer::TenantStats* Connection::Ledger() {
  if (ledger == nullptr) ledger = server->Tenant(tenant);
  return ledger;
}

namespace {

/// How one statement of a wire estimate request was answered.
enum class Outcome : uint8_t {
  kOk,                 // estimated
  kError,              // undecodable request, unknown sketch, bind error...
  kAdmissionRejected,  // the tenant's token bucket was empty
  kQueueFull,          // the serve queue shed it
  kShuttingDown,       // the backend is stopping
};

using LedgerRow = NetServer::TenantStats;

/// What an outcome becomes, whichever protocol carried the statement: the
/// binary frame (or batch item) status, which is also the status label of
/// ds_net_responses_total, the HTTP status code, and the tenant-ledger
/// column.
struct OutcomeRow {
  WireStatus wire;
  int http_status;
  obs::Counter* LedgerRow::*column;
};

constexpr OutcomeRow kOutcomes[] = {
    {WireStatus::kOk, 200, &LedgerRow::completed},       // kOk
    {WireStatus::kError, 400, &LedgerRow::completed},    // kError
    {WireStatus::kRejected, 429, &LedgerRow::rejected},  // kAdmissionRejected
    {WireStatus::kRejected, 429, &LedgerRow::shed},      // kQueueFull
    {WireStatus::kError, 503, &LedgerRow::completed},    // kShuttingDown
};
static_assert(std::size(kOutcomes) ==
              static_cast<size_t>(Outcome::kShuttingDown) + 1);

/// One wire estimate request: the statements its codec decoded (one for
/// ESTIMATE and HTTP, any number for ESTIMATE_BATCH) on one sketch, and the
/// outcome of each. The owning loop fills it and hands the statements to
/// the serve workers; each worker writes only its own statement's slots,
/// and whoever settles the last slot hands the request back to the loop.
struct WireRequest {
  Codec codec = Codec::kEstimate;
  uint64_t request_id = 0;  // binary: echoed in the reply frame
  bool close = false;       // HTTP: "Connection: close", then close
  std::string tenant;
  NetServer::TenantStats* ledger = nullptr;
  obs::WireTraceContext trace;
  int64_t received_us = 0;  // when the bytes were read off the socket
  size_t wire_bytes = 0;    // decoded payload size (net_decode span)
  Status decoded;           // not ok: one kError statement, never admitted
  std::string sketch;
  std::vector<std::string> sqls;
  std::vector<Outcome> outcomes;
  std::vector<Result<double>> results;  // the value or the error message
  std::atomic<size_t> remaining{0};     // unsettled slots + one guard
};

/// The reply to `req` in the codec that decoded it.
std::string EncodeReply(const WireRequest& req) {
  const Outcome first =
      req.outcomes.empty() ? Outcome::kOk : req.outcomes.front();
  const OutcomeRow& row = kOutcomes[static_cast<size_t>(first)];
  std::string out;
  switch (req.codec) {
    case Codec::kEstimate: {
      std::string payload;
      if (first == Outcome::kOk) {
        AppendF64(&payload, *req.results[0]);
      } else {
        payload = req.results[0].status().message();
      }
      AppendFrame(&out, FrameType::kEstimate, row.wire, req.request_id,
                  payload);
      break;
    }
    case Codec::kEstimateBatch: {
      // An undecodable or admission-refused batch is refused as a whole
      // frame; otherwise every statement answers in its own item.
      if (!req.decoded.ok() || first == Outcome::kAdmissionRejected) {
        AppendFrame(&out, FrameType::kEstimateBatch, row.wire,
                    req.request_id, req.results[0].status().message());
        break;
      }
      std::string payload;
      AppendU32(&payload, static_cast<uint32_t>(req.results.size()));
      for (size_t i = 0; i < req.results.size(); ++i) {
        // Batch items word a queue-full refusal differently from the
        // single-statement replies.
        AppendBatchItem(&payload,
                        req.outcomes[i] == Outcome::kQueueFull
                            ? Result<double>(Status::OutOfRange(
                                  "rejected: queue full"))
                            : req.results[i]);
      }
      AppendFrame(&out, FrameType::kEstimateBatch, WireStatus::kOk,
                  req.request_id, payload);
      break;
    }
    case Codec::kHttp: {
      std::string body;
      if (first == Outcome::kOk) {
        char value[64];
        std::snprintf(value, sizeof(value), "{\"estimate\":%.1f}\n",
                      *req.results[0]);
        body = value;
      } else {
        body = "{\"error\":\"" +
               JsonEscape(req.results[0].status().message()) + "\"}\n";
      }
      out = BuildHttpResponse(row.http_status, "application/json", body,
                              req.close);
      break;
    }
  }
  return out;
}

}  // namespace

void Connection::HandleFrame(const FrameHeader& header,
                             std::string_view payload) {
  // Strip the optional trace-context prefix before any payload parsing;
  // the frame was just read off the socket, so "now" is the receive time
  // the flight record's pre-queue stage is measured from.
  const int64_t received_us = obs::TraceRecorder::NowUs();
  obs::WireTraceContext trace;
  if (auto st = ConsumeTraceContext(header.flags, &payload, &trace.trace_id,
                                    &trace.parent_span);
      !st.ok()) {
    ProtocolError(header.type, header.request_id, st.message());
    return;
  }
  switch (header.type) {
    case FrameType::kHello: {
      ByteReader r(payload);
      std::string name;
      if (!r.ReadString16(&name) || !r.empty()) {
        ProtocolError(FrameType::kHello, header.request_id,
                      "malformed HELLO payload");
        return;
      }
      if (!name.empty() && name != tenant) {
        tenant = std::move(name);
        ledger = nullptr;  // re-resolve lazily for the new tenant
      }
      SendFrame(FrameType::kHello, WireStatus::kOk, header.request_id, "");
      return;
    }
    case FrameType::kPing:
      SendFrame(FrameType::kPing, WireStatus::kOk, header.request_id, "");
      return;
    case FrameType::kStats:
      SendFrame(FrameType::kStats, WireStatus::kOk, header.request_id,
                server->backend_->MetricsJson());
      return;
    case FrameType::kEstimate: {
      auto req = NewRequest(Codec::kEstimate, tenant, trace, received_us,
                            payload.size());
      req->request_id = header.request_id;
      EstimateRequest decoded;
      req->decoded = ParseEstimateRequest(payload, &decoded);
      req->sketch = std::move(decoded.sketch);
      req->sqls.push_back(std::move(decoded.sql));
      Serve(std::move(req));
      return;
    }
    case FrameType::kEstimateBatch: {
      auto req = NewRequest(Codec::kEstimateBatch, tenant, trace,
                            received_us, payload.size());
      req->request_id = header.request_id;
      EstimateBatchRequest decoded;
      req->decoded = ParseEstimateBatchRequest(payload, &decoded);
      req->sketch = std::move(decoded.sketch);
      req->sqls = std::move(decoded.sqls);
      Serve(std::move(req));
      return;
    }
  }
}

std::shared_ptr<WireRequest> Connection::NewRequest(
    Codec codec, std::string request_tenant,
    const obs::WireTraceContext& trace, int64_t received_us,
    size_t wire_bytes) {
  auto req = std::make_shared<WireRequest>();
  req->codec = codec;
  req->ledger = request_tenant == tenant ? Ledger()
                                         : server->Tenant(request_tenant);
  req->tenant = std::move(request_tenant);
  req->trace = trace;
  req->received_us = received_us;
  req->wire_bytes = wire_bytes;
  return req;
}

// The one request pipeline: every wire estimate, whichever codec decoded
// it, is admitted at the cost of its statement count, submitted as one
// group, and settled statement by statement. Refusals settle here on the
// loop thread; the rest settle on serve workers. Whoever settles the last
// statement hands the request to Reply on the owning loop.
void Connection::Serve(std::shared_ptr<WireRequest> req) {
  obs::TraceRecorder* tracer = server->backend_->tracer();
  const obs::WireTraceContext trace = req->trace;
  // RecordSpan is a no-op on an unsampled request (trace_id 0) or a
  // tracer-less backend, so the spans below cost a branch when off.
  obs::RecordSpan(tracer, trace.trace_id, trace.parent_span, "net_decode",
                  req->received_us, obs::TraceRecorder::NowUs(),
                  req->wire_bytes);
  server->in_flight_.fetch_add(1, std::memory_order_relaxed);
  // An undecodable request's statement count is unknowable; it counts as
  // one so that requests and responses still balance.
  const size_t n = req->decoded.ok() ? req->sqls.size() : 1;
  server->metrics_.requests.Add(n);
  req->ledger->submitted->Add(n);
  req->outcomes.assign(n, Outcome::kError);
  req->results.assign(n, Status::Internal("pending"));
  if (!req->decoded.ok()) {
    req->results[0] = req->decoded;
    Reply(server, req.get(), this);
    return;
  }

  const int64_t admit_start_us = obs::TraceRecorder::NowUs();
  const bool admitted = server->admission_.Admit(
      req->tenant, server->NowSeconds(), static_cast<double>(n));
  obs::RecordSpan(tracer, trace.trace_id, trace.parent_span,
                  "net_admission", admit_start_us,
                  obs::TraceRecorder::NowUs(), admitted ? 1 : 0);
  if (!admitted) {
    server->backend_->CountShed(n);
    req->outcomes.assign(n, Outcome::kAdmissionRejected);
    req->results.assign(n, Status::OutOfRange("tenant '" + req->tenant +
                                              "' exceeded its request rate"));
    Reply(server, req.get(), this);
    return;
  }

  // One token per statement plus a guard token held by this thread:
  // accepted statements can settle on serve workers before
  // SubmitManyAsync returns, and must not hand the request off until the
  // refused statements' slots below are written.
  req->remaining.store(n + 1, std::memory_order_relaxed);
  serve::RequestContext ctx;
  ctx.trace = trace;
  ctx.received_us = req->received_us;
  ctx.tenant = req->tenant;
  std::weak_ptr<Connection> weak = weak_from_this();
  NetServer* srv = server;
  EventLoop* loop = &worker->loop;
  const std::vector<serve::SubmitStatus> statuses =
      server->backend_->SubmitManyAsync(
          req->sketch, std::move(req->sqls),
          [req, weak, srv, loop](size_t i, Result<double> result) {
            req->outcomes[i] = result.ok() ? Outcome::kOk : Outcome::kError;
            req->results[i] = std::move(result);
            if (req->remaining.fetch_sub(1, std::memory_order_acq_rel) ==
                1) {
              // Runs on a serve worker; hop to the owning event loop so
              // only that thread ever touches the connection.
              loop->Post([req, weak, srv] {
                Reply(srv, req.get(), weak.lock().get());
              });
            }
          },
          worker->index, std::move(ctx));
  size_t refused = 0;
  for (size_t i = 0; i < n; ++i) {
    if (statuses[i] == serve::SubmitStatus::kOk) continue;
    ++refused;
    const bool shutdown = statuses[i] == serve::SubmitStatus::kShuttingDown;
    req->outcomes[i] =
        shutdown ? Outcome::kShuttingDown : Outcome::kQueueFull;
    req->results[i] =
        Status::OutOfRange(shutdown ? "server is shutting down"
                                    : "server overloaded (queue full)");
  }
  // Release the refused statements' tokens and the guard. The acq_rel
  // chain on `remaining` publishes the slots written here to whichever
  // thread settles last; if that is this one, reply right away.
  if (req->remaining.fetch_sub(refused + 1, std::memory_order_acq_rel) ==
      refused + 1) {
    Reply(server, req.get(), this);
  } else if (req->codec == Codec::kHttp) {
    // Hold further pipelined requests until this reply is queued, so
    // HTTP/1.1 responses go out in request order.
    http_busy = true;
  }
}

// Runs on the owning loop once every statement of `req` has settled.
// `conn` is null (or closed) when the client hung up meanwhile: the reply
// bytes are lost, but the outcomes are booked all the same, so requests
// and responses still balance.
void Connection::Reply(NetServer* server, WireRequest* req,
                       Connection* conn) {
  const int64_t write_start_us = obs::TraceRecorder::NowUs();
  uint64_t settled[std::size(kOutcomes)] = {};
  for (const Outcome outcome : req->outcomes) {
    ++settled[static_cast<size_t>(outcome)];
  }
  uint64_t answered = 0;
  for (size_t o = 0; o < std::size(kOutcomes); ++o) {
    if (settled[o] == 0) continue;
    server->metrics_.Response(kOutcomes[o].wire).Add(settled[o]);
    (req->ledger->*kOutcomes[o].column)->Add(settled[o]);
    if (kOutcomes[o].column == &LedgerRow::completed) answered += settled[o];
  }
  const std::string reply = EncodeReply(*req);
  if (conn != nullptr) conn->QueueWrite(reply);
  const int64_t now_us = obs::TraceRecorder::NowUs();
  obs::RecordSpan(server->backend_->tracer(), req->trace.trace_id,
                  req->trace.parent_span, "net_write", write_start_us, now_us,
                  reply.size());
  // One Record per answered statement keeps the histogram's count equal to
  // the ledger's completed column.
  const uint64_t latency_us = static_cast<uint64_t>(
      std::max<int64_t>(0, now_us - req->received_us));
  for (uint64_t i = 0; i < answered; ++i) {
    req->ledger->latency_us->Record(latency_us);
  }
  if (conn != nullptr && req->codec == Codec::kHttp) {
    const bool resume = std::exchange(conn->http_busy, false);
    if (req->close) {
      conn->CloseAfterFlush();
    } else if (resume) {
      conn->Dispatch();  // the pipelined requests buffered while busy
    }
  }
  server->in_flight_.fetch_sub(1, std::memory_order_release);
}

void Connection::DispatchHttp() {
  while (open && !http_busy && !close_after_flush) {
    HttpRequest req;
    size_t consumed = 0;
    switch (ParseHttpRequest(rbuf, &req, &consumed)) {
      case HttpParseResult::kNeedMore:
        return;
      case HttpParseResult::kBad:
        server->metrics_.protocol_errors.Add();
        QueueWrite(BuildHttpResponse(400, "text/plain",
                                     "malformed HTTP request\n", true));
        CloseAfterFlush();
        return;
      case HttpParseResult::kParsed:
        rbuf.erase(0, consumed);
        HandleHttpRequest(req);
        break;
    }
  }
}

void Connection::HandleHttpRequest(const HttpRequest& req) {
  const int64_t received_us = obs::TraceRecorder::NowUs();
  server->metrics_.http_requests.Add();
  server->metrics_.uptime_seconds.Set(server->UptimeSeconds());
  const bool close = req.WantsClose();

  // The request target may carry a query string ("/tracez?format=chrome");
  // route on the path, leave the query for the endpoint.
  std::string_view target(req.path);
  std::string_view query;
  if (const size_t q = target.find('?'); q != std::string_view::npos) {
    query = target.substr(q + 1);
    target = target.substr(0, q);
  }

  if (req.method == "GET" && target == "/metrics") {
    QueueWrite(BuildHttpResponse(
        200, obs::kPrometheusContentType,
        obs::ToPrometheusText(server->backend_->ObsSnapshot()), close));
    if (close) CloseAfterFlush();
    return;
  }
  if (req.method == "GET" && target == "/healthz") {
    QueueWrite(BuildHttpResponse(200, "text/plain", "ok\n", close));
    if (close) CloseAfterFlush();
    return;
  }
  if (req.method == "GET" && target == "/readyz") {
    // Drain-aware readiness: flips to 503 the moment BeginDrain() runs so
    // load balancers stop routing here while in-flight work finishes.
    if (server->draining()) {
      QueueWrite(BuildHttpResponse(503, "text/plain", "draining\n", close));
    } else {
      QueueWrite(BuildHttpResponse(200, "text/plain", "ready\n", close));
    }
    if (close) CloseAfterFlush();
    return;
  }
  if (req.method == "GET" && target == "/statusz") {
    if (query.find("format=text") != std::string_view::npos) {
      QueueWrite(BuildHttpResponse(200, "text/plain", server->StatuszText(),
                                   close));
    } else {
      QueueWrite(BuildHttpResponse(200, "application/json",
                                   server->StatuszJson(), close));
    }
    if (close) CloseAfterFlush();
    return;
  }
  if (req.method == "GET" && target == "/tracez") {
    obs::TraceRecorder* tracer = server->backend_->tracer();
    std::string body;
    if (query.find("format=chrome") != std::string_view::npos) {
      body = obs::ToChromeTraceJson(
          tracer != nullptr ? tracer->Snapshot()
                            : std::vector<obs::SpanRecord>{});
    } else {
      body = obs::TracezJson(*server->backend_->flight(), tracer);
    }
    QueueWrite(BuildHttpResponse(200, "application/json", body, close));
    if (close) CloseAfterFlush();
    return;
  }
  if (target != "/estimate") {
    QueueWrite(BuildHttpResponse(404, "application/json",
                                 "{\"error\":\"not found\"}\n", close));
    if (close) CloseAfterFlush();
    return;
  }
  if (req.method != "POST") {
    QueueWrite(BuildHttpResponse(405, "application/json",
                                 "{\"error\":\"use POST\"}\n", close));
    if (close) CloseAfterFlush();
    return;
  }

  // X-DS-Trace carries the same context the binary protocol puts behind
  // kFlagTraceContext; a malformed value is treated as unsampled.
  obs::WireTraceContext trace;
  if (auto header = req.Header("x-ds-trace"); header.has_value()) {
    (void)obs::ParseTraceHeader(*header, &trace);
  }
  auto estimate =
      NewRequest(Codec::kHttp, req.Header("x-ds-tenant").value_or(tenant),
                 trace, received_us, req.body.size());
  estimate->close = close;
  auto sketch = ExtractJsonStringField(req.body, "sketch");
  auto sql = ExtractJsonStringField(req.body, "sql");
  if (sketch.has_value() && sql.has_value()) {
    estimate->sketch = std::move(*sketch);
    estimate->sqls.push_back(std::move(*sql));
  } else {
    estimate->decoded = Status::InvalidArgument(
        "body must be {\"sketch\": ..., \"sql\": ...}");
  }
  Serve(std::move(estimate));
}

void Connection::SendFrame(FrameType type, WireStatus status,
                           uint64_t request_id, std::string_view payload) {
  std::string frame;
  AppendFrame(&frame, type, status, request_id, payload);
  QueueWrite(frame);
}

void Connection::QueueWrite(std::string_view bytes) {
  if (!open || close_after_flush) return;
  if (wbuf.empty()) {
    // Fast path: write straight from the caller's buffer; only the
    // leftover (socket buffer full) is copied.
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = write(fd.get(), bytes.data() + off,
                              bytes.size() - off);
      if (n > 0) {
        server->metrics_.bytes_written.Add(static_cast<uint64_t>(n));
        off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      Close();
      return;
    }
    if (off == bytes.size()) return;
    wbuf.assign(bytes.data() + off, bytes.size() - off);
    (void)worker->loop.Modify(fd.get(), ConnEvents(/*want_write=*/true));
    return;
  }
  wbuf.append(bytes.data(), bytes.size());
  if (wbuf.size() > kMaxWriteBuffer) {
    server->metrics_.protocol_errors.Add();
    Close();  // client is not reading its responses
  }
}

void Connection::FlushWrites() {
  size_t off = 0;
  while (off < wbuf.size()) {
    const ssize_t n = write(fd.get(), wbuf.data() + off, wbuf.size() - off);
    if (n > 0) {
      server->metrics_.bytes_written.Add(static_cast<uint64_t>(n));
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    Close();
    return;
  }
  wbuf.erase(0, off);
  if (wbuf.empty()) {
    if (close_after_flush) {
      Close();
      return;
    }
    (void)worker->loop.Modify(fd.get(), ConnEvents(/*want_write=*/false));
  }
}

void Connection::ProtocolError(FrameType type, uint64_t request_id,
                               const std::string& message) {
  server->metrics_.protocol_errors.Add();
  SendFrame(type, WireStatus::kError, request_id, message);
  CloseAfterFlush();
}

/// Closes once wbuf has drained, so a just-queued final response is not
/// truncated by an immediate close; closes now if nothing is pending.
void Connection::CloseAfterFlush() {
  if (!open || close_after_flush) return;
  if (wbuf.empty()) {
    Close();
    return;
  }
  close_after_flush = true;
}

void Connection::Close() {
  if (!open) return;
  open = false;
  worker->loop.Remove(fd.get());
  server->metrics_.active_connections.Add(-1);
  server->active_connections_.fetch_sub(1, std::memory_order_relaxed);
  // Erasing from the map drops the owning shared_ptr; the EventLoop keeps
  // the currently-executing handler alive until it returns, and the
  // UniqueFd closes the socket when the last reference goes.
  worker->conns.erase(fd.get());
}

// ---- NetServer --------------------------------------------------------------

NetServer::NetServer(serve::SketchServer* backend, NetServerOptions options)
    : backend_(backend),
      options_(std::move(options)),
      registry_(options_.metrics_registry != nullptr
                    ? options_.metrics_registry
                    : backend->obs_registry()),
      metrics_(registry_),
      admission_(options_.admission) {}

NetServer::~NetServer() { Stop(); }

double NetServer::NowSeconds() const {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status NetServer::StartListener() {
  listen_fd_.reset(socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0));
  if (!listen_fd_.valid()) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  setsockopt(listen_fd_.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("cannot parse listen host '" +
                                   options_.host + "' (IPv4 dotted quad)");
  }
  if (bind(listen_fd_.get(), reinterpret_cast<sockaddr*>(&addr),
           sizeof(addr)) != 0) {
    return Status::IOError("bind " + options_.host + ":" +
                           std::to_string(options_.port) + ": " +
                           std::strerror(errno));
  }
  if (listen(listen_fd_.get(), 512) != 0) {
    return Status::IOError(std::string("listen: ") + std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (getsockname(listen_fd_.get(), reinterpret_cast<sockaddr*>(&bound),
                  &len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  return Status::OK();
}

void NetServer::AcceptReady(Worker* worker) {
  while (true) {
    const int raw = accept4(listen_fd_.get(), nullptr, nullptr,
                            SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (raw < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // EMFILE etc.: back off until the next readiness event
    }
    util::UniqueFd client(raw);
    if (!accepting_.load(std::memory_order_acquire) ||
        active_connections_.load(std::memory_order_relaxed) >=
            options_.max_connections) {
      continue;  // UniqueFd closes it — explicit connection-level shed
    }
    const int one = 1;
    setsockopt(client.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto conn = std::make_shared<Connection>();
    const int fd = client.get();
    conn->fd = std::move(client);
    conn->server = this;
    conn->worker = worker;
    conn->tenant = options_.default_tenant;
    std::weak_ptr<Connection> weak = conn;
    if (!worker->loop
             .Add(fd, ConnEvents(/*want_write=*/false),
                  [weak](uint32_t events) {
                    if (auto c = weak.lock()) c->OnEvent(events);
                  })
             .ok()) {
      continue;  // conn (and its fd) die here
    }
    worker->conns[fd] = std::move(conn);
    metrics_.connections.Add();
    metrics_.active_connections.Add(1);
    active_connections_.fetch_add(1, std::memory_order_relaxed);
  }
}

Status NetServer::Start() {
  util::MutexLock lock(stop_mu_);
  if (started_) return Status::AlreadyExists("NetServer already started");
  DS_RETURN_NOT_OK(StartListener());

  const util::CpuTopology topology = util::DetectCpuTopology();
  size_t num_workers = options_.num_workers > 0
                           ? options_.num_workers
                           : std::max<size_t>(topology.num_cores(), 1);
  const std::vector<int> cpu_plan = util::PlanWorkerCpus(topology,
                                                         num_workers);

  workers_.clear();
  for (size_t i = 0; i < num_workers; ++i) {
    auto w = std::make_unique<Worker>();
    w->index = i;
    w->server = this;
    w->cpu = options_.pin_threads && i < cpu_plan.size() ? cpu_plan[i] : -1;
    const obs::Labels loop_labels = {{"loop", std::to_string(i)}};
    w->loop.SetMetrics(
        registry_->GetCounter("ds_net_loop_wakeups_total",
                              "epoll_wait returns, by event loop",
                              loop_labels),
        registry_->GetHistogram(
            "ds_net_loop_lag_us",
            "Posted-task queueing delay in microseconds, by event loop",
            loop_labels));
    if (auto st = w->loop.Init(); !st.ok()) {
      workers_.clear();
      listen_fd_.reset();
      return st;
    }
    // Every worker watches the listening socket. Level-triggered so an
    // accept backlog re-notifies; EPOLLEXCLUSIVE (where the kernel has it)
    // wakes one worker per readiness instead of all of them.
    uint32_t listen_events = EPOLLIN;
#if defined(EPOLLEXCLUSIVE)
    listen_events |= EPOLLEXCLUSIVE;
#endif
    Worker* wp = w.get();
    if (auto st = w->loop.Add(listen_fd_.get(), listen_events,
                              [this, wp](uint32_t) { AcceptReady(wp); });
        !st.ok()) {
      workers_.clear();
      listen_fd_.reset();
      return st;
    }
    workers_.push_back(std::move(w));
  }

  accepting_.store(true, std::memory_order_release);
  for (auto& w : workers_) {
    Worker* wp = w.get();
    w->thread = std::thread([wp] {
      if (wp->cpu >= 0) {
        // Best-effort: a failed pin (cgroup change mid-flight) costs
        // locality, not correctness.
        (void)util::PinCurrentThreadToCpu(wp->cpu);
      }
      wp->loop.Run();
    });
  }
  started_ = true;
  stopped_ = false;
  draining_.store(false, std::memory_order_relaxed);
  start_us_.store(obs::TraceRecorder::NowUs(), std::memory_order_relaxed);
  return Status::OK();
}

void NetServer::Stop() {
  // Readiness flips first so /readyz reports "draining" for the whole
  // shutdown window, including a Stop() that never saw BeginDrain().
  BeginDrain();
  util::MutexLock lock(stop_mu_);
  if (!started_ || stopped_) return;
  stopped_ = true;

  // Phase 1: stop admitting new work. Workers may still get accept
  // wakeups; AcceptReady sees accepting_ == false and closes the socket.
  accepting_.store(false, std::memory_order_release);

  // Phase 2: drain. Every accepted estimate decrements in_flight_ from a
  // posted completion task, which only runs while the loops are alive —
  // so wait BEFORE stopping them. Bounded: a wedged backend (its Stop
  // drains its queues, so this cannot happen in a correct shutdown order)
  // forfeits the drain after 10 seconds rather than hanging forever.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (in_flight_.load(std::memory_order_acquire) > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Phase 3: stop the loops and join. Connections close when the worker
  // state is destroyed below (UniqueFd).
  for (auto& w : workers_) w->loop.Stop();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  for (auto& w : workers_) {
    metrics_.active_connections.Add(
        -static_cast<double>(w->conns.size()));
    w->conns.clear();
  }
  active_connections_.store(0, std::memory_order_relaxed);
  workers_.clear();
  listen_fd_.reset();
}

#else  // !__linux__

struct NetServer::Worker {};

NetServer::NetServer(serve::SketchServer* backend, NetServerOptions options)
    : backend_(backend),
      options_(std::move(options)),
      registry_(options_.metrics_registry != nullptr
                    ? options_.metrics_registry
                    : backend->obs_registry()),
      metrics_(registry_),
      admission_(options_.admission) {}

NetServer::~NetServer() = default;

Status NetServer::Start() {
  return Status::Unimplemented("ds::net requires Linux (epoll)");
}
void NetServer::Stop() {}
Status NetServer::StartListener() {
  return Status::Unimplemented("ds::net requires Linux (epoll)");
}
void NetServer::AcceptReady(Worker*) {}
double NetServer::NowSeconds() const { return 0; }

#endif  // __linux__

}  // namespace ds::net
