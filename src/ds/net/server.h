// NetServer: the networked, multi-tenant front-end over a SketchServer.
//
// Architecture (one box per thread):
//
//   client sockets                    batching core (ds::serve)
//        |                                   ^
//   +----v-----------+  SubmitManyAsync      |
//   | worker 0       |  (shard hint 0) +-----+------+
//   |  epoll loop    +---------------->| SketchServer|--> workers, NN
//   |  accept+io     |<----Post()------+  queues     |
//   +----------------+   completion    +-----^------+
//   | worker 1       |  (shard hint 1)       |
//   |  epoll loop    +----------------------->
//   +----------------+
//
// Each worker thread owns one edge-triggered epoll loop, accepts
// connections (the listening socket is registered in every loop, with
// EPOLLEXCLUSIVE where available so the kernel wakes one worker per
// pending accept), parses both wire protocols (binary "DSKB" frames and
// HTTP/1.1 — see ds/net/protocol.h), and submits estimate work into the
// SketchServer with its own index as the queue-shard hint, so a
// connection's requests stay on the queue shard drained by workers
// co-located with its event loop. Completions are posted back to the
// owning loop; response bytes are only ever written by the worker that
// owns the connection, so connection state needs no locks.
//
// One request pipeline serves all three estimate requests (binary
// ESTIMATE, ESTIMATE_BATCH and HTTP POST /estimate): each protocol only
// decodes its bytes into one request of n statements and encodes the
// reply; admission (at cost n), the SubmitManyAsync group, the spans and
// the books are shared, and one outcome table maps every statement's
// outcome to its wire status, HTTP code and tenant-ledger column.
//
// Workers are pinned one-per-physical-core via ds/util/cpu_topology
// (best-effort: pinning failures are ignored — a correctness-neutral
// optimization, see that header).
//
// Overload behavior: requests past a tenant's token bucket or past the
// SketchServer's queue capacity are answered immediately with an explicit
// REJECTED response (HTTP 429). Nothing is queued unboundedly — the
// pending work is bounded by the serve-layer queue capacity plus one
// in-flight batch per connection — so p99 latency of admitted requests
// stays flat while overload is shed.
//
// Metrics (registered in the backend's registry by default, so one
// /metrics scrape sees both layers):
//   ds_net_connections_total / ds_net_connections_active
//   ds_net_requests_total              estimate requests received (batch
//                                      items count individually)
//   ds_net_responses_total{status=ok|error|rejected}
//                                      estimate requests answered, counted
//                                      when the reply is ready even if the
//                                      client has hung up meanwhile
//   ds_net_http_requests_total, ds_net_protocol_errors_total
//   ds_net_bytes_read_total / ds_net_bytes_written_total
//   ds_net_uptime_seconds, ds_build_info{git_sha,...}
//   ds_net_loop_wakeups_total{loop=i} / ds_net_loop_lag_us{loop=i}
//   ds_net_tenant_requests_total{tenant=...} (+ completed/rejected/shed
//   and a per-tenant latency histogram — the /statusz ledger)
// Invariants after a drained shutdown:
//   ds_net_requests_total == sum over status of ds_net_responses_total
//   per tenant: requests == completed + rejected + shed
// (the CI integration smoke asserts the first from a live scrape).
//
// Admin plane (same HTTP listener, backed by the same private registry):
//   GET /healthz   liveness ("ok")
//   GET /readyz    readiness: 200 "ready", or 503 "draining" after
//                  BeginDrain() (SIGTERM grace) — load balancers stop
//                  routing while in-flight work finishes
//   GET /statusz   JSON: build info, uptime, workers, connections, the
//                  per-tenant ledger, serve totals (&format=text for
//                  dsctl top)
//   GET /tracez    flight-recorder view (recent + slowest + exemplars);
//                  ?format=chrome returns the span ring as Chrome
//                  trace-event JSON for about:tracing / Perfetto
//
// Trace propagation: binary frames carry a trace context behind
// kFlagTraceContext; HTTP requests carry the same context as the
// X-DS-Trace header. Both adopt the caller's trace id, record net_decode /
// net_admission / net_write spans server-side, and hand the context to the
// serve layer so one wire request yields one coherent trace.

#ifndef DS_NET_SERVER_H_
#define DS_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ds/net/admission.h"
#include "ds/net/protocol.h"
#include "ds/obs/metrics.h"
#include "ds/serve/server.h"
#include "ds/util/fd.h"
#include "ds/util/status.h"
#include "ds/util/thread_annotations.h"

namespace ds::net {

struct NetServerOptions {
  std::string host = "127.0.0.1";

  /// 0 binds an ephemeral port; read the actual one from port().
  uint16_t port = 0;

  /// Event-loop threads. 0 = one per available physical core (respecting
  /// the process affinity mask / cgroup limits).
  size_t num_workers = 0;

  /// Pin each worker to its planned CPU (see PlanWorkerCpus). Best-effort.
  bool pin_threads = true;

  /// Tenant for connections that never send HELLO / X-DS-Tenant.
  std::string default_tenant = "default";

  /// Per-tenant admission control; rate <= 0 admits everything.
  AdmissionOptions admission;

  /// Accepted sockets beyond this are closed immediately.
  size_t max_connections = 1024;

  /// Registry for the ds_net_* instruments. Null = the backend's registry
  /// (recommended: one scrape shows the whole serving path).
  obs::Registry* metrics_registry = nullptr;
};

/// The ds_net_* instruments. Separate from the server so tests can
/// construct one against a scratch registry.
struct NetMetrics {
  explicit NetMetrics(obs::Registry* registry);

  obs::Counter& connections;
  obs::Gauge& active_connections;
  obs::Counter& requests;
  obs::Counter& responses_ok;
  obs::Counter& responses_error;
  obs::Counter& responses_rejected;
  obs::Counter& http_requests;
  obs::Counter& protocol_errors;
  obs::Counter& bytes_read;
  obs::Counter& bytes_written;
  /// ds_build_info{git_sha,build_type}: constant 1 — the labels carry the
  /// information, the standard Prometheus build-info idiom.
  obs::Gauge& build_info;
  /// ds_net_uptime_seconds; refreshed on every admin-plane request.
  obs::Gauge& uptime_seconds;

  obs::Counter& Response(WireStatus status);
};

class NetServer {
 public:
  /// `backend` is borrowed and must outlive this server. Call Start() to
  /// bind and spin up the workers.
  NetServer(serve::SketchServer* backend, NetServerOptions options = {});

  /// Stops (drains in-flight requests) if still running.
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds, listens, and starts the worker threads. Errors leave the
  /// server stopped (safe to destroy). Unimplemented off Linux.
  Status Start();

  /// Graceful shutdown: stop accepting, wait for in-flight estimates to
  /// complete (bounded), stop the loops, join, close every connection.
  /// Idempotent. The backend keeps running — stop it after this returns
  /// (in-flight completions need its workers).
  void Stop();

  /// The bound TCP port (useful with options.port == 0). 0 before Start.
  uint16_t port() const { return port_; }

  size_t num_workers() const { return workers_.size(); }

  obs::Registry* registry() const { return registry_; }

  AdmissionController* admission() { return &admission_; }

  /// One tenant's row in the /statusz ledger. The instrument pointers are
  /// registry-owned and stable, so connections cache the row and count
  /// lock-free on the request path.
  struct TenantStats {
    obs::Counter* submitted = nullptr;   // requests received for the tenant
    obs::Counter* completed = nullptr;   // answered ok or error
    obs::Counter* rejected = nullptr;    // admission-control (rate) refusals
    obs::Counter* shed = nullptr;        // queue-full backpressure sheds
    /// Receive -> reply queued, one sample per completed request (batch
    /// items count individually).
    obs::Histogram* latency_us = nullptr;
  };

  /// The ledger row for `name`, created on first use. Thread-safe.
  TenantStats* Tenant(const std::string& name) DS_EXCLUDES(tenant_mu_);

  /// Flips /readyz to 503 "draining" so load balancers stop routing new
  /// work here while in-flight requests finish. One-way; Stop() implies it.
  void BeginDrain() { draining_.store(true, std::memory_order_relaxed); }
  bool draining() const {
    return draining_.load(std::memory_order_relaxed);
  }

  /// Seconds since Start() succeeded (0 before).
  double UptimeSeconds() const;

  /// The /statusz document: build info, uptime, connection and response
  /// totals, and the per-tenant ledger with p50/p99 latency.
  std::string StatuszJson() const;
  /// Plain-text /statusz rendering (`?format=text`) — what `dsctl top`
  /// repaints.
  std::string StatuszText() const;

 private:
  friend struct Connection;
  struct Worker;

  Status StartListener();
  void AcceptReady(Worker* worker);
  double NowSeconds() const;

  serve::SketchServer* backend_;  // not owned
  NetServerOptions options_;
  obs::Registry* registry_;
  NetMetrics metrics_;
  AdmissionController admission_;

  util::UniqueFd listen_fd_;
  uint16_t port_ = 0;
  std::vector<std::unique_ptr<Worker>> workers_;

  std::atomic<bool> accepting_{false};
  std::atomic<bool> draining_{false};
  std::atomic<uint64_t> in_flight_{0};  // wire requests awaiting reply
  std::atomic<size_t> active_connections_{0};
  std::atomic<int64_t> start_us_{0};  // steady-clock us at successful Start

  mutable util::Mutex tenant_mu_{util::LockRank::kNetServerTenants};
  // std::map: node-stable TenantStats addresses plus sorted /statusz rows.
  std::map<std::string, TenantStats> tenants_ DS_GUARDED_BY(tenant_mu_);

  // serializes Start/Stop against concurrent Stop
  util::Mutex stop_mu_{util::LockRank::kNetServerStop};
  bool started_ DS_GUARDED_BY(stop_mu_) = false;
  bool stopped_ DS_GUARDED_BY(stop_mu_) = false;
};

}  // namespace ds::net

#endif  // DS_NET_SERVER_H_
