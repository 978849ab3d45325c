// Networked closed-loop load generator — the driver behind `dsctl netload`.
//
// Each client thread opens its own TCP connection to a ds::net server and
// keeps `pipeline_depth` ESTIMATE frames in flight (the wire protocol's
// request ids pair responses back to their send timestamps), looping until
// the deadline. Depth 1 is the strict request/response closed loop; deeper
// pipelines give the server something to coalesce.
//
// Every answered request's send-to-response latency lands in a private
// obs::Histogram; the report carries its snapshot and renders a
// p50/p90/p95/p99 table. Note the closed-loop caveat: with depth > 1 a
// request's latency includes time spent queued behind its own pipeline
// siblings, so deep pipelines trade latency for throughput by design.

#ifndef DS_NET_LOADGEN_H_
#define DS_NET_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ds/obs/metrics.h"

namespace ds::net {

struct LoadOptions {
  size_t threads = 1;

  /// Outstanding requests per client thread (clamped to >= 1).
  size_t pipeline_depth = 1;

  /// Measurement window; clients drain their pipelines after it elapses.
  double seconds = 1.0;

  /// Sample 1 in N requests for client-side tracing. Each client thread
  /// gets a private TraceRecorder whose contexts ride the wire behind
  /// kFlagTraceContext, so the server adopts the client's trace ids and
  /// its net/serve spans land in the server-side ring (the per-client
  /// recorders are discarded with the run — propagation is the point, not
  /// the local spans). 0 disables.
  uint64_t trace_sample_every = 0;
};

struct LoadReport {
  uint64_t ok = 0;
  uint64_t errors = 0;
  /// Requests the server shed (admission control or a full queue); these
  /// never reached a worker and are excluded from the latency histogram.
  uint64_t rejected = 0;
  /// Client threads whose connect or HELLO failed. Such a thread sent
  /// nothing, so it counts toward no request total and not toward Qps().
  uint64_t failed_connections = 0;
  double elapsed_seconds = 0;

  /// Send-to-response microseconds, one observation per answered request.
  obs::HistogramSnapshot latency_us;

  double Qps() const {
    return elapsed_seconds > 0
               ? static_cast<double>(ok + errors) / elapsed_seconds
               : 0.0;
  }

  /// One-line-per-stat latency table: count, mean, p50/p90/p95/p99, max.
  std::string LatencyTable() const;
};

/// Drives the server at host:port from `options.threads` closed-loop
/// clients, cycling through `sqls` against the named sketch. A non-empty
/// `tenant` is announced via HELLO before the loop starts. A thread whose
/// connection fails mid-run counts its outstanding requests as errors and
/// exits early. Every sent request is awaited before returning.
LoadReport RunClosedLoop(const std::string& host, uint16_t port,
                         const std::string& sketch_name,
                         const std::vector<std::string>& sqls,
                         const LoadOptions& options,
                         const std::string& tenant = "");

}  // namespace ds::net

#endif  // DS_NET_LOADGEN_H_
