// NetClient: a blocking client for the ds::net binary protocol.
//
// Used by the load generator (ds/net/loadgen.h), dsctl, and the tests.
// One client owns one TCP connection; the magic preamble is sent at
// connect time, so the first frame can follow immediately.
//
// Two usage styles:
//
//   Synchronous (one request in flight):
//     auto client = NetClient::Connect("127.0.0.1", port);
//     auto estimate = client->Estimate("imdb", "SELECT ...");
//
//   Pipelined (the loadgen's closed loop with depth > 1):
//     client->SendEstimate(id, sketch, sql);   // repeat, distinct ids
//     auto resp = client->ReadResponse();      // match resp->request_id
//
// A client is NOT thread-safe: one thread per connection (the intended
// loadgen topology) or external locking.
//
// Rejected responses surface as Status::OutOfRange from the synchronous
// calls, and as WireStatus::kRejected on pipelined Response records — the
// caller decides whether shed is an error or an expected overload outcome.

#ifndef DS_NET_CLIENT_H_
#define DS_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ds/net/protocol.h"
#include "ds/obs/trace.h"
#include "ds/util/fd.h"
#include "ds/util/status.h"

namespace ds::net {

class NetClient {
 public:
  /// One decoded response frame, for the pipelined API.
  struct Response {
    uint64_t request_id = 0;
    FrameType type = FrameType::kPing;
    WireStatus status = WireStatus::kOk;
    double value = 0.0;       // valid when type==kEstimate && status==kOk
    std::string message;      // error/rejection message, or raw payload
  };

  /// Connects over TCP (IPv4) and sends the protocol magic.
  static Result<NetClient> Connect(const std::string& host, uint16_t port);

  NetClient(NetClient&&) = default;
  NetClient& operator=(NetClient&&) = default;
  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  /// Installs a trace recorder (borrowed; null switches tracing off).
  /// Every later Estimate / EstimateBatch / SendEstimate runs the
  /// recorder's sampling decision; a sampled request records a
  /// client_estimate span here AND ships its context on the wire behind
  /// kFlagTraceContext, so the server's spans land in the same trace.
  void set_tracer(obs::TraceRecorder* tracer) { tracer_ = tracer; }
  obs::TraceRecorder* tracer() const { return tracer_; }

  /// Identifies this connection's tenant for admission control.
  Status Hello(std::string_view tenant);

  /// Round-trips an empty frame (liveness / latency floor check).
  Status Ping();

  /// One estimate, blocking. kRejected maps to Status::OutOfRange,
  /// kError to Status::Internal carrying the server's message.
  Result<double> Estimate(std::string_view sketch, std::string_view sql);

  /// One batch, blocking. `out` gets one Result per statement, in order.
  Status EstimateBatch(std::string_view sketch,
                       const std::vector<std::string>& sqls,
                       std::vector<Result<double>>* out);

  /// The server's JSON metrics snapshot.
  Result<std::string> Stats();

  // ---- Pipelined API --------------------------------------------------------

  /// Writes one ESTIMATE frame without waiting for the response. Pair with
  /// ReadResponse(); use distinct request ids to match them up.
  Status SendEstimate(uint64_t request_id, std::string_view sketch,
                      std::string_view sql);

  /// Blocks for the next response frame (any type, any id).
  Result<Response> ReadResponse();

  bool connected() const { return fd_.valid(); }

 private:
  /// A sampled request's client-side span, open until its response.
  struct PendingTrace {
    uint64_t trace_id = 0;
    uint64_t span_id = 0;
    int64_t start_us = 0;
  };

  explicit NetClient(util::UniqueFd fd) : fd_(std::move(fd)) {}

  Status WriteAll(std::string_view bytes);
  /// Reads one complete frame (header + payload) into *header / *payload.
  Status ReadFrame(FrameHeader* header, std::string* payload);
  /// Sends `payload` as a frame of `type` and reads one response frame,
  /// which must echo `request_id` and match `type`.
  Status RoundTrip(FrameType type, uint64_t request_id,
                   std::string_view payload, FrameHeader* resp_header,
                   std::string* resp_payload, uint16_t flags = 0);
  /// Sampling decision + span-id allocation for one outgoing request.
  /// Returns an unsampled (trace_id 0) record when tracing is off.
  PendingTrace BeginTrace();
  /// Records the client_estimate span for a sampled request.
  void FinishTrace(const PendingTrace& trace, uint64_t value);

  util::UniqueFd fd_;
  std::string rbuf_;  // bytes past the frame ReadFrame last returned
  uint64_t next_id_ = 1;
  obs::TraceRecorder* tracer_ = nullptr;  // not owned
  /// request id -> open span, for the pipelined API (SendEstimate opens,
  /// ReadResponse closes).
  std::unordered_map<uint64_t, PendingTrace> pending_traces_;
};

/// Minimal blocking HTTP/1.1 GET ("Connection: close") against the
/// server's admin plane — what `dsctl top` and `dsctl trace export` use.
/// Extra request headers are (name, value) pairs. Returns the response
/// body on 2xx, an error Status carrying the status code otherwise.
Result<std::string> HttpGet(
    const std::string& host, uint16_t port, const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& headers = {});

}  // namespace ds::net

#endif  // DS_NET_CLIENT_H_
