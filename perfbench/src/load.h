// Load generation: open- and closed-loop drivers over loopback (binary
// ESTIMATE frames built with ds/net/protocol.h, or keep-alive HTTP/1.1
// POST /estimate) and in-process. NetClient is blocking with one request in
// flight per call, so an open loop needs its own driver: each client thread
// owns a few non-blocking-read sockets, sends on a fixed schedule and
// matches answers as they arrive.

#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"
#include "ds/util/fd.h"
#include "ds/util/status.h"

namespace perfbench {

enum class Protocol { kBinary, kHttp };

/// The statements a workload sends, their in-process reference estimates
/// and the seeded order they are sent in.
struct StatementSet {
  std::vector<std::string> sqls;
  std::vector<double> reference;   // DeepSketch::EstimateManyInto, once
  std::vector<uint32_t> sequence;  // request k sends sqls[sequence[k % n]]

  uint32_t StatementFor(uint64_t k) const {
    return sequence[k % sequence.size()];
  }
};

/// True when a served estimate is finite, >= 0 and equals the in-process
/// reference within ds_stress's batch-equivalence tolerance (1e-6
/// relative), widened by 0.05 for HTTP's one-decimal rendering.
bool MatchesReference(double served, double reference, Protocol protocol);

/// One request per statement: the ESTIMATE payload (binary; the frame
/// header is added per send) or a complete HTTP/1.1 POST /estimate.
std::vector<std::string> EncodeRequests(Protocol protocol,
                                        const std::string& sketch,
                                        const std::vector<std::string>& sqls);

/// One client socket. Binary answers are matched by request id; HTTP
/// answers come back in request order.
class Connection {
 public:
  struct Response {
    enum class Kind { kOk, kError, kRejected };
    uint64_t id = 0;
    Kind kind = Kind::kError;
    double value = 0;
  };

  static ds::Result<Connection> Open(uint16_t port, Protocol protocol);

  /// Writes one request (blocking).
  ds::Status Send(uint64_t id, const std::string& encoded);

  /// Reads what the socket holds without blocking and appends every
  /// complete response. Errors on EOF or a malformed response.
  ds::Status Receive(std::vector<Response>* out);

  /// Send, then wait for the answer (depth 1).
  ds::Result<Response> RoundTrip(uint64_t id, const std::string& encoded);

  int fd() const { return fd_.get(); }

 private:
  Connection(Protocol protocol, ds::util::UniqueFd fd)
      : protocol_(protocol), fd_(std::move(fd)) {}

  ds::Status WriteAll(std::string_view bytes);
  ds::Status ParseBinary(std::vector<Response>* out);
  ds::Status ParseHttp(std::vector<Response>* out);

  Protocol protocol_;
  ds::util::UniqueFd fd_;
  std::string rbuf_;
  size_t rpos_ = 0;                // bytes of rbuf_ already parsed
  std::deque<uint64_t> http_ids_;  // unanswered HTTP requests, in order
  std::string frame_;              // send scratch
};

/// Outcome counts and timings of one load phase. Besides the whole-phase
/// samples, the phase is cut into fixed windows by completion time, and
/// the reported figures are statistics over the windows (see main.cc).
struct PhaseStats {
  Samples latency_us;  // open loop: from the due time; closed: from send
  Samples late_us;     // open loop: send time minus due time
  uint64_t attempted = 0;
  uint64_t errors = 0;
  uint64_t rejected = 0;
  uint64_t wrong = 0;

  /// Sets the phase start and cuts [start, start + seconds) into windows
  /// of about `window_s`.
  void InitWindows(int64_t start_ns, double seconds, double window_s);

  /// Records one successful request completing at `done_ns`, carrying
  /// `estimates` estimates. Completions after the phase end count for the
  /// latency of the last window but not for throughput.
  void RecordOk(int64_t done_ns, double latency, uint64_t estimates);

  uint64_t failed() const { return errors + rejected + wrong; }

  /// Adds each window's `q` latency quantile to `out` (windows without
  /// samples are skipped).
  void AddWindowQuantiles(double q, Samples* out);
  /// Adds each window's estimates completed per second to `out`.
  void AddWindowThroughputs(Samples* out) const;

  void Merge(const PhaseStats& other);

 private:
  int64_t start_ns_ = 0;
  int64_t window_ns_ = 1;
  std::vector<Samples> window_latency_;
  std::vector<uint64_t> window_estimates_;
};

/// A phase is an open loop at `rate` requests per second (rate > 0), or a
/// closed loop keeping `depth` requests outstanding per connection (wire)
/// or one call per thread (in-process).
struct PhaseOptions {
  size_t threads = 2;
  size_t conns_per_thread = 2;  // wire only
  double rate = 0;
  size_t depth = 1;
  double seconds = 1;
  double window_s = 0.5;
  SpanLog* spans = nullptr;  // one span per request when enabled
  const char* span_name = "client.request";
};

/// Drives one phase over loopback. `cursor` is the position in
/// set.sequence; consecutive phases continue where the last one stopped.
PhaseStats RunWirePhase(uint16_t port, Protocol protocol,
                        const std::vector<std::string>& encoded,
                        const StatementSet& set, const PhaseOptions& opts,
                        std::atomic<uint64_t>* cursor);

/// One in-process call: the estimates it produced, or a failure.
struct CallOutcome {
  enum class Kind { kOk, kError, kWrong };
  Kind kind = Kind::kOk;
  uint64_t estimates = 0;
};

/// Drives one in-process phase; `call(k)` performs request k of the
/// workload's sequence.
PhaseStats RunInprocPhase(const std::function<CallOutcome(uint64_t)>& call,
                          const PhaseOptions& opts,
                          std::atomic<uint64_t>* cursor);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
