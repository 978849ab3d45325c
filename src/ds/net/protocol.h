// Wire protocol for the networked serving front-end (ds::net).
//
// A connection speaks one of two protocols, sniffed from its first bytes:
// clients that open with the 4-byte magic "DSKB" get the length-prefixed
// binary protocol below; anything else is treated as HTTP/1.1 (see
// ds/net/http.h). One listening port serves both.
//
// Binary framing — every message, both directions, is one frame:
//
//   offset  size  field
//   0       4     payload size (u32, little-endian; excludes this header)
//   4       1     frame type (FrameType)
//   5       1     status (WireStatus; requests always send kOk)
//   6       2     flags (bit 0x1 = trace context; other bits reserved,
//                 must be 0)
//   8       8     request id (u64; responses echo the request's id)
//   16      ...   payload
//
// Trace propagation: a frame with kFlagTraceContext set carries a 16-byte
// trace context — u64 trace id, u64 parent span id — immediately before
// the regular payload (and included in payload size). The flag's presence
// IS the sampled bit: an unsampled request simply omits the context. The
// server adopts the id, so client-side spans and server-side spans land in
// one coherent trace (see ds/obs/trace.h WireTraceContext).
//
// Frames are independent, so clients may pipeline: send N requests with
// distinct ids, then match responses by id as they arrive. The server
// answers frames of one connection in completion order, not submission
// order (micro-batching reorders), which is exactly why the id exists.
//
// Integers are little-endian; doubles are IEEE-754 binary64 in
// little-endian byte order. All strings are raw bytes with an explicit
// length prefix — nothing is NUL-terminated.
//
// Payload grammar per frame type (requests -> responses):
//   kHello:    str16 tenant            -> empty (status kOk)
//   kPing:     empty                   -> empty
//   kEstimate: str16 sketch, str32 sql -> f64 estimate          (kOk)
//                                      -> str payload = message (kError /
//                                                               kRejected)
//   kEstimateBatch: str16 sketch, u32 n, n x str32 sql
//              -> u32 n, n x { u8 ok, f64 value | str32 message }
//   kStats:    empty                   -> JSON metrics snapshot
//
// A frame whose payload exceeds kMaxPayloadBytes, whose type is unknown,
// or whose flags contain unknown bits is a protocol error; the server
// answers kError and closes the connection.

#ifndef DS_NET_PROTOCOL_H_
#define DS_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ds/util/status.h"

namespace ds::net {

inline constexpr char kMagic[4] = {'D', 'S', 'K', 'B'};
inline constexpr size_t kMagicSize = 4;
inline constexpr size_t kFrameHeaderSize = 16;

/// Frame flag: the payload is prefixed with a 16-byte trace context
/// (u64 trace id, u64 parent span id). Presence == sampled.
inline constexpr uint16_t kFlagTraceContext = 0x1;
/// Every flag bit the protocol defines; anything else is a parse error.
inline constexpr uint16_t kKnownFlags = kFlagTraceContext;
inline constexpr size_t kTraceContextSize = 16;

/// Upper bound on a single frame's payload. Large enough for a generous
/// statement batch, small enough that a malicious length prefix cannot
/// make the server buffer gigabytes.
inline constexpr uint32_t kMaxPayloadBytes = 1u << 20;

enum class FrameType : uint8_t {
  kHello = 1,
  kPing = 2,
  kEstimate = 3,
  kEstimateBatch = 4,
  kStats = 5,
};

enum class WireStatus : uint8_t {
  kOk = 0,
  kError = 1,
  kRejected = 2,  // admission control / backpressure shed the request
};

/// True when `type` is one of the FrameType enumerators.
bool IsKnownFrameType(uint8_t type);

/// Stable lowercase name ("ok", "error", "rejected") — used as the
/// `status` label value of ds_net_responses_total.
const char* WireStatusName(WireStatus status);

struct FrameHeader {
  uint32_t payload_size = 0;
  FrameType type = FrameType::kPing;
  WireStatus status = WireStatus::kOk;
  uint16_t flags = 0;
  uint64_t request_id = 0;
};

// ---- Primitive encoding (little-endian, append-to-string) -------------------

void AppendU16(std::string* out, uint16_t v);
void AppendU32(std::string* out, uint32_t v);
void AppendU64(std::string* out, uint64_t v);
void AppendF64(std::string* out, double v);
/// u16 length + bytes. Truncates nothing: callers must pre-check length.
void AppendString16(std::string* out, std::string_view s);
/// u32 length + bytes.
void AppendString32(std::string* out, std::string_view s);

/// Bounds-checked cursor over a received payload. Every Read* returns
/// false (leaving the output untouched) instead of reading past the end —
/// parsing code never touches bytes it was not given.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  bool ReadU8(uint8_t* v);
  bool ReadU16(uint16_t* v);
  bool ReadU32(uint32_t* v);
  bool ReadU64(uint64_t* v);
  bool ReadF64(double* v);
  bool ReadString16(std::string* s);
  bool ReadString32(std::string* s);

  size_t remaining() const { return data_.size() - off_; }
  bool empty() const { return remaining() == 0; }

 private:
  bool Take(size_t n, const char** p);
  std::string_view data_;
  size_t off_ = 0;
};

// ---- Frames -----------------------------------------------------------------

/// Appends a complete frame (header with payload_size = payload.size(),
/// then the payload) to `out`. `flags` must be within kKnownFlags; a
/// kFlagTraceContext frame's payload must start with the 16-byte trace
/// context (see AppendTraceContext).
void AppendFrame(std::string* out, FrameType type, WireStatus status,
                 uint64_t request_id, std::string_view payload,
                 uint16_t flags = 0);

/// Decodes a header from exactly kFrameHeaderSize bytes. Errors on an
/// unknown type, unknown flag bits, or a payload size above
/// kMaxPayloadBytes.
Status DecodeFrameHeader(const char* data, FrameHeader* out);

/// Appends the 16-byte wire trace context (the kFlagTraceContext payload
/// prefix).
void AppendTraceContext(std::string* payload, uint64_t trace_id,
                        uint64_t parent_span);

/// Strips a leading trace context off `*payload` (advancing it past the 16
/// bytes) when `flags` has kFlagTraceContext set; otherwise leaves
/// everything untouched with both outputs zero. Errors when the flag is
/// set but the payload is too short.
Status ConsumeTraceContext(uint16_t flags, std::string_view* payload,
                           uint64_t* trace_id, uint64_t* parent_span);

// ---- Message payloads -------------------------------------------------------

struct EstimateRequest {
  std::string sketch;
  std::string sql;
};

void AppendEstimateRequest(std::string* payload, const EstimateRequest& req);
Status ParseEstimateRequest(std::string_view payload, EstimateRequest* out);

struct EstimateBatchRequest {
  std::string sketch;
  std::vector<std::string> sqls;
};

void AppendEstimateBatchRequest(std::string* payload,
                                const EstimateBatchRequest& req);
Status ParseEstimateBatchRequest(std::string_view payload,
                                 EstimateBatchRequest* out);

/// One batch-response item: `u8 ok` then the value or the error message.
void AppendBatchItem(std::string* payload, const Result<double>& result);

/// Parses a kEstimateBatch response payload into per-statement results
/// (errored items become Status::Internal with the carried message).
Status ParseBatchResponse(std::string_view payload,
                          std::vector<Result<double>>* out);

/// A TCP endpoint as written on command lines: "host:port".
struct HostPort {
  std::string host;
  uint16_t port = 0;
};

/// Parses "host:port", split at the last ':'. The host must be non-empty
/// and the port 1-5 decimal digits with a value <= 65535. Port 0 is legal:
/// to a listener it means "bind an ephemeral port". The one parser behind
/// every host:port argument of ds_served and dsctl.
Result<HostPort> ParseHostPort(std::string_view text);

}  // namespace ds::net

#endif  // DS_NET_PROTOCOL_H_
