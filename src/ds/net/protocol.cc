#include "ds/net/protocol.h"

#include <charconv>
#include <cstring>

namespace ds::net {

bool IsKnownFrameType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kHello) &&
         type <= static_cast<uint8_t>(FrameType::kStats);
}

const char* WireStatusName(WireStatus status) {
  switch (status) {
    case WireStatus::kOk:
      return "ok";
    case WireStatus::kError:
      return "error";
    case WireStatus::kRejected:
      return "rejected";
  }
  return "unknown";
}

namespace {

template <typename T>
void AppendLE(std::string* out, T v) {
  // The build targets little-endian machines (x86-64/aarch64); memcpy of
  // the native representation IS the wire representation there, and the
  // compiler folds this to a plain store.
  char bytes[sizeof(T)];
  std::memcpy(bytes, &v, sizeof(T));
  out->append(bytes, sizeof(T));
}

}  // namespace

void AppendU16(std::string* out, uint16_t v) { AppendLE(out, v); }
void AppendU32(std::string* out, uint32_t v) { AppendLE(out, v); }
void AppendU64(std::string* out, uint64_t v) { AppendLE(out, v); }
void AppendF64(std::string* out, double v) { AppendLE(out, v); }

void AppendString16(std::string* out, std::string_view s) {
  AppendU16(out, static_cast<uint16_t>(s.size()));
  out->append(s.data(), s.size());
}

void AppendString32(std::string* out, std::string_view s) {
  AppendU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

bool ByteReader::Take(size_t n, const char** p) {
  if (remaining() < n) return false;
  *p = data_.data() + off_;
  off_ += n;
  return true;
}

bool ByteReader::ReadU8(uint8_t* v) {
  const char* p;
  if (!Take(1, &p)) return false;
  std::memcpy(v, p, 1);
  return true;
}

bool ByteReader::ReadU16(uint16_t* v) {
  const char* p;
  if (!Take(2, &p)) return false;
  std::memcpy(v, p, 2);
  return true;
}

bool ByteReader::ReadU32(uint32_t* v) {
  const char* p;
  if (!Take(4, &p)) return false;
  std::memcpy(v, p, 4);
  return true;
}

bool ByteReader::ReadU64(uint64_t* v) {
  const char* p;
  if (!Take(8, &p)) return false;
  std::memcpy(v, p, 8);
  return true;
}

bool ByteReader::ReadF64(double* v) {
  const char* p;
  if (!Take(8, &p)) return false;
  std::memcpy(v, p, 8);
  return true;
}

bool ByteReader::ReadString16(std::string* s) {
  uint16_t len;
  if (!ReadU16(&len)) return false;
  const char* p;
  if (!Take(len, &p)) return false;
  s->assign(p, len);
  return true;
}

bool ByteReader::ReadString32(std::string* s) {
  uint32_t len;
  if (!ReadU32(&len)) return false;
  const char* p;
  if (!Take(len, &p)) return false;
  s->assign(p, len);
  return true;
}

void AppendFrame(std::string* out, FrameType type, WireStatus status,
                 uint64_t request_id, std::string_view payload,
                 uint16_t flags) {
  AppendU32(out, static_cast<uint32_t>(payload.size()));
  out->push_back(static_cast<char>(type));
  out->push_back(static_cast<char>(status));
  AppendU16(out, flags);
  AppendU64(out, request_id);
  out->append(payload.data(), payload.size());
}

void AppendTraceContext(std::string* payload, uint64_t trace_id,
                        uint64_t parent_span) {
  AppendU64(payload, trace_id);
  AppendU64(payload, parent_span);
}

Status ConsumeTraceContext(uint16_t flags, std::string_view* payload,
                           uint64_t* trace_id, uint64_t* parent_span) {
  *trace_id = 0;
  *parent_span = 0;
  if ((flags & kFlagTraceContext) == 0) return Status::OK();
  if (payload->size() < kTraceContextSize) {
    return Status::ParseError(
        "trace-context flag set but payload is too short");
  }
  std::memcpy(trace_id, payload->data(), 8);
  std::memcpy(parent_span, payload->data() + 8, 8);
  payload->remove_prefix(kTraceContextSize);
  return Status::OK();
}

Status DecodeFrameHeader(const char* data, FrameHeader* out) {
  std::memcpy(&out->payload_size, data, 4);
  const uint8_t type = static_cast<uint8_t>(data[4]);
  const uint8_t status = static_cast<uint8_t>(data[5]);
  std::memcpy(&out->flags, data + 6, 2);
  std::memcpy(&out->request_id, data + 8, 8);
  if (!IsKnownFrameType(type)) {
    return Status::ParseError("unknown frame type " + std::to_string(type));
  }
  if (status > static_cast<uint8_t>(WireStatus::kRejected)) {
    return Status::ParseError("unknown frame status " +
                              std::to_string(status));
  }
  if ((out->flags & ~kKnownFlags) != 0) {
    return Status::ParseError("unknown reserved frame flag bits");
  }
  if (out->payload_size > kMaxPayloadBytes) {
    return Status::OutOfRange("frame payload of " +
                              std::to_string(out->payload_size) +
                              " bytes exceeds the " +
                              std::to_string(kMaxPayloadBytes) + " cap");
  }
  out->type = static_cast<FrameType>(type);
  out->status = static_cast<WireStatus>(status);
  return Status::OK();
}

void AppendEstimateRequest(std::string* payload, const EstimateRequest& req) {
  AppendString16(payload, req.sketch);
  AppendString32(payload, req.sql);
}

Status ParseEstimateRequest(std::string_view payload, EstimateRequest* out) {
  ByteReader r(payload);
  if (!r.ReadString16(&out->sketch) || !r.ReadString32(&out->sql) ||
      !r.empty()) {
    return Status::ParseError("malformed ESTIMATE payload");
  }
  return Status::OK();
}

void AppendEstimateBatchRequest(std::string* payload,
                                const EstimateBatchRequest& req) {
  AppendString16(payload, req.sketch);
  AppendU32(payload, static_cast<uint32_t>(req.sqls.size()));
  for (const std::string& sql : req.sqls) AppendString32(payload, sql);
}

Status ParseEstimateBatchRequest(std::string_view payload,
                                 EstimateBatchRequest* out) {
  ByteReader r(payload);
  uint32_t count;
  if (!r.ReadString16(&out->sketch) || !r.ReadU32(&count)) {
    return Status::ParseError("malformed ESTIMATE_BATCH payload");
  }
  // The count is attacker-controlled; each statement needs at least its
  // 4-byte length prefix, so `remaining / 4` bounds any honest count and
  // the reserve below cannot be inflated past the actual payload.
  if (count > r.remaining() / 4 + 1) {
    return Status::ParseError("ESTIMATE_BATCH count exceeds payload");
  }
  out->sqls.clear();
  out->sqls.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string sql;
    if (!r.ReadString32(&sql)) {
      return Status::ParseError("truncated ESTIMATE_BATCH statement");
    }
    out->sqls.push_back(std::move(sql));
  }
  if (!r.empty()) {
    return Status::ParseError("trailing bytes after ESTIMATE_BATCH payload");
  }
  return Status::OK();
}

void AppendBatchItem(std::string* payload, const Result<double>& result) {
  if (result.ok()) {
    payload->push_back(1);
    AppendF64(payload, *result);
  } else {
    payload->push_back(0);
    AppendString32(payload, result.status().message());
  }
}

Status ParseBatchResponse(std::string_view payload,
                          std::vector<Result<double>>* out) {
  ByteReader r(payload);
  uint32_t count;
  if (!r.ReadU32(&count)) {
    return Status::ParseError("malformed batch response");
  }
  if (count > r.remaining() + 1) {
    return Status::ParseError("batch response count exceeds payload");
  }
  out->clear();
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint8_t ok;
    if (!r.ReadU8(&ok)) {
      return Status::ParseError("truncated batch response item");
    }
    if (ok != 0) {
      double value;
      if (!r.ReadF64(&value)) {
        return Status::ParseError("truncated batch response value");
      }
      out->push_back(value);
    } else {
      std::string message;
      if (!r.ReadString32(&message)) {
        return Status::ParseError("truncated batch response error");
      }
      out->push_back(Status::Internal(std::move(message)));
    }
  }
  if (!r.empty()) {
    return Status::ParseError("trailing bytes after batch response");
  }
  return Status::OK();
}

Result<HostPort> ParseHostPort(std::string_view text) {
  const size_t colon = text.rfind(':');
  if (colon == std::string_view::npos || colon == 0) {
    return Status::InvalidArgument("expected host:port, got '" +
                                   std::string(text) + "'");
  }
  const std::string_view digits = text.substr(colon + 1);
  uint32_t port = 0;
  const char* end = digits.data() + digits.size();
  const auto [ptr, ec] = std::from_chars(digits.data(), end, port);
  if (digits.size() > 5 || ec != std::errc() || ptr != end || port > 65535) {
    return Status::InvalidArgument("port must be 0-65535 in decimal, got '" +
                                   std::string(text) + "'");
  }
  return HostPort{std::string(text.substr(0, colon)),
                  static_cast<uint16_t>(port)};
}

}  // namespace ds::net
