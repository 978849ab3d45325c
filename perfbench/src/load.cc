#include "load.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <unordered_map>

#include "ds/net/http.h"
#include "ds/net/protocol.h"

namespace perfbench {

using namespace ds;

bool MatchesReference(double served, double reference, Protocol protocol) {
  if (!std::isfinite(served) || served < 0) return false;
  const double scale = std::max(std::fabs(served), std::fabs(reference));
  const double rounding = protocol == Protocol::kHttp ? 0.05 : 0.0;
  return std::fabs(served - reference) <= 1e-6 * scale + 1e-9 + rounding;
}

std::vector<std::string> EncodeRequests(Protocol protocol,
                                        const std::string& sketch,
                                        const std::vector<std::string>& sqls) {
  std::vector<std::string> out;
  out.reserve(sqls.size());
  for (const std::string& sql : sqls) {
    std::string request;
    if (protocol == Protocol::kBinary) {
      net::AppendEstimateRequest(&request, net::EstimateRequest{sketch, sql});
    } else {
      const std::string body = "{\"sketch\":\"" + net::JsonEscape(sketch) +
                               "\",\"sql\":\"" + net::JsonEscape(sql) + "\"}";
      request =
          "POST /estimate HTTP/1.1\r\nHost: 127.0.0.1\r\n"
          "Content-Type: application/json\r\nContent-Length: " +
          std::to_string(body.size()) + "\r\n\r\n" + body;
    }
    out.push_back(std::move(request));
  }
  return out;
}

// ---- Connection -------------------------------------------------------------

Result<Connection> Connection::Open(uint16_t port, Protocol protocol) {
  util::UniqueFd fd(socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::IOError("connect 127.0.0.1:" + std::to_string(port) +
                           ": " + std::strerror(errno));
  }
  const int one = 1;
  setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  Connection conn(protocol, std::move(fd));
  if (protocol == Protocol::kBinary) {
    DS_RETURN_NOT_OK(
        conn.WriteAll(std::string_view(net::kMagic, net::kMagicSize)));
  }
  return conn;
}

Status Connection::WriteAll(std::string_view bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        send(fd_.get(), bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::IOError(std::string("send: ") + std::strerror(errno));
  }
  return Status::OK();
}

Status Connection::Send(uint64_t id, const std::string& encoded) {
  if (protocol_ == Protocol::kBinary) {
    frame_.clear();
    net::AppendFrame(&frame_, net::FrameType::kEstimate, net::WireStatus::kOk,
                     id, encoded);
    return WriteAll(frame_);
  }
  http_ids_.push_back(id);
  return WriteAll(encoded);
}

Status Connection::Receive(std::vector<Response>* out) {
  char chunk[64 * 1024];
  while (true) {
    const ssize_t n = recv(fd_.get(), chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n > 0) {
      rbuf_.append(chunk, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(chunk)) break;
      continue;
    }
    if (n == 0) return Status::IOError("server closed the connection");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return Status::IOError(std::string("recv: ") + std::strerror(errno));
  }
  Status st = protocol_ == Protocol::kBinary ? ParseBinary(out)
                                             : ParseHttp(out);
  if (rpos_ == rbuf_.size()) {
    rbuf_.clear();
    rpos_ = 0;
  } else if (rpos_ > (64u << 10)) {
    rbuf_.erase(0, rpos_);
    rpos_ = 0;
  }
  return st;
}

Status Connection::ParseBinary(std::vector<Response>* out) {
  while (rbuf_.size() - rpos_ >= net::kFrameHeaderSize) {
    net::FrameHeader header;
    DS_RETURN_NOT_OK(net::DecodeFrameHeader(rbuf_.data() + rpos_, &header));
    const size_t total = net::kFrameHeaderSize + header.payload_size;
    if (rbuf_.size() - rpos_ < total) break;
    Response r;
    r.id = header.request_id;
    if (header.type == net::FrameType::kEstimate &&
        header.status == net::WireStatus::kOk) {
      net::ByteReader reader(std::string_view(
          rbuf_.data() + rpos_ + net::kFrameHeaderSize, header.payload_size));
      if (reader.ReadF64(&r.value)) r.kind = Response::Kind::kOk;
    } else if (header.status == net::WireStatus::kRejected) {
      r.kind = Response::Kind::kRejected;
    }
    out->push_back(r);
    rpos_ += total;
  }
  return Status::OK();
}

Status Connection::ParseHttp(std::vector<Response>* out) {
  static constexpr std::string_view kLength = "Content-Length: ";
  static constexpr std::string_view kEstimate = "\"estimate\":";
  while (true) {
    const std::string_view buf(rbuf_.data() + rpos_, rbuf_.size() - rpos_);
    const size_t head_end = buf.find("\r\n\r\n");
    if (head_end == std::string_view::npos) break;
    const std::string_view head = buf.substr(0, head_end);
    if (head.size() < 12 || head.substr(0, 9) != "HTTP/1.1 ") {
      return Status::ParseError("malformed HTTP status line");
    }
    const int status = std::atoi(std::string(head.substr(9, 3)).c_str());
    const size_t at = head.find(kLength);
    if (at == std::string_view::npos) {
      return Status::ParseError("HTTP response without Content-Length");
    }
    const size_t length = std::strtoul(
        std::string(head.substr(at + kLength.size(), 16)).c_str(), nullptr,
        10);
    const size_t total = head_end + 4 + length;
    if (buf.size() < total) break;
    if (http_ids_.empty()) return Status::Internal("unsolicited HTTP response");
    Response r;
    r.id = http_ids_.front();
    http_ids_.pop_front();
    if (status == 200) {
      const std::string body(buf.substr(head_end + 4, length));
      const size_t key = body.find(kEstimate);
      if (key != std::string::npos) {
        const char* begin = body.c_str() + key + kEstimate.size();
        char* end = nullptr;
        r.value = std::strtod(begin, &end);
        if (end != begin) r.kind = Response::Kind::kOk;
      }
    } else if (status == 429) {
      r.kind = Response::Kind::kRejected;
    }
    out->push_back(r);
    rpos_ += total;
  }
  return Status::OK();
}

Result<Connection::Response> Connection::RoundTrip(
    uint64_t id, const std::string& encoded) {
  DS_RETURN_NOT_OK(Send(id, encoded));
  std::vector<Response> got;
  while (got.empty()) {
    pollfd p{fd_.get(), POLLIN, 0};
    const int rc = poll(&p, 1, 10'000);
    if (rc == 0) return Status::IOError("no answer within 10 s");
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("poll: ") + std::strerror(errno));
    }
    DS_RETURN_NOT_OK(Receive(&got));
  }
  return got.front();
}

// ---- Phases -----------------------------------------------------------------

void PhaseStats::InitWindows(int64_t start_ns, double seconds,
                             double window_s) {
  const size_t n = std::max<size_t>(1, std::lround(seconds / window_s));
  start_ns_ = start_ns;
  window_ns_ = std::max<int64_t>(1, static_cast<int64_t>(seconds * 1e9 / n));
  window_latency_.assign(n, Samples());
  window_estimates_.assign(n, 0);
}

void PhaseStats::RecordOk(int64_t done_ns, double latency,
                          uint64_t estimates) {
  latency_us.Add(latency);
  if (window_latency_.empty()) return;
  const int64_t w = (done_ns - start_ns_) / window_ns_;
  const size_t last = window_latency_.size() - 1;
  window_latency_[std::clamp<int64_t>(w, 0, last)].Add(latency);
  if (w >= 0 && static_cast<size_t>(w) <= last) {
    window_estimates_[w] += estimates;
  }
}

void PhaseStats::AddWindowQuantiles(double q, Samples* out) {
  for (Samples& s : window_latency_) {
    if (s.count() > 0) out->Add(s.Quantile(q));
  }
}

void PhaseStats::AddWindowThroughputs(Samples* out) const {
  for (uint64_t n : window_estimates_) {
    out->Add(static_cast<double>(n) * 1e9 / window_ns_);
  }
}

void PhaseStats::Merge(const PhaseStats& other) {
  latency_us.Merge(other.latency_us);
  late_us.Merge(other.late_us);
  attempted += other.attempted;
  errors += other.errors;
  rejected += other.rejected;
  wrong += other.wrong;
  if (window_latency_.size() == other.window_latency_.size()) {
    for (size_t w = 0; w < window_latency_.size(); ++w) {
      window_latency_[w].Merge(other.window_latency_[w]);
      window_estimates_[w] += other.window_estimates_[w];
    }
  }
}

namespace {

// Answers still missing this long after the phase ends count as errors.
constexpr int64_t kDrainNs = 5'000'000'000;

timespec ToTimespec(int64_t ns) {
  return timespec{static_cast<time_t>(ns / 1'000'000'000),
                  static_cast<long>(ns % 1'000'000'000)};
}

/// Sleeps until the steady clock reads `due_ns` (the steady clock is
/// CLOCK_MONOTONIC), spinning through the last 50 us.
void SleepUntil(int64_t due_ns) {
  const int64_t wake = due_ns - 50'000;
  if (wake > NowNs()) {
    const timespec ts = ToTimespec(wake);
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
           EINTR) {
    }
  }
  while (NowNs() < due_ns) {
  }
}

/// Open-loop send schedule of one client thread: the phase's rate split
/// evenly over the threads, phase-shifted so the sends interleave.
struct Schedule {
  int64_t start_ns = 0;
  double interval_ns = 0;
  double offset_ns = 0;

  int64_t Due(uint64_t k) const {
    return start_ns + static_cast<int64_t>(offset_ns + k * interval_ns);
  }
};

Schedule ThreadSchedule(const PhaseOptions& opts, size_t thread,
                        int64_t start_ns) {
  Schedule s;
  s.start_ns = start_ns;
  if (opts.rate > 0) {
    s.interval_ns = 1e9 * static_cast<double>(opts.threads) / opts.rate;
    s.offset_ns = s.interval_ns * static_cast<double>(thread) /
                  static_cast<double>(opts.threads);
  }
  return s;
}

struct Pending {
  uint32_t stmt = 0;
  uint32_t conn = 0;
  int64_t due_ns = 0;  // latency origin: due time (open) or send time
  int64_t sent_ns = 0;
};

/// One wire client thread: its sockets, outstanding requests and tallies.
class WireClient {
 public:
  WireClient(Protocol protocol, const std::vector<std::string>* encoded,
             const StatementSet* set, const PhaseOptions* opts,
             std::atomic<uint64_t>* cursor)
      : protocol_(protocol),
        encoded_(encoded),
        set_(set),
        opts_(opts),
        cursor_(cursor) {}

  std::vector<Connection>& conns() { return conns_; }
  PhaseStats& stats() { return stats_; }
  std::vector<Span>& spans() { return spans_; }

  void Run(const Schedule& schedule, int64_t end_ns) {
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    const bool open_loop = opts_->rate > 0;
    std::vector<pollfd> pfds;
    for (const Connection& c : conns_) pfds.push_back({c.fd(), POLLIN, 0});
    if (!open_loop) {
      SleepUntil(schedule.start_ns);
      for (size_t c = 0; c < conns_.size(); ++c) {
        for (size_t d = 0; d < opts_->depth; ++d) Send(c, NowNs());
      }
    }
    uint64_t k = 0;
    int64_t next_due = schedule.Due(0);
    std::vector<Connection::Response> responses;
    while (true) {
      int64_t now = NowNs();
      while (open_loop && next_due <= now && next_due < end_ns) {
        Send(k % conns_.size(), next_due);
        next_due = schedule.Due(++k);
        now = NowNs();
      }
      const bool sending = open_loop ? next_due < end_ns : now < end_ns;
      if (!sending && pending_.empty()) break;
      if (now > end_ns + kDrainNs) {
        stats_.errors += pending_.size();  // never answered
        break;
      }
      int64_t wait_ns = 10'000'000;
      if (open_loop && sending) wait_ns = std::max<int64_t>(0, next_due - now);
      const timespec timeout = ToTimespec(wait_ns);
      const int rc = ppoll(pfds.data(), pfds.size(), &timeout, nullptr);
      if (rc <= 0) continue;
      for (size_t c = 0; c < pfds.size(); ++c) {
        if (pfds[c].revents == 0) continue;
        responses.clear();
        const Status st = conns_[c].Receive(&responses);
        for (const auto& r : responses) Complete(r, end_ns);
        if (!st.ok()) {
          // The connection is unusable; its outstanding requests are lost.
          std::erase_if(pending_, [&](const auto& entry) {
            if (entry.second.conn != c) return false;
            ++stats_.errors;
            return true;
          });
          pfds[c].fd = -1;  // poll ignores negative descriptors
        }
      }
    }
  }

 private:
  void Send(size_t conn, int64_t due_ns) {
    const uint64_t seq = cursor_->fetch_add(1, std::memory_order_relaxed);
    const uint32_t stmt = set_->StatementFor(seq);
    const uint64_t id = next_id_++;
    ++stats_.attempted;
    const int64_t sent_ns = NowNs();
    if (!conns_[conn].Send(id, (*encoded_)[stmt]).ok()) {
      ++stats_.errors;
      return;
    }
    const bool open_loop = opts_->rate > 0;
    if (open_loop) stats_.late_us.Add(MicrosBetween(due_ns, sent_ns));
    pending_[id] = Pending{stmt, static_cast<uint32_t>(conn),
                           open_loop ? due_ns : sent_ns, sent_ns};
  }

  void Complete(const Connection::Response& r, int64_t end_ns) {
    const int64_t now = NowNs();
    auto it = pending_.find(r.id);
    if (it == pending_.end()) {
      ++stats_.errors;  // an answer to nothing we sent
      return;
    }
    const Pending p = it->second;
    pending_.erase(it);
    switch (r.kind) {
      case Connection::Response::Kind::kOk:
        if (MatchesReference(r.value, set_->reference[p.stmt], protocol_)) {
          stats_.RecordOk(now, MicrosBetween(p.due_ns, now), 1);
        } else {
          ++stats_.wrong;
        }
        break;
      case Connection::Response::Kind::kRejected:
        ++stats_.rejected;
        break;
      case Connection::Response::Kind::kError:
        ++stats_.errors;
        break;
    }
    if (opts_->spans != nullptr && opts_->spans->enabled()) {
      spans_.push_back(
          Span{opts_->span_name, opts_->spans->NewId(), 0, p.sent_ns, now});
    }
    if (opts_->rate <= 0 && now < end_ns) Send(p.conn, now);
  }

  Protocol protocol_;
  const std::vector<std::string>* encoded_;
  const StatementSet* set_;
  const PhaseOptions* opts_;
  std::atomic<uint64_t>* cursor_;
  std::vector<Connection> conns_;
  std::unordered_map<uint64_t, Pending> pending_;
  uint64_t next_id_ = 1;
  PhaseStats stats_;
  std::vector<Span> spans_;
};

// Lets every thread reach its loop before the first request is due.
constexpr int64_t kStartDelayNs = 5'000'000;

}  // namespace

PhaseStats RunWirePhase(uint16_t port, Protocol protocol,
                        const std::vector<std::string>& encoded,
                        const StatementSet& set, const PhaseOptions& opts,
                        std::atomic<uint64_t>* cursor) {
  PhaseStats total;
  std::vector<std::unique_ptr<WireClient>> clients;
  for (size_t t = 0; t < opts.threads; ++t) {
    clients.push_back(
        std::make_unique<WireClient>(protocol, &encoded, &set, &opts, cursor));
    for (size_t c = 0; c < opts.conns_per_thread; ++c) {
      auto conn = Connection::Open(port, protocol);
      if (!conn.ok()) {
        std::fprintf(stderr, "perfbench: %s\n",
                     conn.status().ToString().c_str());
        ++total.attempted;
        ++total.errors;
        return total;
      }
      clients.back()->conns().push_back(std::move(conn).value());
    }
  }
  const int64_t start_ns = NowNs() + kStartDelayNs;
  const int64_t end_ns =
      start_ns + static_cast<int64_t>(opts.seconds * 1e9);
  total.InitWindows(start_ns, opts.seconds, opts.window_s);
  for (auto& client : clients) {
    client->stats().InitWindows(start_ns, opts.seconds, opts.window_s);
  }
  std::vector<std::thread> threads;
  for (size_t t = 0; t < clients.size(); ++t) {
    threads.emplace_back([&, t] {
      clients[t]->Run(ThreadSchedule(opts, t, start_ns), end_ns);
    });
  }
  for (std::thread& th : threads) th.join();
  for (auto& client : clients) {
    total.Merge(client->stats());
    if (opts.spans != nullptr && opts.spans->enabled()) {
      opts.spans->Append(&client->spans());
    }
  }
  return total;
}

PhaseStats RunInprocPhase(const std::function<CallOutcome(uint64_t)>& call,
                          const PhaseOptions& opts,
                          std::atomic<uint64_t>* cursor) {
  const int64_t start_ns = NowNs() + kStartDelayNs;
  const int64_t end_ns =
      start_ns + static_cast<int64_t>(opts.seconds * 1e9);
  const bool open_loop = opts.rate > 0;
  const bool traced = opts.spans != nullptr && opts.spans->enabled();
  std::vector<PhaseStats> stats(opts.threads);
  for (PhaseStats& s : stats) {
    s.InitWindows(start_ns, opts.seconds, opts.window_s);
  }
  std::vector<std::vector<Span>> spans(opts.threads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < opts.threads; ++t) {
    threads.emplace_back([&, t] {
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      const Schedule schedule = ThreadSchedule(opts, t, start_ns);
      PhaseStats& s = stats[t];
      SleepUntil(start_ns);
      for (uint64_t k = 0;; ++k) {
        const int64_t due = open_loop ? schedule.Due(k) : NowNs();
        if (due >= end_ns) break;
        if (open_loop) SleepUntil(due);
        const int64_t begin = NowNs();
        if (open_loop) s.late_us.Add(MicrosBetween(due, begin));
        const CallOutcome outcome =
            call(cursor->fetch_add(1, std::memory_order_relaxed));
        const int64_t end = NowNs();
        ++s.attempted;
        switch (outcome.kind) {
          case CallOutcome::Kind::kOk:
            s.RecordOk(end, MicrosBetween(due, end), outcome.estimates);
            break;
          case CallOutcome::Kind::kError:
            ++s.errors;
            break;
          case CallOutcome::Kind::kWrong:
            ++s.wrong;
            break;
        }
        if (traced) {
          spans[t].push_back(
              Span{opts.span_name, opts.spans->NewId(), 0, begin, end});
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  PhaseStats total;
  total.InitWindows(start_ns, opts.seconds, opts.window_s);
  for (size_t t = 0; t < opts.threads; ++t) {
    total.Merge(stats[t]);
    if (traced) opts.spans->Append(&spans[t]);
  }
  return total;
}

}  // namespace perfbench
