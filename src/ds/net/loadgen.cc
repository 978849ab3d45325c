#include "ds/net/loadgen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <unordered_map>

#include "ds/net/client.h"
#include "ds/obs/trace.h"
#include "ds/util/timer.h"

namespace ds::net {

namespace {

uint64_t MicrosSince(std::chrono::steady_clock::time_point start) {
  const auto delta = std::chrono::steady_clock::now() - start;
  return static_cast<uint64_t>(std::max<int64_t>(
      0, std::chrono::duration_cast<std::chrono::microseconds>(delta)
             .count()));
}

}  // namespace

std::string LoadReport::LatencyTable() const {
  std::string out = "latency (us):\n";
  char line[96];
  std::snprintf(line, sizeof(line), "  %-6s %llu\n  %-6s %.1f\n", "count",
                static_cast<unsigned long long>(latency_us.count), "mean",
                latency_us.Mean());
  out += line;
  static constexpr struct {
    const char* name;
    double p;
  } kRows[] = {{"p50", 0.50}, {"p90", 0.90}, {"p95", 0.95}, {"p99", 0.99}};
  for (const auto& row : kRows) {
    std::snprintf(line, sizeof(line), "  %-6s %llu\n", row.name,
                  static_cast<unsigned long long>(
                      latency_us.ApproxPercentile(row.p)));
    out += line;
  }
  std::snprintf(line, sizeof(line), "  %-6s %llu\n", "max",
                static_cast<unsigned long long>(latency_us.max));
  out += line;
  return out;
}

LoadReport RunClosedLoop(const std::string& host, uint16_t port,
                         const std::string& sketch_name,
                         const std::vector<std::string>& sqls,
                         const LoadOptions& options,
                         const std::string& tenant) {
  LoadReport report;
  if (sqls.empty()) return report;
  const size_t threads = std::max<size_t>(options.threads, 1);
  const size_t depth = std::max<size_t>(options.pipeline_depth, 1);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(
          static_cast<int64_t>(options.seconds * 1e6));

  obs::Histogram latency;  // lock-free writes from every client thread
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> rejected{0};
  std::atomic<uint64_t> failed_connections{0};
  util::WallTimer timer;
  std::vector<std::thread> clients;
  clients.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      uint64_t my_ok = 0, my_errors = 0, my_rejected = 0;
      auto connected = NetClient::Connect(host, port);
      if (!connected.ok()) {
        failed_connections.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      NetClient client = std::move(connected).value();
      obs::TraceRecorder tracer(
          {.capacity = 256, .sample_every = options.trace_sample_every});
      if (options.trace_sample_every > 0) client.set_tracer(&tracer);
      if (!tenant.empty() && !client.Hello(tenant).ok()) {
        failed_connections.fetch_add(1, std::memory_order_relaxed);
        return;
      }

      // request id -> send time; ids are per-connection, so plain
      // counters per thread cannot collide.
      std::unordered_map<uint64_t, std::chrono::steady_clock::time_point>
          pending;
      uint64_t next_id = 1;
      size_t next = t;  // stagger the query mix across clients
      bool dead = false;
      auto settle_one = [&] {
        auto resp = client.ReadResponse();
        if (!resp.ok()) {
          // Connection failure: everything outstanding is lost.
          my_errors += pending.size();
          pending.clear();
          dead = true;
          return;
        }
        const auto it = pending.find(resp->request_id);
        if (it == pending.end()) return;  // stray frame; nothing to settle
        const auto sent = it->second;
        pending.erase(it);
        switch (resp->status) {
          case WireStatus::kOk:
            ++my_ok;
            latency.Observe(MicrosSince(sent));
            break;
          case WireStatus::kError:
            ++my_errors;
            latency.Observe(MicrosSince(sent));
            break;
          case WireStatus::kRejected:
            // Shed before it reached a worker — no latency sample.
            ++my_rejected;
            break;
        }
      };
      while (!dead && std::chrono::steady_clock::now() < deadline) {
        while (pending.size() < depth) {
          const uint64_t id = next_id++;
          if (!client.SendEstimate(id, sketch_name,
                                   sqls[next++ % sqls.size()])
                   .ok()) {
            my_errors += pending.size() + 1;
            pending.clear();
            dead = true;
            break;
          }
          pending.emplace(id, std::chrono::steady_clock::now());
        }
        if (!dead) settle_one();
      }
      while (!dead && !pending.empty()) settle_one();
      ok.fetch_add(my_ok, std::memory_order_relaxed);
      errors.fetch_add(my_errors, std::memory_order_relaxed);
      rejected.fetch_add(my_rejected, std::memory_order_relaxed);
    });
  }
  for (std::thread& c : clients) c.join();
  report.elapsed_seconds = timer.ElapsedSeconds();
  report.ok = ok.load();
  report.errors = errors.load();
  report.rejected = rejected.load();
  report.failed_connections = failed_connections.load();
  report.latency_us = latency.Snapshot();
  return report;
}

}  // namespace ds::net
