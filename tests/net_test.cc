// Tests for the network front-end (ds::net): wire protocol encoding and
// validation, the token-bucket admission controller, the minimal HTTP
// parser and JSON helpers, and end-to-end server tests over real loopback
// sockets — binary protocol (estimate, batch, ping, stats, hello/tenant,
// pipelining, admission rejection), the HTTP endpoints, concurrent
// clients, golden reply bytes for every request kind and outcome, and the
// wire and tenant ledgers balancing after a clean shutdown (also when a
// client hangs up mid-request or the backend stops first).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ds/net/admission.h"
#include "ds/net/client.h"
#include "ds/net/http.h"
#include "ds/net/protocol.h"
#include "ds/net/server.h"
#include "ds/obs/exposition.h"
#include "ds/obs/trace.h"
#include "ds/serve/registry.h"
#include "ds/serve/server.h"
#include "ds/sketch/deep_sketch.h"
#include "ds/util/json_check.h"
#include "test_util.h"

#if defined(__linux__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>
#endif

namespace ds {
namespace {

using net::AdmissionController;
using net::AdmissionOptions;
using net::ByteReader;
using net::FrameHeader;
using net::FrameType;
using net::NetClient;
using net::NetServer;
using net::NetServerOptions;
using net::TokenBucket;
using net::WireStatus;

// ------------------------------------------------------------- protocol

TEST(ProtocolTest, FrameRoundTrip) {
  std::string frame;
  net::AppendFrame(&frame, FrameType::kEstimate, WireStatus::kOk, 77,
                   "payload");
  ASSERT_EQ(frame.size(), net::kFrameHeaderSize + 7);
  FrameHeader header;
  ASSERT_TRUE(net::DecodeFrameHeader(frame.data(), &header).ok());
  EXPECT_EQ(header.payload_size, 7u);
  EXPECT_EQ(header.type, FrameType::kEstimate);
  EXPECT_EQ(header.status, WireStatus::kOk);
  EXPECT_EQ(header.flags, 0);
  EXPECT_EQ(header.request_id, 77u);
  EXPECT_EQ(frame.substr(net::kFrameHeaderSize), "payload");
}

TEST(ProtocolTest, HeaderRejectsUnknownType) {
  std::string frame;
  net::AppendFrame(&frame, FrameType::kPing, WireStatus::kOk, 1, "");
  frame[4] = 99;  // type byte
  FrameHeader header;
  EXPECT_FALSE(net::DecodeFrameHeader(frame.data(), &header).ok());
}

TEST(ProtocolTest, HeaderRejectsUnknownFlags) {
  std::string frame;
  net::AppendFrame(&frame, FrameType::kPing, WireStatus::kOk, 1, "");
  frame[6] = 2;  // flags low byte: bit outside kKnownFlags
  FrameHeader header;
  EXPECT_FALSE(net::DecodeFrameHeader(frame.data(), &header).ok());
}

TEST(ProtocolTest, HeaderAcceptsTraceContextFlag) {
  std::string frame;
  net::AppendFrame(&frame, FrameType::kPing, WireStatus::kOk, 1, "",
                   net::kFlagTraceContext);
  FrameHeader header;
  ASSERT_TRUE(net::DecodeFrameHeader(frame.data(), &header).ok());
  EXPECT_EQ(header.flags, net::kFlagTraceContext);
}

TEST(ProtocolTest, TraceContextRoundTrip) {
  std::string payload;
  net::AppendTraceContext(&payload, 0xabcdef0123456789ull, 0x42ull);
  payload += "body";
  ASSERT_EQ(payload.size(), net::kTraceContextSize + 4);
  std::string_view view = payload;
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;
  ASSERT_TRUE(net::ConsumeTraceContext(net::kFlagTraceContext, &view,
                                       &trace_id, &parent_span)
                  .ok());
  EXPECT_EQ(trace_id, 0xabcdef0123456789ull);
  EXPECT_EQ(parent_span, 0x42ull);
  EXPECT_EQ(view, "body");  // prefix consumed, body left for the parser
}

TEST(ProtocolTest, TraceContextAbsentWhenFlagClear) {
  std::string payload = "body";
  std::string_view view = payload;
  uint64_t trace_id = 99;
  uint64_t parent_span = 99;
  ASSERT_TRUE(
      net::ConsumeTraceContext(0, &view, &trace_id, &parent_span).ok());
  EXPECT_EQ(trace_id, 0u);  // cleared: no context on the wire
  EXPECT_EQ(parent_span, 0u);
  EXPECT_EQ(view, "body");
}

TEST(ProtocolTest, TraceContextTruncatedPayloadRejected) {
  std::string payload = "short";  // < kTraceContextSize
  std::string_view view = payload;
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;
  EXPECT_FALSE(net::ConsumeTraceContext(net::kFlagTraceContext, &view,
                                        &trace_id, &parent_span)
                   .ok());
}

TEST(ProtocolTest, HeaderRejectsOversizePayload) {
  std::string frame;
  net::AppendFrame(&frame, FrameType::kPing, WireStatus::kOk, 1, "");
  const uint32_t huge = net::kMaxPayloadBytes + 1;
  std::memcpy(frame.data(), &huge, sizeof(huge));
  FrameHeader header;
  EXPECT_FALSE(net::DecodeFrameHeader(frame.data(), &header).ok());
}

TEST(ProtocolTest, ByteReaderBoundsChecked) {
  std::string payload;
  net::AppendU32(&payload, 7);
  ByteReader r(payload);
  uint64_t v64 = 0;
  EXPECT_FALSE(r.ReadU64(&v64));  // only 4 bytes present
  uint32_t v32 = 0;
  EXPECT_TRUE(r.ReadU32(&v32));
  EXPECT_EQ(v32, 7u);
  EXPECT_TRUE(r.empty());
  uint8_t v8 = 0;
  EXPECT_FALSE(r.ReadU8(&v8));  // exhausted
}

TEST(ProtocolTest, ByteReaderStringLengthBeyondDataFails) {
  std::string payload;
  net::AppendU16(&payload, 100);  // claims 100 bytes, provides 2
  payload += "ab";
  ByteReader r(payload);
  std::string s = "untouched";
  EXPECT_FALSE(r.ReadString16(&s));
  EXPECT_EQ(s, "untouched");  // failed reads leave outputs alone
}

TEST(ProtocolTest, EstimateRequestRoundTrip) {
  net::EstimateRequest req;
  req.sketch = "imdb";
  req.sql = "SELECT COUNT(*) FROM movie";
  std::string payload;
  net::AppendEstimateRequest(&payload, req);
  net::EstimateRequest out;
  ASSERT_TRUE(net::ParseEstimateRequest(payload, &out).ok());
  EXPECT_EQ(out.sketch, "imdb");
  EXPECT_EQ(out.sql, "SELECT COUNT(*) FROM movie");
}

TEST(ProtocolTest, EstimateRequestTrailingBytesRejected) {
  net::EstimateRequest req;
  req.sketch = "s";
  req.sql = "q";
  std::string payload;
  net::AppendEstimateRequest(&payload, req);
  payload += "extra";
  net::EstimateRequest out;
  EXPECT_FALSE(net::ParseEstimateRequest(payload, &out).ok());
}

TEST(ProtocolTest, BatchRequestRoundTrip) {
  net::EstimateBatchRequest req;
  req.sketch = "s";
  req.sqls = {"q1", "q2", "q3"};
  std::string payload;
  net::AppendEstimateBatchRequest(&payload, req);
  net::EstimateBatchRequest out;
  ASSERT_TRUE(net::ParseEstimateBatchRequest(payload, &out).ok());
  EXPECT_EQ(out.sketch, "s");
  EXPECT_EQ(out.sqls, req.sqls);
}

TEST(ProtocolTest, BatchRequestLyingCountRejected) {
  std::string payload;
  net::AppendString16(&payload, "s");
  net::AppendU32(&payload, 1u << 30);  // absurd count, no data behind it
  net::EstimateBatchRequest out;
  EXPECT_FALSE(net::ParseEstimateBatchRequest(payload, &out).ok());
}

TEST(ProtocolTest, BatchResponseRoundTrip) {
  std::string payload;
  net::AppendU32(&payload, 3);
  net::AppendBatchItem(&payload, Result<double>(42.0));
  net::AppendBatchItem(&payload,
                       Result<double>(Status::Internal("parse failed")));
  net::AppendBatchItem(&payload, Result<double>(7.5));
  std::vector<Result<double>> out;
  ASSERT_TRUE(net::ParseBatchResponse(payload, &out).ok());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(*out[0], 42.0);
  EXPECT_FALSE(out[1].ok());
  EXPECT_NE(out[1].status().message().find("parse failed"),
            std::string::npos);
  EXPECT_EQ(*out[2], 7.5);
}

TEST(ProtocolTest, WireStatusNamesAreStableLabels) {
  EXPECT_STREQ(net::WireStatusName(WireStatus::kOk), "ok");
  EXPECT_STREQ(net::WireStatusName(WireStatus::kError), "error");
  EXPECT_STREQ(net::WireStatusName(WireStatus::kRejected), "rejected");
}

// ------------------------------------------------------------ admission

TEST(TokenBucketTest, DeterministicRefill) {
  TokenBucket bucket(/*rate=*/10.0, /*burst=*/5.0);
  // Starts full: 5 tokens at t=0.
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(bucket.TryAcquire(100.0));
  EXPECT_FALSE(bucket.TryAcquire(100.0));  // empty
  // 0.25s later: 2.5 tokens refilled (0.25 is exact in binary, so the
  // arithmetic is deterministic).
  EXPECT_TRUE(bucket.TryAcquire(100.25));
  EXPECT_TRUE(bucket.TryAcquire(100.25));
  EXPECT_FALSE(bucket.TryAcquire(100.25));
}

TEST(TokenBucketTest, BurstCapsBanking) {
  TokenBucket bucket(/*rate=*/10.0, /*burst=*/2.0);
  EXPECT_TRUE(bucket.TryAcquire(0.0));
  // An hour idle banks at most `burst`, not rate * 3600.
  EXPECT_TRUE(bucket.TryAcquire(3600.0));
  EXPECT_TRUE(bucket.TryAcquire(3600.0));
  EXPECT_FALSE(bucket.TryAcquire(3600.0));
}

TEST(TokenBucketTest, TimeMovingBackwardsNeverRefills) {
  TokenBucket bucket(/*rate=*/1.0, /*burst=*/1.0);
  EXPECT_TRUE(bucket.TryAcquire(50.0));
  EXPECT_FALSE(bucket.TryAcquire(10.0));  // clock went backwards
  EXPECT_FALSE(bucket.TryAcquire(50.5));
  EXPECT_TRUE(bucket.TryAcquire(51.0));
}

TEST(TokenBucketTest, WholeBatchCostIsAtomic) {
  TokenBucket bucket(/*rate=*/1.0, /*burst=*/4.0);
  EXPECT_FALSE(bucket.TryAcquire(0.0, 5.0));  // more than the whole bucket
  EXPECT_TRUE(bucket.TryAcquire(0.0, 4.0));   // refused batch took nothing
}

TEST(AdmissionTest, DisabledAdmitsEverything) {
  AdmissionController admission(AdmissionOptions{});
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(admission.Admit("anyone", 0.0));
  }
}

TEST(AdmissionTest, PerTenantIsolation) {
  AdmissionOptions options;
  options.tenant_rate = 1.0;
  options.tenant_burst = 2.0;
  AdmissionController admission(options);
  EXPECT_TRUE(admission.Admit("a", 10.0));
  EXPECT_TRUE(admission.Admit("a", 10.0));
  EXPECT_FALSE(admission.Admit("a", 10.0));  // a exhausted...
  EXPECT_TRUE(admission.Admit("b", 10.0));   // ...b unaffected
}

TEST(AdmissionTest, TenantOverrideWorksWithDefaultsDisabled) {
  AdmissionController admission(AdmissionOptions{});  // defaults: admit all
  admission.SetTenantLimit("noisy", /*rate=*/1.0, /*burst=*/1.0);
  EXPECT_TRUE(admission.Admit("noisy", 5.0));
  EXPECT_FALSE(admission.Admit("noisy", 5.0));  // override enforced
  EXPECT_TRUE(admission.Admit("quiet", 5.0));   // others still free
}

// ----------------------------------------------------------------- http

TEST(HttpTest, ParsesGetRequest) {
  net::HttpRequest req;
  size_t consumed = 0;
  const std::string raw =
      "GET /metrics HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n";
  ASSERT_EQ(net::ParseHttpRequest(raw, &req, &consumed),
            net::HttpParseResult::kParsed);
  EXPECT_EQ(consumed, raw.size());
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.path, "/metrics");
  EXPECT_EQ(req.Header("host").value_or(""), "x");
  EXPECT_FALSE(req.WantsClose());
}

TEST(HttpTest, ParsesPostBodyByContentLength) {
  net::HttpRequest req;
  size_t consumed = 0;
  const std::string raw =
      "POST /estimate HTTP/1.1\r\nContent-Length: 4\r\n"
      "Connection: close\r\n\r\nbodyEXTRA";
  ASSERT_EQ(net::ParseHttpRequest(raw, &req, &consumed),
            net::HttpParseResult::kParsed);
  EXPECT_EQ(req.body, "body");
  EXPECT_EQ(consumed, raw.size() - 5);  // "EXTRA" stays buffered
  EXPECT_TRUE(req.WantsClose());
}

TEST(HttpTest, IncompleteRequestNeedsMore) {
  net::HttpRequest req;
  size_t consumed = 0;
  EXPECT_EQ(net::ParseHttpRequest("GET /x HTTP/1.1\r\nHos", &req, &consumed),
            net::HttpParseResult::kNeedMore);
  EXPECT_EQ(
      net::ParseHttpRequest(
          "POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc", &req,
          &consumed),
      net::HttpParseResult::kNeedMore);
}

TEST(HttpTest, RejectsTransferEncodingAndGarbage) {
  net::HttpRequest req;
  size_t consumed = 0;
  EXPECT_EQ(net::ParseHttpRequest(
                "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                &req, &consumed),
            net::HttpParseResult::kBad);
  EXPECT_EQ(net::ParseHttpRequest("NONSENSE\r\n\r\n", &req, &consumed),
            net::HttpParseResult::kBad);
  EXPECT_EQ(net::ParseHttpRequest(
                "GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n", &req,
                &consumed),
            net::HttpParseResult::kBad);
}

TEST(HttpTest, RejectsDuplicateContentLength) {
  // Duplicate Content-Length is a request-smuggling vector: a fronting
  // proxy may honor the first copy while we honor another.
  net::HttpRequest req;
  size_t consumed = 0;
  EXPECT_EQ(net::ParseHttpRequest(
                "POST /x HTTP/1.1\r\nContent-Length: 4\r\n"
                "Content-Length: 4\r\n\r\nbody",
                &req, &consumed),
            net::HttpParseResult::kBad);
  EXPECT_EQ(net::ParseHttpRequest(
                "POST /x HTTP/1.1\r\nContent-Length: 4\r\n"
                "Content-Length: 2\r\n\r\nbody",
                &req, &consumed),
            net::HttpParseResult::kBad);
}

TEST(HttpTest, BuildResponseHasLengthAndType) {
  const std::string resp =
      net::BuildHttpResponse(200, "application/json", "{}", false);
  EXPECT_EQ(resp.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(resp.find("Content-Length: 2\r\n"), std::string::npos);
  EXPECT_NE(resp.find("Content-Type: application/json\r\n"),
            std::string::npos);
  EXPECT_NE(resp.find("Connection: keep-alive\r\n"), std::string::npos);
  EXPECT_NE(resp.find("\r\n\r\n{}"), std::string::npos);
}

TEST(HttpTest, ExtractJsonStringField) {
  const std::string body =
      R"({"sketch": "imdb", "sql": "SELECT COUNT(*) FROM t WHERE a = 'x'"})";
  EXPECT_EQ(net::ExtractJsonStringField(body, "sketch").value_or(""),
            "imdb");
  EXPECT_EQ(net::ExtractJsonStringField(body, "sql").value_or(""),
            "SELECT COUNT(*) FROM t WHERE a = 'x'");
  EXPECT_FALSE(net::ExtractJsonStringField(body, "missing").has_value());
}

TEST(HttpTest, ExtractJsonStringFieldDecodesEscapes) {
  const std::string body = R"({"sql": "a \"quoted\" \\ name\n"})";
  EXPECT_EQ(net::ExtractJsonStringField(body, "sql").value_or(""),
            "a \"quoted\" \\ name\n");
}

TEST(HttpTest, ExtractJsonStringFieldIgnoresKeyTextInsideValues) {
  // The value of "a" contains what looks like a "sql" key; the real "sql"
  // comes later and must win.
  const std::string body = R"({"a": "\"sql\": \"fake\"", "sql": "real"})";
  EXPECT_EQ(net::ExtractJsonStringField(body, "sql").value_or(""), "real");
}

TEST(HttpTest, JsonEscapeRoundTripsThroughExtract) {
  const std::string nasty = "he said \"hi\"\n\tback\\slash";
  const std::string body = "{\"msg\": \"" + net::JsonEscape(nasty) + "\"}";
  EXPECT_EQ(net::ExtractJsonStringField(body, "msg").value_or(""), nasty);
}

#if defined(__linux__)

// ----------------------------------------------------- end-to-end server
//
// One tiny sketch trained for the whole suite (training dominates test
// time; wire behavior does not depend on model quality), one backend and
// one NetServer per test so metrics assertions see only their own
// traffic.

constexpr char kSql[] = "SELECT COUNT(*) FROM movie WHERE year = 2003";

class NetServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = testutil::MakeTinyCatalog().release();
    dir_ = new std::string(testing::TempDir() + "/ds_net_test");
    std::filesystem::create_directories(*dir_);
    sketch::SketchConfig config;
    config.num_samples = 8;
    config.num_training_queries = 150;
    config.num_epochs = 3;
    config.hidden_units = 8;
    config.batch_size = 32;
    config.max_tables_per_query = 2;
    config.seed = 7;
    sketch_ = new sketch::DeepSketch(
        sketch::DeepSketch::Train(*catalog_, config).value());
    ASSERT_TRUE(sketch_->Save(*dir_ + "/tiny.sketch").ok());
  }

  static void TearDownTestSuite() {
    delete sketch_;
    delete catalog_;
    delete dir_;
    sketch_ = nullptr;
    catalog_ = nullptr;
    dir_ = nullptr;
  }

  void SetUp() override {
    serve::RegistryOptions registry_options;
    registry_options.directory = *dir_;
    registry_ =
        std::make_unique<serve::SketchRegistry>(registry_options);
    serve::ServerOptions serve_options;
    serve_options.num_workers = 2;
    serve_options.num_queue_shards = 2;
    backend_ = std::make_unique<serve::SketchServer>(registry_.get(),
                                                     serve_options);
  }

  /// Starts a NetServer over backend_ with 2 event-loop workers on an
  /// ephemeral loopback port.
  std::unique_ptr<NetServer> StartServer(NetServerOptions options = {}) {
    options.num_workers = options.num_workers == 0 ? 2 : options.num_workers;
    auto server = std::make_unique<NetServer>(backend_.get(), options);
    EXPECT_TRUE(server->Start().ok());
    return server;
  }

  NetClient Connect(const NetServer& server) {
    auto client = NetClient::Connect("127.0.0.1", server.port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  uint64_t NetCounter(const NetServer& server, const std::string& name,
                      obs::Labels labels = {}) {
    return server.registry()->GetCounter(name, "", labels)->value();
  }

  /// Shuts down front-then-backend and asserts the smoke invariant:
  /// every request got exactly one response, and every tenant's ledger
  /// row settles (submitted = completed + rejected + shed).
  void StopAndCheckBalance(NetServer* server) {
    server->Stop();
    backend_->Stop();
    const uint64_t requests = NetCounter(*server, "ds_net_requests_total");
    uint64_t responses = 0;
    for (WireStatus s :
         {WireStatus::kOk, WireStatus::kError, WireStatus::kRejected}) {
      responses += NetCounter(*server, "ds_net_responses_total",
                              {{"status", net::WireStatusName(s)}});
    }
    EXPECT_EQ(requests, responses);
    const obs::RegistrySnapshot snapshot = server->registry()->Snapshot();
    for (const obs::MetricSnapshot& m : snapshot.metrics) {
      if (m.name != "ds_net_tenant_requests_total") continue;
      uint64_t settled = 0;
      for (const char* column :
           {"ds_net_tenant_completed_total", "ds_net_tenant_rejected_total",
            "ds_net_tenant_shed_total"}) {
        settled += NetCounter(*server, column, m.labels);
      }
      EXPECT_EQ(static_cast<uint64_t>(m.value), settled)
          << "tenant ledger unsettled: " << m.labels.front().second;
    }
  }

  /// A backend whose single worker takes the in-process request it is
  /// given first and then lingers in that batch (a minute, or until Stop)
  /// for more requests on the same sketch. Wire requests for any other
  /// sketch stay queued behind it until Stop drains the queue.
  void HoldBackend(size_t queue_capacity) {
    serve::ServerOptions options;
    options.num_workers = 1;
    options.num_queue_shards = 1;
    options.queue_capacity = queue_capacity;
    options.max_wait_us = 60'000'000;
    backend_ =
        std::make_unique<serve::SketchServer>(registry_.get(), options);
    (void)backend_->Submit("held", kSql);
  }

  /// Rebuilds backend_ with an external trace recorder. The recorder's own
  /// sampling stays off (sample_every = 0): only traces adopted from the
  /// wire record, which is exactly the cross-process propagation under
  /// test.
  void RebuildBackendWithTracer(obs::TraceRecorder* tracer) {
    serve::ServerOptions options;
    options.num_workers = 2;
    options.num_queue_shards = 2;
    options.tracer = tracer;
    backend_ =
        std::make_unique<serve::SketchServer>(registry_.get(), options);
  }

  /// Polls until `trace` has at least `min_spans` spans in `rec`. The
  /// server records its net_write span after the response bytes are on the
  /// wire, so the client can observe the reply a beat before the span
  /// lands.
  std::vector<obs::SpanRecord> WaitForSpans(const obs::TraceRecorder& rec,
                                            uint64_t trace,
                                            size_t min_spans) {
    for (int i = 0; i < 500; ++i) {
      std::vector<obs::SpanRecord> spans = rec.Trace(trace);
      if (spans.size() >= min_spans) return spans;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return rec.Trace(trace);
  }

  /// Polls until every span in `required` has been recorded for `trace`.
  /// Spans record at END, so a parent (e.g. `estimate`) lands *after* its
  /// children — waiting on a bare count races with that ordering.
  std::vector<obs::SpanRecord> WaitForSpans(
      const obs::TraceRecorder& rec, uint64_t trace,
      std::initializer_list<const char*> required) {
    std::vector<obs::SpanRecord> spans;
    for (int i = 0; i < 500; ++i) {
      spans = rec.Trace(trace);
      std::set<std::string> names;
      for (const auto& s : spans) names.insert(s.name);
      bool all = true;
      for (const char* name : required) all = all && names.count(name) > 0;
      if (all) return spans;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return spans;
  }

  static storage::Catalog* catalog_;
  static sketch::DeepSketch* sketch_;
  static std::string* dir_;
  std::unique_ptr<serve::SketchRegistry> registry_;
  std::unique_ptr<serve::SketchServer> backend_;
};

storage::Catalog* NetServerTest::catalog_ = nullptr;
sketch::DeepSketch* NetServerTest::sketch_ = nullptr;
std::string* NetServerTest::dir_ = nullptr;

TEST_F(NetServerTest, PingAndEstimate) {
  auto server = StartServer();
  NetClient client = Connect(*server);
  ASSERT_TRUE(client.Ping().ok());
  auto estimate = client.Estimate("tiny", kSql);
  ASSERT_TRUE(estimate.ok()) << estimate.status().ToString();
  EXPECT_GE(*estimate, 0.0);
  // The wire answer matches the in-process answer for the same SQL.
  auto direct = registry_->Get("tiny").value()->EstimateSql(kSql);
  ASSERT_TRUE(direct.ok());
  EXPECT_DOUBLE_EQ(*estimate, *direct);
  StopAndCheckBalance(server.get());
}

TEST_F(NetServerTest, UnknownSketchIsWireErrorNotDisconnect) {
  auto server = StartServer();
  NetClient client = Connect(*server);
  auto estimate = client.Estimate("nope", kSql);
  EXPECT_FALSE(estimate.ok());
  // The connection survives an application-level error.
  EXPECT_TRUE(client.Ping().ok());
  StopAndCheckBalance(server.get());
}

TEST_F(NetServerTest, MalformedSqlIsWireError) {
  auto server = StartServer();
  NetClient client = Connect(*server);
  EXPECT_FALSE(client.Estimate("tiny", "SELECT nonsense !!").ok());
  EXPECT_TRUE(client.Ping().ok());
  StopAndCheckBalance(server.get());
}

TEST_F(NetServerTest, EstimateBatchMixedResults) {
  auto server = StartServer();
  NetClient client = Connect(*server);
  std::vector<Result<double>> results;
  ASSERT_TRUE(client
                  .EstimateBatch("tiny", {kSql, "garbage sql", kSql},
                                 &results)
                  .ok());
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_TRUE(results[2].ok());
  EXPECT_DOUBLE_EQ(*results[0], *results[2]);
  StopAndCheckBalance(server.get());
}

TEST_F(NetServerTest, StatsReturnsMetricsJson) {
  auto server = StartServer();
  NetClient client = Connect(*server);
  ASSERT_TRUE(client.Estimate("tiny", kSql).ok());
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("ds_serve_submitted_total"), std::string::npos);
  StopAndCheckBalance(server.get());
}

TEST_F(NetServerTest, HelloSetsTenantForAdmission) {
  NetServerOptions options;
  options.admission.tenant_rate = 1000.0;
  options.admission.tenant_burst = 1000.0;
  auto server = StartServer(options);
  // Choke one tenant; the default tenant keeps its roomy limits.
  server->admission()->SetTenantLimit("noisy", 0.0001, 1.0);

  NetClient noisy = Connect(*server);
  ASSERT_TRUE(noisy.Hello("noisy").ok());
  ASSERT_TRUE(noisy.Estimate("tiny", kSql).ok());  // burst of 1
  auto rejected = noisy.Estimate("tiny", kSql);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kOutOfRange);

  NetClient other = Connect(*server);  // default tenant, unaffected
  EXPECT_TRUE(other.Estimate("tiny", kSql).ok());

  EXPECT_GE(NetCounter(*server, "ds_net_responses_total",
                       {{"status", "rejected"}}),
            1u);
  // Front-end shed also shows up in the serve layer's rejected counters.
  EXPECT_GE(backend_->Metrics().rejected_shedding, 1u);
  StopAndCheckBalance(server.get());
}

TEST_F(NetServerTest, PipelinedRequestsAllAnswered) {
  auto server = StartServer();
  NetClient client = Connect(*server);
  constexpr uint64_t kDepth = 16;
  for (uint64_t id = 1; id <= kDepth; ++id) {
    ASSERT_TRUE(client.SendEstimate(id, "tiny", kSql).ok());
  }
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < kDepth; ++i) {
    auto resp = client.ReadResponse();
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->status, WireStatus::kOk);
    seen.insert(resp->request_id);
  }
  EXPECT_EQ(seen.size(), kDepth);  // every id answered exactly once
  StopAndCheckBalance(server.get());
}

TEST_F(NetServerTest, BatchFanInUnderQueuePressure) {
  // Exercises the batch fan-in path where some items are rejected at
  // submit time while accepted items complete concurrently on serve
  // workers — the interleaving behind the statuses-visibility race (TSan
  // sees any regression). A capacity-1 queue makes rejections certain.
  serve::ServerOptions tiny_queue;
  tiny_queue.num_workers = 2;
  tiny_queue.num_queue_shards = 1;
  tiny_queue.queue_capacity = 1;
  backend_ =
      std::make_unique<serve::SketchServer>(registry_.get(), tiny_queue);
  auto server = StartServer();
  NetClient client = Connect(*server);
  const std::vector<std::string> sqls(16, kSql);
  for (int round = 0; round < 20; ++round) {
    std::vector<Result<double>> results;
    ASSERT_TRUE(client.EstimateBatch("tiny", sqls, &results).ok());
    ASSERT_EQ(results.size(), sqls.size());
    // Every slot resolved one way or the other; the first accepted item
    // exists because a capacity-1 queue still admits one request.
    size_t ok = 0;
    for (const auto& r : results) {
      if (r.ok()) ++ok;
    }
    EXPECT_GE(ok, 1u);
  }
  StopAndCheckBalance(server.get());
}

TEST_F(NetServerTest, ConcurrentClients) {
  auto server = StartServer();
  constexpr size_t kClients = 8;
  constexpr size_t kPerClient = 32;
  std::atomic<size_t> ok{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      auto client = NetClient::Connect("127.0.0.1", server->port());
      ASSERT_TRUE(client.ok());
      for (size_t i = 0; i < kPerClient; ++i) {
        if (client->Estimate("tiny", kSql).ok()) {
          ok.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kClients * kPerClient);
  EXPECT_EQ(NetCounter(*server, "ds_net_requests_total"),
            kClients * kPerClient);
  StopAndCheckBalance(server.get());
}

// Raw-socket helper: writes `request` verbatim, reads to EOF. Used for
// HTTP (with Connection: close) and for feeding the server corrupt bytes.
std::string RawExchange(uint16_t port, const std::string& request) {
  util::UniqueFd fd(socket(AF_INET, SOCK_STREAM, 0));
  EXPECT_TRUE(fd.valid());
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                    sizeof(addr)),
            0);
  size_t off = 0;
  while (off < request.size()) {
    const ssize_t n =
        write(fd.get(), request.data() + off, request.size() - off);
    if (n <= 0) break;
    off += static_cast<size_t>(n);
  }
  std::string response;
  char chunk[4096];
  while (true) {
    const ssize_t n = read(fd.get(), chunk, sizeof(chunk));
    if (n <= 0) break;
    response.append(chunk, static_cast<size_t>(n));
  }
  return response;
}

TEST_F(NetServerTest, HttpPipelinedResponsesKeepRequestOrder) {
  // A pipelined POST /estimate (answered asynchronously) followed by a
  // GET (answered synchronously) must produce responses in request
  // order: the 200 with the estimate first, the 404 second.
  auto server = StartServer();
  const std::string body =
      std::string(R"({"sketch": "tiny", "sql": ")") + kSql + R"("})";
  const std::string response = RawExchange(
      server->port(),
      "POST /estimate HTTP/1.1\r\nHost: t\r\nContent-Length: " +
          std::to_string(body.size()) + "\r\n\r\n" + body +
          "GET /nope HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
  const size_t first_200 = response.find("HTTP/1.1 200 OK");
  const size_t first_404 = response.find("HTTP/1.1 404 ");
  EXPECT_EQ(first_200, 0u) << response;
  ASSERT_NE(first_404, std::string::npos) << response;
  EXPECT_LT(first_200, first_404);
  EXPECT_LT(response.find("\"estimate\":"), first_404);
  StopAndCheckBalance(server.get());
}

TEST_F(NetServerTest, MalformedHelloEchoesHelloTypedError) {
  // The error frame must carry the offending request's type (kHello), not
  // a generic kPing, so synchronous clients surface the server's message
  // instead of tripping their frame-type check.
  auto server = StartServer();
  std::string payload;
  net::AppendU16(&payload, 100);  // claims 100 bytes, provides none
  std::string frame;
  net::AppendFrame(&frame, FrameType::kHello, WireStatus::kOk, 9, payload);
  const std::string response = RawExchange(
      server->port(), std::string(net::kMagic, net::kMagicSize) + frame);
  ASSERT_GE(response.size(), net::kFrameHeaderSize);
  FrameHeader header;
  ASSERT_TRUE(net::DecodeFrameHeader(response.data(), &header).ok());
  EXPECT_EQ(header.type, FrameType::kHello);
  EXPECT_EQ(header.status, WireStatus::kError);
  EXPECT_EQ(header.request_id, 9u);
  // The close-after-flush path delivered the full error message before
  // the connection went down.
  EXPECT_EQ(response.size(), net::kFrameHeaderSize + header.payload_size);
  server->Stop();
  backend_->Stop();
}

TEST_F(NetServerTest, HttpPostEstimate) {
  auto server = StartServer();
  const std::string body =
      std::string(R"({"sketch": "tiny", "sql": ")") + kSql + R"("})";
  const std::string response = RawExchange(
      server->port(),
      "POST /estimate HTTP/1.1\r\nHost: t\r\nContent-Length: " +
          std::to_string(body.size()) +
          "\r\nConnection: close\r\n\r\n" + body);
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(response.find("\"estimate\":"), std::string::npos);
  StopAndCheckBalance(server.get());
}

TEST_F(NetServerTest, HttpEstimateMissingFieldIs400) {
  auto server = StartServer();
  const std::string body = R"({"sketch": "tiny"})";
  const std::string response = RawExchange(
      server->port(),
      "POST /estimate HTTP/1.1\r\nHost: t\r\nContent-Length: " +
          std::to_string(body.size()) +
          "\r\nConnection: close\r\n\r\n" + body);
  EXPECT_EQ(response.rfind("HTTP/1.1 400 ", 0), 0u);
  StopAndCheckBalance(server.get());
}

TEST_F(NetServerTest, HttpMetricsExposition) {
  auto server = StartServer();
  NetClient client = Connect(*server);
  ASSERT_TRUE(client.Estimate("tiny", kSql).ok());
  const std::string response = RawExchange(
      server->port(),
      "GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(response.find(std::string("Content-Type: ") +
                          obs::kPrometheusContentType),
            std::string::npos);
  // Both layers' instruments come out of one scrape.
  EXPECT_NE(response.find("ds_net_requests_total"), std::string::npos);
  EXPECT_NE(response.find("ds_serve_submitted_total"), std::string::npos);
  StopAndCheckBalance(server.get());
}

TEST_F(NetServerTest, HttpTenantHeaderDrivesAdmission) {
  auto server = StartServer();
  server->admission()->SetTenantLimit("curl-tenant", 0.0001, 1.0);
  const std::string body =
      std::string(R"({"sketch": "tiny", "sql": ")") + kSql + R"("})";
  auto post = [&] {
    return RawExchange(
        server->port(),
        "POST /estimate HTTP/1.1\r\nHost: t\r\nX-DS-Tenant: curl-tenant\r\n"
        "Content-Length: " +
            std::to_string(body.size()) +
            "\r\nConnection: close\r\n\r\n" + body);
  };
  EXPECT_EQ(post().rfind("HTTP/1.1 200 OK\r\n", 0), 0u);   // burst of 1
  EXPECT_EQ(post().rfind("HTTP/1.1 429 ", 0), 0u);         // then shed
  StopAndCheckBalance(server.get());
}

TEST_F(NetServerTest, HttpUnknownPathIs404) {
  auto server = StartServer();
  const std::string response = RawExchange(
      server->port(),
      "GET /nope HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
  EXPECT_EQ(response.rfind("HTTP/1.1 404 ", 0), 0u);
  StopAndCheckBalance(server.get());
}

// -------------------------------------------------- end-to-end tracing

std::string HttpBody(const std::string& response) {
  const size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? std::string() : response.substr(pos + 4);
}

TEST_F(NetServerTest, BinaryEstimateProducesOneEndToEndTrace) {
  // The acceptance trace: one ESTIMATE through NetClient yields ONE trace
  // id whose spans cross client -> net front-end -> serve backend.
  obs::TraceRecorder server_tracer({.capacity = 256, .sample_every = 0});
  RebuildBackendWithTracer(&server_tracer);
  auto server = StartServer();
  obs::TraceRecorder client_tracer({.capacity = 64, .sample_every = 1});
  NetClient client = Connect(*server);
  client.set_tracer(&client_tracer);
  ASSERT_TRUE(client.Estimate("tiny", kSql).ok());

  const std::vector<uint64_t> ids = client_tracer.TraceIds();
  ASSERT_EQ(ids.size(), 1u);
  const uint64_t trace = ids[0];
  const std::vector<obs::SpanRecord> client_spans =
      client_tracer.Trace(trace);
  const std::vector<obs::SpanRecord> server_spans =
      WaitForSpans(server_tracer, trace,
                   {"net_decode", "net_admission", "net_write", "queue_wait",
                    "estimate"});

  std::set<std::string> names;
  uint64_t root_span = 0;
  for (const auto& s : client_spans) {
    names.insert(s.name);
    if (s.parent_id == 0) root_span = s.span_id;
  }
  for (const auto& s : server_spans) {
    names.insert(s.name);
    EXPECT_EQ(s.trace_id, trace);
    EXPECT_NE(s.parent_id, 0u)
        << s.name << " must nest under the client's root span";
  }
  EXPECT_GE(client_spans.size() + server_spans.size(), 6u);
  EXPECT_NE(root_span, 0u);  // client_estimate is the trace root
  for (const char* expected : {"client_estimate", "net_decode",
                               "net_admission", "net_write", "queue_wait",
                               "estimate"}) {
    EXPECT_TRUE(names.count(expected)) << "missing span: " << expected;
  }
  StopAndCheckBalance(server.get());
}

TEST_F(NetServerTest, PipelinedRequestsGetDistinctTraces) {
  obs::TraceRecorder server_tracer({.capacity = 256, .sample_every = 0});
  RebuildBackendWithTracer(&server_tracer);
  auto server = StartServer();
  obs::TraceRecorder client_tracer({.capacity = 64, .sample_every = 1});
  NetClient client = Connect(*server);
  client.set_tracer(&client_tracer);
  constexpr uint64_t kDepth = 4;
  for (uint64_t id = 1; id <= kDepth; ++id) {
    ASSERT_TRUE(client.SendEstimate(id, "tiny", kSql).ok());
  }
  for (uint64_t i = 0; i < kDepth; ++i) {
    auto resp = client.ReadResponse();
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->status, WireStatus::kOk);
  }
  // Each pipelined request is its own trace, and the server adopted every
  // one of them (decode spans recorded under each client trace id).
  const std::vector<uint64_t> ids = client_tracer.TraceIds();
  EXPECT_EQ(ids.size(), kDepth);
  for (uint64_t trace : ids) {
    EXPECT_FALSE(WaitForSpans(server_tracer, trace, 1).empty());
  }
  StopAndCheckBalance(server.get());
}

TEST_F(NetServerTest, HttpTraceHeaderAdoptedServerSide) {
  obs::TraceRecorder server_tracer({.capacity = 256, .sample_every = 0});
  RebuildBackendWithTracer(&server_tracer);
  auto server = StartServer();
  obs::WireTraceContext ctx;
  ctx.trace_id = 0x5ca1ab1e0ddba11ull;
  ctx.parent_span = 7;
  const std::string body =
      std::string(R"({"sketch": "tiny", "sql": ")") + kSql + R"("})";
  const std::string response = RawExchange(
      server->port(),
      "POST /estimate HTTP/1.1\r\nHost: t\r\nX-DS-Trace: " +
          obs::FormatTraceHeader(ctx) + "\r\nContent-Length: " +
          std::to_string(body.size()) +
          "\r\nConnection: close\r\n\r\n" + body);
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  const std::vector<obs::SpanRecord> spans =
      WaitForSpans(server_tracer, ctx.trace_id, {"net_decode", "estimate"});
  std::set<std::string> names;
  for (const auto& s : spans) names.insert(s.name);
  EXPECT_TRUE(names.count("net_decode"));
  EXPECT_TRUE(names.count("estimate"));
  StopAndCheckBalance(server.get());
}

// ------------------------------------------------------- admin endpoints

TEST_F(NetServerTest, HttpHealthzAlwaysOk) {
  auto server = StartServer();
  const std::string response = RawExchange(
      server->port(),
      "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_EQ(HttpBody(response), "ok\n");
  StopAndCheckBalance(server.get());
}

TEST_F(NetServerTest, HttpReadyzFlipsOnDrain) {
  auto server = StartServer();
  const std::string ready = RawExchange(
      server->port(),
      "GET /readyz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
  EXPECT_EQ(ready.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_EQ(HttpBody(ready), "ready\n");
  server->BeginDrain();
  const std::string draining = RawExchange(
      server->port(),
      "GET /readyz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
  EXPECT_EQ(draining.rfind("HTTP/1.1 503 ", 0), 0u);
  EXPECT_EQ(HttpBody(draining), "draining\n");
  StopAndCheckBalance(server.get());
}

TEST_F(NetServerTest, HttpStatuszReportsTenantLedger) {
  auto server = StartServer();
  NetClient client = Connect(*server);
  ASSERT_TRUE(client.Hello("acme").ok());
  ASSERT_TRUE(client.Estimate("tiny", kSql).ok());
  const std::string response = RawExchange(
      server->port(),
      "GET /statusz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  const std::string json = HttpBody(response);
  std::string error;
  EXPECT_TRUE(util::JsonWellFormed(json, &error)) << error;
  EXPECT_NE(json.find("\"uptime_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"git_sha\""), std::string::npos);
  EXPECT_NE(json.find("\"acme\""), std::string::npos);

  const std::string text = RawExchange(
      server->port(),
      "GET /statusz?format=text HTTP/1.1\r\nHost: t\r\n"
      "Connection: close\r\n\r\n");
  EXPECT_EQ(text.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(HttpBody(text).find("acme"), std::string::npos);
  StopAndCheckBalance(server.get());
}

TEST_F(NetServerTest, HttpTracezJsonAndChromeExport) {
  obs::TraceRecorder server_tracer({.capacity = 256, .sample_every = 0});
  RebuildBackendWithTracer(&server_tracer);
  auto server = StartServer();
  obs::TraceRecorder client_tracer({.capacity = 64, .sample_every = 1});
  NetClient client = Connect(*server);
  client.set_tracer(&client_tracer);
  ASSERT_TRUE(client.Estimate("tiny", kSql).ok());
  ASSERT_EQ(client_tracer.TraceIds().size(), 1u);
  WaitForSpans(server_tracer, client_tracer.TraceIds()[0], 5);

  const std::string tracez = RawExchange(
      server->port(),
      "GET /tracez HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
  EXPECT_EQ(tracez.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  std::string error;
  EXPECT_TRUE(util::JsonWellFormed(HttpBody(tracez), &error)) << error;

  const std::string chrome = RawExchange(
      server->port(),
      "GET /tracez?format=chrome HTTP/1.1\r\nHost: t\r\n"
      "Connection: close\r\n\r\n");
  const std::string chrome_json = HttpBody(chrome);
  EXPECT_TRUE(util::JsonWellFormed(chrome_json, &error)) << error;
  EXPECT_NE(chrome_json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome_json.find("net_decode"), std::string::npos);
  StopAndCheckBalance(server.get());
}

TEST_F(NetServerTest, HttpGetHelperFetchesAdminEndpoints) {
  auto server = StartServer();
  auto health = net::HttpGet("127.0.0.1", server->port(), "/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(*health, "ok\n");
  server->BeginDrain();
  auto ready = net::HttpGet("127.0.0.1", server->port(), "/readyz");
  EXPECT_FALSE(ready.ok());  // 503 surfaces as a non-OK status
  EXPECT_NE(ready.status().ToString().find("503"), std::string::npos);
  StopAndCheckBalance(server.get());
}

TEST_F(NetServerTest, StopIsIdempotentAndRestartIsRejected) {
  auto server = StartServer();
  server->Stop();
  server->Stop();  // second stop is a no-op
  EXPECT_FALSE(server->Start().ok());  // one Start per server
  backend_->Stop();
}

// Regression (path traversal): the sketch name in an ESTIMATE frame or an
// HTTP body is attacker-controlled, and the registry used to join it into
// a filesystem path unvalidated — "../decoy" read a sketch OUTSIDE the
// registry directory. The decoy file really exists one level above the
// registry dir; the proof is that both wire surfaces refuse to serve it.
TEST_F(NetServerTest, TraversalSketchNameRejectedOverWire) {
  ASSERT_TRUE(sketch_->Save(testing::TempDir() + "/decoy.sketch").ok());
  auto server = StartServer();

  // Binary protocol: a clean per-request error, not a served estimate
  // (and not a shed/rejection, which would map to OutOfRange).
  NetClient client = Connect(*server);
  for (const char* name : {"../decoy", "..", "a/../../decoy", "a\\b"}) {
    auto est = client.Estimate(name, kSql);
    ASSERT_FALSE(est.ok()) << "hostile name served: " << name;
    EXPECT_EQ(est.status().code(), StatusCode::kInternal) << name;
  }
  // The connection survives the rejections.
  EXPECT_TRUE(client.Estimate("tiny", kSql).ok());

  // HTTP surface: a 4xx with a JSON error, never a 200 with an estimate.
  const std::string body =
      std::string(R"({"sketch": "../decoy", "sql": ")") + kSql + R"("})";
  const std::string response = RawExchange(
      server->port(),
      "POST /estimate HTTP/1.1\r\nHost: t\r\nContent-Length: " +
          std::to_string(body.size()) +
          "\r\nConnection: close\r\n\r\n" + body);
  EXPECT_EQ(response.rfind("HTTP/1.1 400 ", 0), 0u);
  EXPECT_EQ(response.find("\"estimate\":"), std::string::npos);
  StopAndCheckBalance(server.get());
}

// ------------------------------------------------- golden reply bytes

/// A loopback socket for byte-exact exchanges: sends what it is given and
/// reads exactly one reply, so keep-alive connections can be checked as
/// well as closing ones. Reads give up after 20 s instead of hanging.
class RawConn {
 public:
  explicit RawConn(uint16_t port) : fd_(socket(AF_INET, SOCK_STREAM, 0)) {
    EXPECT_TRUE(fd_.valid());
    timeval timeout{20, 0};
    setsockopt(fd_.get(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
               sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(connect(fd_.get(), reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
              0);
  }

  void Send(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          write(fd_.get(), bytes.data() + off, bytes.size() - off);
      ASSERT_GT(n, 0);
      off += static_cast<size_t>(n);
    }
  }

  /// One binary frame: header plus the payload size it announces.
  std::string ReadFrame() {
    if (!Fill(net::kFrameHeaderSize)) return Take(buf_.size());
    FrameHeader header;
    EXPECT_TRUE(net::DecodeFrameHeader(buf_.data(), &header).ok());
    Fill(net::kFrameHeaderSize + header.payload_size);
    return Take(net::kFrameHeaderSize + header.payload_size);
  }

  /// One HTTP response: head plus the Content-Length body.
  std::string ReadHttp() {
    size_t head_end;
    while ((head_end = buf_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill(buf_.size() + 1)) return Take(buf_.size());
    }
    head_end += 4;
    const size_t at = buf_.find("Content-Length: ");
    const size_t length =
        at < head_end ? std::stoul(buf_.substr(at + 16)) : 0;
    Fill(head_end + length);
    return Take(head_end + length);
  }

  /// True when the server has closed its end (read returns EOF).
  bool AtEof() { return buf_.empty() && !Fill(1); }

 private:
  bool Fill(size_t n) {
    char chunk[4096];
    while (buf_.size() < n) {
      const ssize_t got = read(fd_.get(), chunk, sizeof(chunk));
      if (got <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(got));
    }
    return true;
  }

  std::string Take(size_t n) {
    n = std::min(n, buf_.size());
    std::string out = buf_.substr(0, n);
    buf_.erase(0, n);
    return out;
  }

  util::UniqueFd fd_;
  std::string buf_;
};

/// `bytes` with every non-printable byte as \xNN, so a golden mismatch
/// prints a readable diff.
std::string Printable(std::string_view bytes) {
  std::string out;
  for (const unsigned char c : bytes) {
    if (c >= 0x20 && c < 0x7f && c != '\\') {
      out += static_cast<char>(c);
    } else {
      char hex[8];
      std::snprintf(hex, sizeof(hex), "\\x%02x", c);
      out += hex;
    }
  }
  return out;
}

/// `v` as `bytes` little-endian bytes, written out by hand so the goldens
/// do not lean on the encoder under test.
std::string Le(uint64_t v, int bytes) {
  std::string out;
  for (int i = 0; i < bytes; ++i) {
    out += static_cast<char>((v >> (8 * i)) & 0xff);
  }
  return out;
}

std::string GoldenF64(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return Le(bits, 8);
}

std::string GoldenFrame(uint8_t type, uint8_t status, uint64_t id,
                        std::string_view payload) {
  return Le(payload.size(), 4) + Le(type, 1) + Le(status, 1) + Le(0, 2) +
         Le(id, 8) + std::string(payload);
}

std::string GoldenItem(double v) { return Le(1, 1) + GoldenF64(v); }

std::string GoldenItem(std::string_view message) {
  return Le(0, 1) + Le(message.size(), 4) + std::string(message);
}

std::string GoldenHttp(std::string_view status_line, std::string_view body,
                       bool close) {
  return "HTTP/1.1 " + std::string(status_line) +
         "\r\nContent-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\nConnection: " +
         (close ? "close" : "keep-alive") + "\r\n\r\n" + std::string(body);
}

std::string EstimateBody(std::string_view sketch, std::string_view sql) {
  return R"({"sketch": ")" + std::string(sketch) + R"(", "sql": ")" +
         std::string(sql) + R"("})";
}

std::string HttpRequestBytes(std::string_view method, std::string_view path,
                             std::string_view body, bool close) {
  return std::string(method) + " " + std::string(path) +
         " HTTP/1.1\r\nHost: t\r\nContent-Length: " +
         std::to_string(body.size()) +
         (close ? "\r\nConnection: close" : "") + "\r\n\r\n" +
         std::string(body);
}

std::string BinaryFrame(FrameType type, uint64_t id,
                        std::string_view payload) {
  std::string out(net::kMagic, net::kMagicSize);
  net::AppendFrame(&out, type, WireStatus::kOk, id, payload);
  return out;
}

std::string EstimateFrame(uint64_t id, std::string_view sketch,
                          std::string_view sql) {
  std::string payload;
  net::AppendEstimateRequest(
      &payload, net::EstimateRequest{std::string(sketch), std::string(sql)});
  return BinaryFrame(FrameType::kEstimate, id, payload);
}

std::string BatchFrame(uint64_t id, std::string_view sketch,
                       std::vector<std::string> sqls) {
  std::string payload;
  net::AppendEstimateBatchRequest(
      &payload,
      net::EstimateBatchRequest{std::string(sketch), std::move(sqls)});
  return BinaryFrame(FrameType::kEstimateBatch, id, payload);
}

// Every wire estimate reply, byte for byte, for each request kind and
// outcome. The replies are spelled out field by field rather than built
// with the server's encoders; only the estimate itself comes from the
// in-process EstimateSql.
TEST_F(NetServerTest, GoldenReplyBytes) {
  enum class Stage { kServing, kTenantChoked, kQueueFull, kBackendStopped };
  struct Golden {
    std::string name;
    Stage stage;
    std::string request;
    std::string reply;
    bool http = false;
    bool closes = false;
  };
  constexpr char kBindSql[] = "SELECT COUNT(*) FROM nosuch n";
  const double value =
      registry_->Get("tiny").value()->EstimateSql(kSql).value();
  char ok_body[64];
  std::snprintf(ok_body, sizeof(ok_body), "{\"estimate\":%.1f}\n", value);
  const std::string bind_error = "no table 'nosuch'";
  const std::string unknown_sketch =
      "cannot open for reading: " + *dir_ + "/nope.sketch";
  const std::string choked = "tenant 'default' exceeded its request rate";

  std::vector<Golden> cases = {
      {"estimate ok", Stage::kServing, EstimateFrame(7, "tiny", kSql),
       GoldenFrame(3, 0, 7, GoldenF64(value))},
      {"estimate bind error", Stage::kServing,
       EstimateFrame(7, "tiny", kBindSql), GoldenFrame(3, 1, 7, bind_error)},
      {"estimate unknown sketch", Stage::kServing,
       EstimateFrame(7, "nope", kSql), GoldenFrame(3, 1, 7, unknown_sketch)},
      {"estimate malformed", Stage::kServing,
       BinaryFrame(FrameType::kEstimate, 7, "\x01"),
       GoldenFrame(3, 1, 7, "malformed ESTIMATE payload")},
      {"estimate admission reject", Stage::kTenantChoked,
       EstimateFrame(7, "tiny", kSql), GoldenFrame(3, 2, 7, choked)},
      {"estimate queue full", Stage::kQueueFull,
       EstimateFrame(7, "tiny", kSql),
       GoldenFrame(3, 2, 7, "server overloaded (queue full)")},
      {"estimate shutting down", Stage::kBackendStopped,
       EstimateFrame(7, "tiny", kSql),
       GoldenFrame(3, 1, 7, "server is shutting down")},

      {"batch ok", Stage::kServing, BatchFrame(8, "tiny", {kSql, kSql}),
       GoldenFrame(4, 0, 8,
                   Le(2, 4) + GoldenItem(value) + GoldenItem(value))},
      {"batch empty", Stage::kServing, BatchFrame(8, "tiny", {}),
       GoldenFrame(4, 0, 8, Le(0, 4))},
      {"batch bind error", Stage::kServing,
       BatchFrame(8, "tiny", {kSql, kBindSql}),
       GoldenFrame(4, 0, 8,
                   Le(2, 4) + GoldenItem(value) + GoldenItem(bind_error))},
      {"batch unknown sketch", Stage::kServing,
       BatchFrame(8, "nope", {kSql}),
       GoldenFrame(4, 0, 8, Le(1, 4) + GoldenItem(unknown_sketch))},
      {"batch malformed", Stage::kServing,
       BinaryFrame(FrameType::kEstimateBatch, 8, "\x01"),
       GoldenFrame(4, 1, 8, "malformed ESTIMATE_BATCH payload")},
      {"batch admission reject", Stage::kTenantChoked,
       BatchFrame(8, "tiny", {kSql, kSql}), GoldenFrame(4, 2, 8, choked)},
      {"batch queue full", Stage::kQueueFull,
       BatchFrame(8, "tiny", {kSql, kSql}),
       GoldenFrame(4, 0, 8,
                   Le(2, 4) + GoldenItem("rejected: queue full") +
                       GoldenItem("rejected: queue full"))},
      {"batch shutting down", Stage::kBackendStopped,
       BatchFrame(8, "tiny", {kSql, kSql}),
       GoldenFrame(4, 0, 8,
                   Le(2, 4) + GoldenItem("server is shutting down") +
                       GoldenItem("server is shutting down"))},
  };
  for (const bool close : {false, true}) {
    const std::string suffix = close ? " (close)" : " (keep-alive)";
    auto post = [&](std::string_view body) {
      return HttpRequestBytes("POST", "/estimate", body, close);
    };
    auto error = [](std::string_view message) {
      return "{\"error\":\"" + std::string(message) + "\"}\n";
    };
    const std::vector<Golden> http = {
        {"http 200", Stage::kServing, post(EstimateBody("tiny", kSql)),
         GoldenHttp("200 OK", ok_body, close)},
        {"http 400 bind error", Stage::kServing,
         post(EstimateBody("tiny", kBindSql)),
         GoldenHttp("400 Bad Request", error(bind_error), close)},
        {"http 400 unknown sketch", Stage::kServing,
         post(EstimateBody("nope", kSql)),
         GoldenHttp("400 Bad Request", error(unknown_sketch), close)},
        {"http 400 malformed", Stage::kServing, post(R"({"sketch": "tiny"})"),
         GoldenHttp("400 Bad Request",
                    error(R"(body must be {\"sketch\": ..., \"sql\": ...})"),
                    close)},
        {"http 404", Stage::kServing,
         HttpRequestBytes("GET", "/nope", "", close),
         GoldenHttp("404 Not Found", error("not found"), close)},
        {"http 405", Stage::kServing,
         HttpRequestBytes("GET", "/estimate", "", close),
         GoldenHttp("405 Method Not Allowed", error("use POST"), close)},
        {"http 429 admission reject", Stage::kTenantChoked,
         post(EstimateBody("tiny", kSql)),
         GoldenHttp("429 Too Many Requests", error(choked), close)},
        {"http 429 queue full", Stage::kQueueFull,
         post(EstimateBody("tiny", kSql)),
         GoldenHttp("429 Too Many Requests",
                    error("server overloaded (queue full)"), close)},
        {"http 503 shutting down", Stage::kBackendStopped,
         post(EstimateBody("tiny", kSql)),
         GoldenHttp("503 Service Unavailable",
                    error("server is shutting down"), close)},
    };
    for (Golden g : http) {
      g.name += suffix;
      g.http = true;
      g.closes = close;
      cases.push_back(std::move(g));
    }
  }

  for (const Stage stage : {Stage::kServing, Stage::kTenantChoked,
                            Stage::kQueueFull, Stage::kBackendStopped}) {
    if (stage == Stage::kQueueFull) {
      // A capacity-1 queue holding a request the lingering worker will not
      // take: every wire request finds the queue full.
      HoldBackend(/*queue_capacity=*/1);
      int tries = 0;
      while (!backend_->Submit("stall", kSql).accepted() && ++tries < 5000) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    if (stage == Stage::kBackendStopped) backend_->Stop();
    auto server = StartServer();
    if (stage == Stage::kTenantChoked) {
      server->admission()->SetTenantLimit("default", 0.0, 0.0);
    }
    for (const Golden& g : cases) {
      if (g.stage != stage) continue;
      SCOPED_TRACE(g.name);
      RawConn conn(server->port());
      conn.Send(g.request);
      const std::string reply = g.http ? conn.ReadHttp() : conn.ReadFrame();
      EXPECT_EQ(Printable(reply), Printable(g.reply));
      if (g.closes) {
        EXPECT_TRUE(conn.AtEof());
      }
    }
    StopAndCheckBalance(server.get());
    server.reset();
    SetUp();  // a fresh backend for the next stage
  }
}

// --------------------------------- one pipeline, three request kinds

enum class RequestKind { kEstimate, kBatch, kHttp };

/// The bytes of one request of `kind` and the statements it carries: 64
/// pipelined ESTIMATE frames, one 16-statement ESTIMATE_BATCH, or one
/// keep-alive HTTP POST.
std::pair<std::string, uint64_t> KindRequest(RequestKind kind) {
  switch (kind) {
    case RequestKind::kEstimate: {
      std::string bytes = EstimateFrame(1, "tiny", kSql);
      for (uint64_t id = 2; id <= 64; ++id) {
        bytes += EstimateFrame(id, "tiny", kSql).substr(net::kMagicSize);
      }
      return {bytes, 64};
    }
    case RequestKind::kBatch:
      return {BatchFrame(1, "tiny", std::vector<std::string>(16, kSql)), 16};
    case RequestKind::kHttp:
      return {HttpRequestBytes("POST", "/estimate",
                               EstimateBody("tiny", kSql), false),
              1};
  }
  return {"", 0};
}

bool WaitFor(const std::function<bool()>& done) {
  for (int i = 0; i < 5000; ++i) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return done();
}

class NetRequestKindTest : public NetServerTest,
                           public ::testing::WithParamInterface<RequestKind> {
};

// Regression: completions for a client that hung up were dropped before
// they were counted, so the wire ledger never balanced again.
TEST_P(NetRequestKindTest, HangUpMidFlightKeepsLedgerBalanced) {
  HoldBackend(/*queue_capacity=*/4096);
  auto server = StartServer();
  const std::pair<std::string, uint64_t> kind = KindRequest(GetParam());
  const std::string& request = kind.first;
  const uint64_t items = kind.second;
  {
    RawConn conn(server->port());
    conn.Send(request);
    ASSERT_TRUE(WaitFor([&] {
      return NetCounter(*server, "ds_net_requests_total") == items;
    }));
  }  // hang up with every statement still queued behind the held worker
  ASSERT_TRUE(WaitFor([&] {
    return server->registry()->GetGauge("ds_net_connections_active", "")
               ->value() == 0;
  }));
  backend_->Stop();  // serves the queue; the replies find no connection
  StopAndCheckBalance(server.get());
  EXPECT_EQ(NetCounter(*server, "ds_net_tenant_completed_total",
                       {{"tenant", "default"}}),
            items);
}

// A backend that is shutting down refuses every statement the same way,
// whichever request kind carried it: an error reply, in the completed
// column of the tenant ledger.
TEST_P(NetRequestKindTest, ShutdownRefusalCountsAsError) {
  backend_->Stop();
  auto server = StartServer();
  const std::pair<std::string, uint64_t> kind = KindRequest(GetParam());
  const std::string& request = kind.first;
  const uint64_t items = kind.second;
  RawConn conn(server->port());
  conn.Send(request);
  ASSERT_TRUE(WaitFor([&] {
    return NetCounter(*server, "ds_net_responses_total",
                      {{"status", "error"}}) +
               NetCounter(*server, "ds_net_responses_total",
                          {{"status", "rejected"}}) ==
           items;
  }));
  StopAndCheckBalance(server.get());
  EXPECT_EQ(NetCounter(*server, "ds_net_responses_total",
                       {{"status", "error"}}),
            items);
  const obs::Labels tenant = {{"tenant", "default"}};
  EXPECT_EQ(NetCounter(*server, "ds_net_tenant_completed_total", tenant),
            items);
  EXPECT_EQ(NetCounter(*server, "ds_net_tenant_shed_total", tenant), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, NetRequestKindTest,
    ::testing::Values(RequestKind::kEstimate, RequestKind::kBatch,
                      RequestKind::kHttp),
    [](const ::testing::TestParamInfo<RequestKind>& info) {
      switch (info.param) {
        case RequestKind::kEstimate:
          return std::string("Estimate");
        case RequestKind::kBatch:
          return std::string("Batch");
        case RequestKind::kHttp:
          return std::string("Http");
      }
      return std::string("Unknown");
    });

#endif  // __linux__

}  // namespace
}  // namespace ds
