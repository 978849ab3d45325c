#include "layers.h"

#include <algorithm>
#include <cmath>

#include "ds/mscn/featurizer.h"
#include "ds/sketch/template.h"
#include "ds/sql/binder.h"
#include "ds/sql/parser.h"
#include "ds/util/alloc.h"

namespace perfbench {

using namespace ds;

namespace {

constexpr char kWireName[] = "replay_wire";
constexpr char kServeName[] = "replay_serve";

// Passes over the replayed statements for the batched and template
// timings, so short statement lists still give enough samples.
constexpr int kPasses = 8;

/// Per-query EstimateManyInto time at `batch` queries per call.
Samples TimeBatches(const sketch::DeepSketch& sk,
                    const std::vector<workload::QuerySpec>& specs,
                    size_t batch) {
  std::vector<std::vector<workload::QuerySpec>> chunks;
  for (size_t i = 0; i < specs.size(); i += batch) {
    chunks.emplace_back(specs.begin() + i,
                        specs.begin() + std::min(specs.size(), i + batch));
  }
  Samples per_query;
  std::vector<Result<double>> results;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const auto& chunk : chunks) {
      const int64_t t0 = NowNs();
      sk.EstimateManyInto(chunk, &results);
      per_query.Add(MicrosBetween(t0, NowNs()) / chunk.size());
    }
  }
  return per_query;
}

}  // namespace

Status RunLayerReplay(const ReplayInputs& in, SpanLog* log,
                      std::vector<Metric>* out) {
  const sketch::DeepSketch& sk = *in.sketch;
  DS_RETURN_NOT_OK(in.stack->Publish(sk, kWireName));
  DS_RETURN_NOT_OK(in.stack->Publish(sk, kServeName));
  const std::vector<std::string> requests =
      EncodeRequests(in.protocol, kWireName, in.sqls);
  DS_ASSIGN_OR_RETURN(Connection conn,
                      Connection::Open(in.stack->port(), in.protocol));

  Samples net_rtt, serve_rtt, parse, bind, featurize, forward, estimate_sql,
      allocs, serve_self, net_self;
  std::vector<workload::QuerySpec> specs;
  mscn::FeaturizeScratch scratch;
  mscn::SparseQueryFeatures features;
  std::vector<workload::QuerySpec> one(1);
  std::vector<Result<double>> results;
  std::vector<Span> spans;
  if (!in.sqls.empty()) {
    // Warm this thread's inference scratch outside the measurements.
    (void)sk.EstimateSql(in.sqls.front());
  }

  for (size_t i = 0; i < in.sqls.size(); ++i) {
    const std::string& sql = in.sqls[i];
    const uint64_t root = log->NewId();
    const int64_t root_start = NowNs();
    auto record = [&](const char* name, int64_t start, int64_t end) {
      spans.push_back(Span{name, log->NewId(), root, start, end});
      return MicrosBetween(start, end);
    };

    // 3. The wire: one request at depth 1.
    int64_t t0 = NowNs();
    DS_ASSIGN_OR_RETURN(Connection::Response wire,
                        conn.RoundTrip(i + 1, requests[i]));
    const double wire_us = record("wire", t0, NowNs());
    if (wire.kind != Connection::Response::Kind::kOk) {
      return Status::Internal("replay: wire request failed: " + sql);
    }

    // 2. SketchServer::Submit to the resolved future.
    t0 = NowNs();
    serve::Submission submission = in.stack->server().Submit(kServeName, sql);
    const Result<double> served = submission.future.get();
    const double serve_us = record("serve.submit", t0, NowNs());
    if (!served.ok()) return served.status();

    // 1. sql, FeatureSpace and DeepSketch, called directly.
    t0 = NowNs();
    auto parsed = sql::Parse(sql);
    const double parse_us = record("sql.parse", t0, NowNs());
    if (!parsed.ok()) return parsed.status();

    t0 = NowNs();
    auto bound = sql::Bind(sk.schema(), *parsed);
    const double bind_us = record("sql.bind", t0, NowNs());
    if (!bound.ok()) return bound.status();

    t0 = NowNs();
    const Status featurized = sk.feature_space().FeaturizeSparse(
        bound->spec, sk.samples(), /*use_bitmaps=*/true, &scratch, &features);
    const double featurize_us = record("mscn.featurize", t0, NowNs());
    if (!featurized.ok() && featurized.code() != StatusCode::kNotFound) {
      return featurized;
    }

    one[0] = bound->spec;
    t0 = NowNs();
    sk.EstimateManyInto(one, &results);
    const double many_us = record("sketch.estimate_many", t0, NowNs());

    const uint64_t allocs_before = util::AllocCount();
    t0 = NowNs();
    const Result<double> single = sk.EstimateSql(sql);
    const int64_t t1 = NowNs();
    const uint64_t allocs_after = util::AllocCount();
    estimate_sql.Add(record("sketch.estimate_sql", t0, t1));
    if (!single.ok()) return single.status();

    spans.push_back(Span{"statement", root, 0, root_start, NowNs()});
    log->Append(&spans);

    net_rtt.Add(wire_us);
    serve_rtt.Add(serve_us);
    parse.Add(parse_us);
    bind.Add(bind_us);
    featurize.Add(featurize_us);
    forward.Add(many_us - featurize_us);
    allocs.Add(static_cast<double>(allocs_after - allocs_before));
    serve_self.Add(serve_us - (parse_us + bind_us + many_us));
    net_self.Add(wire_us - serve_us);
    specs.push_back(bound->spec);
  }

  Samples many64 = TimeBatches(sk, specs, 64);
  Samples many_served = TimeBatches(
      sk, specs,
      static_cast<size_t>(std::max(1.0, std::round(in.served_batch))));

  Samples expand;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const std::string& sql : in.templates) {
      auto bound = sk.BindSql(sql);
      if (!bound.ok()) return bound.status();
      const int64_t t0 = NowNs();
      auto instances = sketch::InstantiateTemplate(*bound, sk.samples());
      expand.Add(MicrosBetween(t0, NowNs()));
      if (!instances.ok()) return instances.status();
    }
  }

  const double layer_sum = parse.Median() + bind.Median() +
                           featurize.Median() + forward.Median() +
                           serve_self.Median() + net_self.Median();
  const std::vector<Metric> metrics = {
      {"sql.parse_us", parse.Median(), "us"},
      {"sql.bind_us", bind.Median(), "us"},
      {"mscn.featurize_us", featurize.Median(), "us"},
      {"sketch.estimate_many_us", many64.Median(), "us"},
      {"sketch.estimate_many_served_batch_us", many_served.Median(), "us"},
      {"nn.forward_us", forward.Median(), "us"},
      {"sketch.template_expand_us", expand.Median(), "us"},
      {"sketch.estimate_sql_us", estimate_sql.Median(), "us"},
      {"sketch.allocs_per_estimate", allocs.Median(), "count"},
      {"serve.rtt_us", serve_rtt.Median(), "us"},
      {"serve.self_us", serve_self.Median(), "us"},
      {"net.rtt_us", net_rtt.Median(), "us"},
      {"net.self_us", net_self.Median(), "us"},
      {"budget.unattributed_us", net_rtt.Median() - layer_sum, "us"},
  };
  out->insert(out->end(), metrics.begin(), metrics.end());
  return Status::OK();
}

}  // namespace perfbench
