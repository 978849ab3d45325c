// Reproduces claim C2 (§1): Deep Sketches are "fast to query (within
// milliseconds)" — and, implicitly, far faster than executing the query.
// Also exercises the Figure 1b interface: a SQL string in, an estimate out.
//
// Uses google-benchmark for the microbenchmarks. A small sketch is trained
// once at startup (train time is excluded from the measurements).
//
// After the google-benchmark run, a second measurement pass writes the key
// ops machine-readably (op, p50/p95, qps, allocations/query) to
// bench_results/estimation_latency.json (json=path overrides, json=
// disables). That pass times the ops in 9 interleaved rounds and records
// each op's median round, so one slow stretch of the machine does not set
// a row.
//
// Usage: bench_estimation_latency [--benchmark_* flags] [json=path]

#include <benchmark/benchmark.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "ds/datagen/imdb.h"
#include "ds/est/hyper.h"
#include "ds/est/postgres.h"
#include "ds/exec/executor.h"
#include "ds/sketch/deep_sketch.h"
#include "ds/sql/binder.h"
#include "ds/util/logging.h"

using namespace ds;

namespace {

struct Env {
  std::unique_ptr<storage::Catalog> db;
  std::unique_ptr<sketch::DeepSketch> sketch;
  std::unique_ptr<est::SampleSet> samples;
  std::unique_ptr<est::PostgresEstimator> postgres;
  std::unique_ptr<est::HyperEstimator> hyper;

  static const Env& Get() {
    static Env* env = [] {
      auto* e = new Env();
      datagen::ImdbOptions imdb;
      imdb.num_titles = 10'000;
      e->db = datagen::GenerateImdb(imdb).value();
      sketch::SketchConfig config;
      config.tables = {"title", "movie_keyword", "keyword"};
      config.num_samples = 256;
      config.num_training_queries = 2'000;
      config.num_epochs = 10;
      config.hidden_units = 64;
      e->sketch = std::make_unique<sketch::DeepSketch>(
          sketch::DeepSketch::Train(*e->db, config).value());
      e->samples = std::make_unique<est::SampleSet>(
          est::SampleSet::Build(*e->db, 256, 99).value());
      e->postgres = std::make_unique<est::PostgresEstimator>(e->db.get());
      e->hyper =
          std::make_unique<est::HyperEstimator>(e->db.get(), e->samples.get());
      return e;
    }();
    return *env;
  }
};

constexpr const char* kSql =
    "SELECT COUNT(*) FROM title t, movie_keyword mk, keyword k "
    "WHERE mk.movie_id = t.id AND mk.keyword_id = k.id "
    "AND k.keyword = 'murder' AND t.production_year > 2000;";

void BM_SketchEstimateSql(benchmark::State& state) {
  const Env& env = Env::Get();
  for (auto _ : state) {
    auto est = env.sketch->EstimateSql(kSql);
    DS_CHECK_OK(est.status());
    benchmark::DoNotOptimize(*est);
  }
}
BENCHMARK(BM_SketchEstimateSql)->Unit(benchmark::kMicrosecond);

void BM_SketchEstimateBoundSpec(benchmark::State& state) {
  const Env& env = Env::Get();
  auto spec = sql::ParseAndBind(env.sketch->schema(), kSql).value();
  for (auto _ : state) {
    auto est = env.sketch->EstimateCardinality(spec);
    DS_CHECK_OK(est.status());
    benchmark::DoNotOptimize(*est);
  }
}
BENCHMARK(BM_SketchEstimateBoundSpec)->Unit(benchmark::kMicrosecond);

void BM_SqlParseAndBindOnly(benchmark::State& state) {
  const Env& env = Env::Get();
  for (auto _ : state) {
    auto spec = sql::ParseAndBind(env.sketch->schema(), kSql);
    DS_CHECK_OK(spec.status());
    benchmark::DoNotOptimize(spec->tables.size());
  }
}
BENCHMARK(BM_SqlParseAndBindOnly)->Unit(benchmark::kMicrosecond);

void BM_PostgresEstimate(benchmark::State& state) {
  const Env& env = Env::Get();
  auto spec = sql::ParseAndBind(*env.db, kSql).value();
  for (auto _ : state) {
    auto est = env.postgres->EstimateCardinality(spec);
    DS_CHECK_OK(est.status());
    benchmark::DoNotOptimize(*est);
  }
}
BENCHMARK(BM_PostgresEstimate)->Unit(benchmark::kMicrosecond);

void BM_HyperEstimate(benchmark::State& state) {
  const Env& env = Env::Get();
  auto spec = sql::ParseAndBind(*env.db, kSql).value();
  for (auto _ : state) {
    auto est = env.hyper->EstimateCardinality(spec);
    DS_CHECK_OK(est.status());
    benchmark::DoNotOptimize(*est);
  }
}
BENCHMARK(BM_HyperEstimate)->Unit(benchmark::kMicrosecond);

// The alternative to estimating: actually running the query ("often, rough
// estimates are sufficient to inform users whether executing a certain
// query would be worthwhile", §1).
void BM_ExecuteQueryForTruth(benchmark::State& state) {
  const Env& env = Env::Get();
  exec::Executor executor(env.db.get());
  auto spec = sql::ParseAndBind(*env.db, kSql).value();
  for (auto _ : state) {
    auto n = executor.Count(spec);
    DS_CHECK_OK(n.status());
    benchmark::DoNotOptimize(*n);
  }
}
BENCHMARK(BM_ExecuteQueryForTruth)->Unit(benchmark::kMillisecond);

// The four query templates the batched op cycles through (distinct
// featurizations, so the batch is not degenerate).
const std::vector<std::string>& BatchSqls() {
  static const std::vector<std::string>* sqls = new std::vector<std::string>{
      kSql,
      "SELECT COUNT(*) FROM title t WHERE t.production_year > 1995;",
      "SELECT COUNT(*) FROM title t, movie_keyword mk "
      "WHERE mk.movie_id = t.id AND t.production_year < 1990;",
      "SELECT COUNT(*) FROM title t WHERE t.kind_id = 1;",
  };
  return *sqls;
}

void WriteJsonResults(const std::string& path) {
  const Env& env = Env::Get();
  struct Op {
    const char* name;
    size_t warmup, iters, queries_per_call;
    std::function<void()> fn;
  };
  std::vector<Op> ops;
  ops.push_back({"estimate_sql", /*warmup=*/100, /*iters=*/2000, 1, [&] {
                   DS_CHECK_OK(env.sketch->EstimateSql(kSql).status());
                 }});

  auto spec = sql::ParseAndBind(env.sketch->schema(), kSql).value();
  ops.push_back({"estimate_bound_spec", /*warmup=*/100, /*iters=*/2000, 1,
                 [&] {
                   DS_CHECK_OK(env.sketch->EstimateCardinality(spec).status());
                 }});

  // The serving hot path: EstimateManyInto over a reused batch of bound
  // specs. allocations_per_query here is the zero-allocation acceptance
  // gauge for the kernel layer.
  std::vector<workload::QuerySpec> specs;
  for (size_t i = 0; i < 64; ++i) {
    specs.push_back(sql::ParseAndBind(
                        env.sketch->schema(),
                        BatchSqls()[i % BatchSqls().size()])
                        .value());
  }
  std::vector<Result<double>> results;
  ops.push_back({"estimate_many_into_batch64", /*warmup=*/10, /*iters=*/200,
                 specs.size(), [&] {
                   env.sketch->EstimateManyInto(specs, &results);
                   for (const auto& r : results) DS_CHECK_OK(r.status());
                 }});

  // Round r times every op once, so a slow stretch of the machine lands on
  // all ops of a round alike; each op's row is its median round by p50.
  constexpr size_t kRounds = 9;
  std::vector<std::vector<bench::OpResult>> rounds(ops.size());
  for (size_t r = 0; r < kRounds; ++r) {
    for (size_t o = 0; o < ops.size(); ++o) {
      rounds[o].push_back(bench::MeasureOp(ops[o].name, ops[o].warmup,
                                           ops[o].iters,
                                           ops[o].queries_per_call, ops[o].fn));
    }
  }
  std::vector<bench::OpResult> medians;
  for (auto& op_rounds : rounds) {
    std::nth_element(op_rounds.begin(), op_rounds.begin() + kRounds / 2,
                     op_rounds.end(),
                     [](const bench::OpResult& a, const bench::OpResult& b) {
                       return a.p50_us < b.p50_us;
                     });
    medians.push_back(op_rounds[kRounds / 2]);
  }
  bench::WriteBenchResultsJson(path, "estimation_latency", medians);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);  // consumes the --benchmark_* flags
  util::Flags flags(argc, argv);
  const std::string json_path =
      flags.String("json", "bench_results/estimation_latency.json");
  bench::ExitOnBadFlags(flags, argv[0]);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!json_path.empty()) WriteJsonResults(json_path);
  return 0;
}
