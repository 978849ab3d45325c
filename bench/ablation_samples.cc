// Ablation A2: materialized sample size. Step 1 of Figure 1a lets the user
// choose "the number of materialized base table samples"; the paper's
// example is 1000 tuples per table. This bench sweeps the sample size and
// reports JOB-light q-errors plus the resulting sketch footprint — the
// accuracy/size trade-off a user navigates when creating a sketch.
//
// Usage: bench_ablation_samples [titles=15000] [queries=6000] [epochs=25]

#include <cstdio>

#include "bench_util.h"
#include "ds/datagen/imdb.h"
#include "ds/exec/executor.h"
#include "ds/sketch/deep_sketch.h"
#include "ds/util/string_util.h"
#include "ds/workload/joblight.h"

using namespace ds;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const size_t titles = flags.Count("titles", 15'000);
  const size_t queries = flags.Count("queries", 4'000);
  const size_t epochs = flags.Count("epochs", 25);
  const uint64_t seed = flags.Count("seed", 42);
  const std::string out =
      flags.String("out", "bench_results/ablation_samples.json");
  bench::ExitOnBadFlags(flags, argv[0]);

  std::printf("== Ablation: materialized sample size ==\n");
  datagen::ImdbOptions imdb;
  imdb.num_titles = titles;
  imdb.seed = seed;
  auto catalog = datagen::GenerateImdb(imdb);
  DS_CHECK_OK(catalog.status());
  const storage::Catalog& db = **catalog;

  workload::JobLightOptions jl;
  jl.seed = seed + 1000;
  auto workload = workload::MakeJobLight(db, jl).value();
  exec::Executor executor(&db);
  std::vector<uint64_t> truths;
  for (const auto& spec : workload) {
    truths.push_back(executor.Count(spec).value());
  }

  std::printf("\n%-10s %12s | %-8s %-8s %-8s %-8s  (q-error)\n", "samples",
              "footprint", "median", "95th", "max", "mean");
  std::vector<bench::MetricRow> rows;
  for (size_t samples : {16, 64, 256, 1024}) {
    sketch::SketchConfig config;
    config.tables = bench::JobLightTables();
    config.num_samples = samples;
    config.num_training_queries = queries;
    config.num_epochs = epochs;
    config.seed = seed;
    auto sketch = sketch::DeepSketch::Train(db, config);
    DS_CHECK_OK(sketch.status());
    auto q = bench::QErrorsOn(*sketch, workload, truths);
    auto s = util::QErrorSummary::FromQErrors(q);
    std::printf("%-10zu %12s | %-8s %-8s %-8s %-8s\n", samples,
                util::HumanBytes(sketch->SerializedSize()).c_str(),
                util::FormatQ(s.median).c_str(), util::FormatQ(s.p95).c_str(),
                util::FormatQ(s.max).c_str(), util::FormatQ(s.mean).c_str());
    rows.push_back({"samples=" + std::to_string(samples),
                    {{"footprint_bytes",
                      static_cast<double>(sketch->SerializedSize())},
                     {"median", s.median},
                     {"p95", s.p95},
                     {"max", s.max},
                     {"mean", s.mean}}});
  }
  bench::WriteBenchMetricsJson(out, "ablation_samples", rows);
  std::printf(
      "\nshape: more samples improve accuracy (sharper bitmaps, fewer "
      "0-tuple\nmisses) at a linearly growing footprint; returns diminish "
      "well below the\nfull table sizes.\n");
  return 0;
}
