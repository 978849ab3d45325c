// Reproduces Table 1: "Estimation errors on the JOB-light workload" —
// q-error {median, 90th, 95th, 99th, max, mean} for Deep Sketch vs the
// HyPer-style sampling estimator vs the PostgreSQL-style histogram
// estimator.
//
// Paper values (on the real IMDb):
//              median  90th  95th   99th   max   mean
//   Deep Sketch  3.82  78.4   362    927  1110   57.9
//   HyPer        14.6   454  1208   2764  4228    224
//   PostgreSQL   7.93   164  1104   2912  3477    174
//
// The shape to reproduce on the synthetic IMDb: Deep Sketch best at every
// aggregate, with the margin growing in the tail.
//
// Usage: bench_table1_joblight [titles=25000] [queries=8000] [epochs=30]
//        [samples=128] [hidden=64] [jl_queries=70] [seed=42]

#include <cstdio>

#include "bench_util.h"
#include "ds/datagen/imdb.h"
#include "ds/est/hyper.h"
#include "ds/est/postgres.h"
#include "ds/exec/executor.h"
#include "ds/sketch/deep_sketch.h"
#include "ds/util/string_util.h"
#include "ds/util/timer.h"
#include "ds/workload/joblight.h"

using namespace ds;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const size_t titles = flags.Count("titles", 20'000);
  const size_t queries = flags.Count("queries", 16'000);
  const size_t epochs = flags.Count("epochs", 40);
  const size_t samples = flags.Count("samples", 256);
  const size_t hidden = flags.Count("hidden", 64);
  const size_t jl_queries = flags.Count("jl_queries", 70);
  const uint64_t seed = flags.Count("seed", 42);
  const std::string out =
      flags.String("out", "bench_results/table1_joblight.json");
  bench::ExitOnBadFlags(flags, argv[0]);

  std::printf("== Table 1: estimation errors on JOB-light ==\n");
  std::printf("config: titles=%zu queries=%zu epochs=%zu samples=%zu "
              "hidden=%zu\n",
              titles, queries, epochs, samples, hidden);

  datagen::ImdbOptions imdb;
  imdb.num_titles = titles;
  imdb.seed = seed;
  auto catalog = datagen::GenerateImdb(imdb);
  DS_CHECK_OK(catalog.status());
  const storage::Catalog& db = **catalog;

  // Train the Deep Sketch over the JOB-light table subset.
  sketch::SketchConfig config;
  config.tables = bench::JobLightTables();
  config.num_samples = samples;
  config.num_training_queries = queries;
  config.num_epochs = epochs;
  config.hidden_units = hidden;
  config.seed = seed;
  util::WallTimer timer;
  auto sketch = sketch::DeepSketch::Train(db, config);
  DS_CHECK_OK(sketch.status());
  std::printf("sketch trained in %.1fs (%zu params, %s serialized)\n",
              timer.ElapsedSeconds(), sketch->num_model_parameters(),
              util::HumanBytes(sketch->SerializedSize()).c_str());

  // The evaluation workload and its ground truth.
  workload::JobLightOptions jl;
  jl.num_queries = jl_queries;
  jl.seed = seed + 1000;
  auto workload = workload::MakeJobLight(db, jl);
  DS_CHECK_OK(workload.status());
  exec::Executor executor(&db);
  std::vector<uint64_t> truths;
  truths.reserve(workload->size());
  for (const auto& spec : *workload) {
    auto n = executor.Count(spec);
    DS_CHECK_OK(n.status());
    truths.push_back(*n);
  }

  // Baselines (the HyPer baseline gets its own samples, as the real system
  // would — same size as the sketch's).
  est::PostgresEstimator postgres(&db);
  auto baseline_samples = est::SampleSet::Build(db, samples, seed + 2000);
  DS_CHECK_OK(baseline_samples.status());
  est::HyperEstimator hyper(&db, &*baseline_samples);

  const std::vector<std::pair<std::string, std::vector<double>>> rows = {
      {"Deep Sketch", bench::QErrorsOn(*sketch, *workload, truths)},
      {"HyPer", bench::QErrorsOn(hyper, *workload, truths)},
      {"PostgreSQL", bench::QErrorsOn(postgres, *workload, truths)}};
  bench::PrintQErrorTable("Estimation errors on the JOB-light workload (" +
                              std::to_string(workload->size()) + " queries)",
                          rows);
  bench::WriteBenchMetricsJson(out, "table1_joblight",
                               bench::QErrorMetricRows(rows));

  std::printf(
      "\npaper (real IMDb):\n"
      "Deep Sketch  3.82  78.4  362   927   1110  57.9\n"
      "HyPer        14.6  454   1208  2764  4228  224\n"
      "PostgreSQL   7.93  164   1104  2912  3477  174\n");
  return 0;
}
