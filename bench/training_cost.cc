// Reproduces the paper's training-cost claims (§3):
//
//  - "training the model with 90,000 queries over 100 epochs takes almost
//     39 minutes" (on AWS ml.p2.xlarge + CUDA; here: CPU at reduced scale —
//     the *shape* is what transfers):
//  - "the training time decreases linearly with fewer epochs";
//  - "for a small number of tables, 10,000 queries will already be
//     sufficient to achieve good results";
//  - "25 epochs are usually enough to achieve a reasonable mean q-error on
//     a separate validation set".
//
// The bench sweeps #training-queries x #epochs and reports wall-clock time
// for each pipeline stage plus the final validation q-error (this doubles as
// ablation A3, training-set size).
//
// Usage: bench_training_cost [titles=12000] [samples=128] [hidden=64]
//        [seed=42] [max_queries=12000] [out=...]; EXPERIMENTS.md C5 runs
//        titles=15000 samples=128 max_queries=16000.

#include <cstdio>

#include "bench_util.h"
#include "ds/datagen/imdb.h"
#include "ds/est/sample.h"
#include "ds/mscn/trainer.h"
#include "ds/sketch/deep_sketch.h"
#include "ds/util/timer.h"
#include "ds/workload/generator.h"
#include "ds/workload/labeler.h"

using namespace ds;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const size_t titles = flags.Count("titles", 12'000);
  const size_t samples = flags.Count("samples", 128);
  const size_t hidden = flags.Count("hidden", 64);
  const uint64_t seed = flags.Count("seed", 42);
  const size_t max_queries = flags.Count("max_queries", 12'000);
  const std::string out =
      flags.String("out", "bench_results/training_cost.json");
  bench::ExitOnBadFlags(flags, argv[0]);

  std::printf("== Training cost (paper section 3) ==\n");
  datagen::ImdbOptions imdb;
  imdb.num_titles = titles;
  imdb.seed = seed;
  auto catalog = datagen::GenerateImdb(imdb);
  DS_CHECK_OK(catalog.status());
  const storage::Catalog& db = **catalog;
  const auto tables = bench::JobLightTables();

  // Label the largest workload once; sweeps reuse prefixes of it.
  auto sample_set = est::SampleSet::Build(db, samples, seed).value();
  workload::GeneratorOptions gen_opts;
  gen_opts.tables = tables;
  gen_opts.max_tables = 5;
  gen_opts.min_predicates = 0;
  gen_opts.seed = seed + 1;
  auto generator = workload::QueryGenerator::Create(&db, gen_opts).value();
  util::WallTimer label_timer;
  auto labeled =
      workload::LabelQueries(db, &sample_set,
                             generator.GenerateMany(max_queries))
          .value();
  const double label_seconds = label_timer.ElapsedSeconds();
  std::printf("labeled %zu training queries in %.1fs (%.2f ms/query)\n",
              max_queries, label_seconds,
              1e3 * label_seconds / static_cast<double>(max_queries));

  auto space = mscn::FeatureSpace::Create(db, tables, samples).value();
  auto dataset = mscn::Dataset::Build(space, sample_set, labeled).value();

  auto train_once = [&](size_t num_queries, size_t epochs, double* seconds,
                        double* val_mean_q, double* val_median_q) {
    mscn::Dataset subset;
    subset.features.assign(dataset.features.begin(),
                           dataset.features.begin() + num_queries);
    subset.labels.assign(dataset.labels.begin(),
                         dataset.labels.begin() + num_queries);
    mscn::ModelConfig config;
    config.table_dim = space.table_dim();
    config.join_dim = space.join_dim();
    config.pred_dim = space.pred_dim();
    config.hidden_units = hidden;
    mscn::MscnModel model(config);
    util::Pcg32 rng(seed + 2);
    model.Initialize(&rng);
    mscn::TrainerOptions topts;
    topts.epochs = epochs;
    topts.seed = seed + 3;
    mscn::Trainer trainer(topts);
    util::WallTimer timer;
    auto report = trainer.Train(&model, subset, space).value();
    *seconds = timer.ElapsedSeconds();
    *val_mean_q = report.epochs.back().validation_mean_q;
    *val_median_q = report.epochs.back().validation_median_q;
  };

  std::vector<bench::MetricRow> rows;
  rows.push_back({"labeling",
                  {{"seconds", label_seconds},
                   {"ms_per_query", 1e3 * label_seconds /
                                        static_cast<double>(max_queries)}}});

  // Sweep 1: epochs at fixed 10k queries — training time must scale
  // linearly with epochs; validation q-error should plateau around ~25.
  std::printf("\n-- epochs sweep (queries=10000) --\n");
  std::printf("%-8s %10s %14s %16s %12s\n", "epochs", "seconds",
              "sec/epoch", "val mean-q", "val median-q");
  for (size_t epochs : {5, 10, 25, 50}) {
    double secs, mean_q, med_q;
    train_once(std::min<size_t>(10'000, max_queries), epochs, &secs, &mean_q,
               &med_q);
    std::printf("%-8zu %10.1f %14.2f %16.2f %12.2f\n", epochs, secs,
                secs / static_cast<double>(epochs), mean_q, med_q);
    rows.push_back({"epochs=" + std::to_string(epochs),
                    {{"seconds", secs},
                     {"sec_per_epoch", secs / static_cast<double>(epochs)},
                     {"val_mean_q", mean_q},
                     {"val_median_q", med_q}}});
  }

  // Sweep 2: training-set size at fixed 25 epochs (ablation A3) — 10k
  // queries should already reach a good mean q-error for this table subset.
  std::printf("\n-- training-set size sweep (epochs=25) --\n");
  std::printf("%-10s %10s %16s %12s\n", "queries", "seconds", "val mean-q",
              "val median-q");
  size_t prev = 0;
  for (size_t n : {size_t{1'000}, size_t{4'000}, size_t{10'000}, max_queries}) {
    n = std::min(n, max_queries);
    if (n == prev) continue;
    prev = n;
    double secs, mean_q, med_q;
    train_once(n, 25, &secs, &mean_q, &med_q);
    std::printf("%-10zu %10.1f %16.2f %12.2f\n", n, secs, mean_q, med_q);
    rows.push_back({"queries=" + std::to_string(n),
                    {{"seconds", secs},
                     {"val_mean_q", mean_q},
                     {"val_median_q", med_q}}});
  }
  bench::WriteBenchMetricsJson(out, "training_cost", rows);

  std::printf(
      "\npaper reference: 90k queries x 100 epochs = ~39 min on a GPU;\n"
      "time linear in epochs; 10k queries sufficient for small table\n"
      "subsets; 25 epochs usually enough.\n");
  return 0;
}
