// Shared setup and reporting for the benchmark harnesses (one binary per
// paper table/figure — see DESIGN.md §3). Each binary accepts simple
// name=value command line overrides, e.g.:
//
//   ./bench_table1_joblight titles=10000 queries=4000 epochs=20
//
// so the full-scale paper configuration and quick smoke runs share code.

#ifndef DS_BENCH_BENCH_UTIL_H_
#define DS_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ds/est/estimator.h"
#include "ds/storage/catalog.h"
#include "ds/util/stats.h"
#include "ds/workload/query_spec.h"

namespace ds::bench {

/// name=value argument parsing with typed getters.
class Args {
 public:
  Args(int argc, char** argv);

  int64_t GetInt(const std::string& name, int64_t def) const;
  double GetDouble(const std::string& name, double def) const;
  std::string GetString(const std::string& name,
                        const std::string& def) const;

 private:
  std::map<std::string, std::string> values_;
};

/// The JOB-light table subset of the IMDb schema.
std::vector<std::string> JobLightTables();

/// Per-query q-errors of `estimator` on a workload with known truths.
/// Aborts on estimation errors (benchmarks run on valid inputs).
std::vector<double> QErrorsOn(
    const est::CardinalityEstimator& estimator,
    const std::vector<workload::QuerySpec>& queries,
    const std::vector<uint64_t>& true_cards);

/// Prints the paper-style q-error table (median 90th 95th 99th max mean),
/// one row per estimator.
void PrintQErrorTable(
    const std::string& title,
    const std::vector<std::pair<std::string, std::vector<double>>>& rows);

/// One machine-readable measurement row written to bench_results/*.json.
struct OpResult {
  std::string op;
  double p50_us = 0;   // per-call latency percentiles
  double p95_us = 0;
  double qps = 0;      // queries (not calls) per second
  double allocations_per_query = 0;  // -1 when counting is unavailable
};

/// Times `fn` over `iters` calls after `warmup` untimed calls, recording
/// per-call latency percentiles, query throughput (`queries_per_call`
/// queries per invocation) and heap allocations per query via the global
/// allocation counter (-1 under sanitizers, where counting is compiled out).
OpResult MeasureOp(const std::string& op, size_t warmup, size_t iters,
                   size_t queries_per_call, const std::function<void()>& fn);

/// Writes `ops` as a JSON document to `path`, creating parent directories:
///   {"benchmark": name, "git_sha": ..., "timestamp": ..., "mode": "inproc",
///    "ops": [...]}
/// git_sha comes from `git rev-parse` (or $DS_GIT_SHA, or "unknown") and
/// timestamp is UTC ISO-8601 at write time. `mode` is always "inproc":
/// every bench binary calls the library in-process (wire serving is
/// measured by perfbench/); the field stays so existing archives keep one
/// schema. `extras` adds string fields to the envelope (the kernel bench
/// records the active SIMD tier and quant modes there, so two archives
/// measured on different dispatch tiers are distinguishable). Errors print
/// to stderr and are otherwise ignored (benchmarks still report on stdout).
void WriteBenchResultsJson(
    const std::string& path, const std::string& name,
    const std::vector<OpResult>& ops,
    const std::vector<std::pair<std::string, std::string>>& extras = {});

/// One named row of scalar measurements for WriteBenchMetricsJson — the
/// machine-readable form of a printed table row (q-error summaries,
/// footprint sweeps, timing sweeps).
struct MetricRow {
  std::string name;
  std::vector<std::pair<std::string, double>> values;
};

/// Writes `rows` with the same envelope as WriteBenchResultsJson:
///   {"benchmark": name, "git_sha": ..., "timestamp": ..., "mode": "inproc",
///    "rows": [{"name": ..., "<metric>": v, ...}, ...]}
/// so every bench binary leaves a comparable bench_results/*.json archive
/// regardless of whether it measures latency ops or table-style metrics.
void WriteBenchMetricsJson(const std::string& path, const std::string& name,
                           const std::vector<MetricRow>& rows);

/// Converts PrintQErrorTable rows into MetricRows carrying the same
/// aggregates the printed table shows (median/p90/p95/p99/max/mean).
std::vector<MetricRow> QErrorMetricRows(
    const std::vector<std::pair<std::string, std::vector<double>>>& rows);

/// The current git commit (short sha), from `git rev-parse --short HEAD`
/// in the current directory, else $DS_GIT_SHA, else "unknown".
std::string GitSha();

}  // namespace ds::bench

#endif  // DS_BENCH_BENCH_UTIL_H_
