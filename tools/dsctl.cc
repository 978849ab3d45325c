// dsctl — command-line interface to the deepsketch library.
//
//   dsctl gen <imdb|tpch> <out-dir> [titles=N] [customers=N] [seed=N]
//       Generate a synthetic dataset and export every table as CSV.
//
//   dsctl train <imdb|tpch> <sketch-file> [tables=t1,t2,...] [queries=N]
//               [epochs=N] [samples=N] [hidden=N] [seed=N] [threads=N]
//               [log=curve.csv] [verbose=0|1]
//       Generate the dataset in memory, train a Deep Sketch, persist it.
//       Prints one machine-parseable key=value record per epoch; verbose=1
//       adds the human-readable progress line.
//
//   dsctl info <sketch-file>
//       Print a sketch's tables, feature-space dimensions, architecture,
//       and footprint.
//
//   dsctl estimate <sketch-file> <SQL>
//       Estimate a COUNT(*) query using only the sketch file (no database).
//
//   dsctl template <sketch-file> <SQL-with-?> [buckets=N] [max=N]
//       Expand a '?' template from the sketch's column sample and estimate
//       every instance.
//
//   dsctl netload <host:port> <sketch-name> [SQL...] [threads=N] [depth=N]
//                 [seconds=S] [tenant=T] [trace=N]
//       Closed-loop networked load against a running ds_served: each thread
//       keeps `depth` pipelined ESTIMATE frames in flight; trace=N samples
//       1 in N requests for wire tracing. With no SQL arguments a demo-imdb
//       corpus is used. Exits nonzero if any request errored, any client
//       failed to connect, or nothing was answered (rejections are
//       reported but OK). Serving a sketch file over TCP is ds_served's
//       job: `ds_served <sketch-file>` serves it under its file stem.
//
//   dsctl metrics <sketch-file> <SQL> [requests=N] [format=prom|json]
//       Serve N copies of the query through a SketchServer and print the
//       resulting metric registry in Prometheus text (default) or JSON
//       exposition format.
//
//   dsctl trace <sketch-file> <SQL> [requests=N]
//       Serve N copies of the query with tracing at sample_every=1 and
//       print each recorded span tree (parse -> bind -> featurize -> queue
//       wait -> batched inference -> cache hit/miss).
//
//   dsctl trace export <host:port> [out=FILE]
//   dsctl trace export <sketch-file> <SQL> [requests=N] [out=FILE]
//       Export the span ring as Chrome trace-event JSON (loadable in
//       about:tracing / Perfetto). The host:port form pulls a live
//       server's /tracez?format=chrome; the sketch-file form serves the
//       query locally at sample_every=1 first. The output is validated
//       for JSON well-formedness before it is written.
//
//   dsctl top <host:port> [interval=S] [iters=N]
//       Live serving dashboard: repaints /statusz?format=text (build,
//       uptime, per-tenant ledger with p50/p99) every `interval` seconds.
//       iters=N exits after N refreshes (iters=1 prints once, no clear).
//
//   dsctl jsoncheck [<file>]
//       Validate JSON well-formedness of a file (or stdin). Exits nonzero
//       with the first syntax error and its byte offset — the CI check
//       behind `dsctl trace export`.
//
// Generation is deterministic per seed, so a sketch trained via `dsctl
// train imdb ... seed=42` answers queries about exactly the dataset that
// `dsctl gen imdb ... seed=42` exports.
//
// Every command reads its name=value flags (ds/util/flags.h) before doing
// any work: an unknown key, a key given twice, a malformed or out-of-range
// value, or a stray positional argument exits 2.

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ds/datagen/imdb.h"
#include "ds/datagen/tpch.h"
#include "ds/mscn/logger.h"
#include "ds/net/client.h"
#include "ds/net/loadgen.h"
#include "ds/net/protocol.h"
#include "ds/obs/export.h"
#include "ds/obs/exposition.h"
#include "ds/obs/trace.h"
#include "ds/serve/registry.h"
#include "ds/serve/server.h"
#include "ds/sketch/deep_sketch.h"
#include "ds/sketch/template.h"
#include "ds/storage/csv.h"
#include "ds/util/flags.h"
#include "ds/util/json_check.h"
#include "ds/util/string_util.h"

using namespace ds;

namespace {

using CatalogMaker =
    std::function<Result<std::unique_ptr<storage::Catalog>>()>;

/// Reads dataset `name`'s generator flags (imdb: titles, seed; tpch:
/// customers, seed) and returns its generator, so the caller checks every
/// flag before anything is generated.
Result<CatalogMaker> DatasetFromFlags(const std::string& name,
                                      util::Flags* flags) {
  if (name == "imdb") {
    datagen::ImdbOptions opts;
    opts.num_titles = flags->Count("titles", 15'000);
    opts.seed = flags->Count("seed", 42);
    return CatalogMaker([opts] { return datagen::GenerateImdb(opts); });
  }
  if (name == "tpch") {
    datagen::TpchOptions opts;
    opts.num_customers = flags->Count("customers", 3'000);
    opts.seed = flags->Count("seed", 42);
    return CatalogMaker([opts] { return datagen::GenerateTpch(opts); });
  }
  return Status::InvalidArgument("unknown dataset '" + name +
                                 "' (imdb|tpch)");
}

int Fail(const Status& status) {
  std::fprintf(stderr, "dsctl: %s\n", status.ToString().c_str());
  return 1;
}

/// Like Fail, for a malformed argument: exit code 2, as for a usage error.
int BadArgument(const Status& status) {
  Fail(status);
  return 2;
}

int CmdGen(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr, "usage: dsctl gen <imdb|tpch> <out-dir> [...]\n");
    return 2;
  }
  util::Flags flags(argc, argv, 4);
  auto dataset = DatasetFromFlags(argv[2], &flags);
  if (!dataset.ok()) return Fail(dataset.status());
  if (Status st = flags.Finish(); !st.ok()) return BadArgument(st);
  auto catalog = (*dataset)();
  if (!catalog.ok()) return Fail(catalog.status());
  const std::string dir = argv[3];
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  for (const auto* table : (*catalog)->tables()) {
    const std::string path = dir + "/" + table->name() + ".csv";
    if (auto st = storage::WriteTableCsv(*table, path); !st.ok()) {
      return Fail(st);
    }
    std::printf("wrote %-18s (%zu rows) -> %s\n", table->name().c_str(),
                table->num_rows(), path.c_str());
  }
  return 0;
}

int CmdTrain(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: dsctl train <imdb|tpch> <sketch-file> [...]\n");
    return 2;
  }
  util::Flags flags(argc, argv, 4);
  auto dataset = DatasetFromFlags(argv[2], &flags);
  if (!dataset.ok()) return Fail(dataset.status());
  sketch::SketchConfig config;
  const std::string tables_csv = flags.String("tables", "");
  if (!tables_csv.empty()) config.tables = util::Split(tables_csv, ',');
  config.num_training_queries = flags.Count("queries", 8'000);
  config.num_epochs = flags.Count("epochs", 25);
  config.num_samples = flags.Count("samples", 256);
  config.hidden_units = flags.Count("hidden", 64);
  config.seed = flags.Count("seed", 42);
  config.training_threads =
      flags.Count("threads", 1, 1, util::Flags::kMaxThreads);
  const std::string log_path = flags.String("log", "");
  const bool verbose = flags.Bool("verbose", false);
  if (Status st = flags.Finish(); !st.ok()) return BadArgument(st);
  auto catalog = (*dataset)();
  if (!catalog.ok()) return Fail(catalog.status());

  sketch::TrainingMonitor monitor;
  monitor.on_labeling_progress = [](size_t done, size_t total) {
    if (done % 2000 == 0 || done == total) {
      // Overwrite the line while labeling; end it once labeling is done.
      std::printf("labeling %zu/%zu%c", done, total,
                  done == total ? '\n' : '\r');
      std::fflush(stdout);
    }
  };
  std::unique_ptr<mscn::TrainingLogger> logger;
  if (!log_path.empty()) {
    auto opened = mscn::TrainingLogger::Open(log_path);
    if (!opened.ok()) return Fail(opened.status());
    logger = std::make_unique<mscn::TrainingLogger>(std::move(opened).value());
  }
  monitor.on_epoch = [&](const mscn::EpochStats& e) {
    if (logger != nullptr) logger->LogEpoch(e);
    std::printf("%s\n", mscn::FormatEpochRecord(e).c_str());
    if (verbose) {
      std::printf(
          "  epoch %3zu  loss %8.3f  val mean-q %7.2f  median-q %6.2f\n",
          e.epoch, e.train_loss, e.validation_mean_q,
          e.validation_median_q);
    }
  };

  auto sketch = sketch::DeepSketch::Train(**catalog, config, &monitor);
  if (!sketch.ok()) return Fail(sketch.status());
  if (auto st = sketch->Save(argv[3]); !st.ok()) return Fail(st);
  std::printf("sketch saved to %s (%s)\n", argv[3],
              util::HumanBytes(sketch->SerializedSize()).c_str());
  return 0;
}

int CmdInfo(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: dsctl info <sketch-file>\n");
    return 2;
  }
  auto sketch = sketch::DeepSketch::Load(argv[2]);
  if (!sketch.ok()) return Fail(sketch.status());
  std::printf("tables:");
  for (const auto& t : sketch->tables()) std::printf(" %s", t.c_str());
  std::printf("\nsamples per table: %zu\n",
              sketch->feature_space().sample_size());
  const auto& space = sketch->feature_space();
  std::printf("feature space: %zu tables, %zu joins, %zu columns\n",
              space.table_names().size(), space.num_joins(),
              space.num_columns());
  std::printf("model parameters: %zu\n", sketch->num_model_parameters());
  std::printf("serialized size: %s\n",
              util::HumanBytes(sketch->SerializedSize()).c_str());
  return 0;
}

int CmdEstimate(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr, "usage: dsctl estimate <sketch-file> <SQL>\n");
    return 2;
  }
  auto sketch = sketch::DeepSketch::Load(argv[2]);
  if (!sketch.ok()) return Fail(sketch.status());
  auto est = sketch->EstimateSql(argv[3]);
  if (!est.ok()) return Fail(est.status());
  std::printf("%.0f\n", *est);
  return 0;
}

int CmdTemplate(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: dsctl template <sketch-file> <SQL-with-?> [...]\n");
    return 2;
  }
  util::Flags flags(argc, argv, 4);
  sketch::TemplateOptions opts;
  const uint64_t buckets = flags.Count("buckets", 0);
  if (buckets > 0) {
    opts.grouping = sketch::TemplateOptions::Grouping::kBuckets;
    opts.num_buckets = buckets;
  }
  opts.max_instances = flags.Count("max", 64, 1);
  if (Status st = flags.Finish(); !st.ok()) return BadArgument(st);
  auto sketch = sketch::DeepSketch::Load(argv[2]);
  if (!sketch.ok()) return Fail(sketch.status());
  auto bound = sketch->BindSql(argv[3]);
  if (!bound.ok()) return Fail(bound.status());
  auto instances = sketch::InstantiateTemplate(*bound, sketch->samples(), opts);
  if (!instances.ok()) return Fail(instances.status());
  for (const auto& inst : *instances) {
    auto est = sketch->EstimateCardinality(inst.spec);
    if (!est.ok()) return Fail(est.status());
    std::printf("%-28s %12.0f\n", inst.label.c_str(), *est);
  }
  return 0;
}

int CmdNetLoad(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: dsctl netload <host:port> <sketch-name> [SQL...] "
                 "[threads=N] [depth=N] [seconds=S] [tenant=T] [trace=N]\n");
    return 2;
  }
  const auto target = net::ParseHostPort(argv[2]);
  if (!target.ok()) return BadArgument(target.status());
  // SQL text never starts with an identifier followed by '=', so every
  // statement is a positional argument.
  util::Flags flags(argc, argv, 4);
  std::vector<std::string> sqls = flags.TakePositionals();
  net::LoadOptions load;
  load.threads = flags.Count("threads", 4, 1, util::Flags::kMaxThreads);
  load.pipeline_depth = flags.Count("depth", 4, 1);
  // Up to 1e9 s, so the window in microseconds fits an int64_t.
  load.seconds = flags.Double("seconds", 5, 0, 1e9);
  load.trace_sample_every = flags.Count("trace", 0);
  const std::string tenant = flags.String("tenant", "");
  if (Status st = flags.Finish(); !st.ok()) return BadArgument(st);
  if (sqls.empty()) {
    // The built-in demo corpus: valid against `ds_served demo=imdb`.
    sqls = {
        "SELECT COUNT(*) FROM title t WHERE t.production_year > 2000",
        "SELECT COUNT(*) FROM title t, movie_keyword mk "
        "WHERE mk.movie_id = t.id",
        "SELECT COUNT(*) FROM title t WHERE t.kind_id = 1",
    };
  }

  auto report = net::RunClosedLoop(target->host, target->port, argv[3], sqls,
                                   load, tenant);
  std::printf(
      "netload %s sketch '%s': %zu threads x depth %zu for %.1fs\n"
      "  %8.0f q/s  ok=%llu errors=%llu rejected=%llu "
      "failed_connections=%llu\n",
      argv[2], argv[3], load.threads, load.pipeline_depth, load.seconds,
      report.Qps(), static_cast<unsigned long long>(report.ok),
      static_cast<unsigned long long>(report.errors),
      static_cast<unsigned long long>(report.rejected),
      static_cast<unsigned long long>(report.failed_connections));
  std::printf("%s", report.LatencyTable().c_str());
  // Errors mean the server answered with failures or dropped connections;
  // rejections are an expected overload outcome and do not fail the run.
  return report.errors == 0 && report.failed_connections == 0 &&
                 report.ok > 0
             ? 0
             : 1;
}

/// Shared by CmdMetrics / CmdTrace: loads the sketch, serves `requests`
/// copies of `sql` through a fresh server (configured by the caller), and
/// leaves the server stopped so its instruments are final.
Result<std::unique_ptr<serve::SketchServer>> ServeQueries(
    serve::SketchRegistry* registry, const char* sketch_file, const char* sql,
    size_t requests, serve::ServerOptions options) {
  auto sketch = sketch::DeepSketch::Load(sketch_file);
  if (!sketch.ok()) return sketch.status();
  if (auto probe = sketch->EstimateSql(sql); !probe.ok()) {
    return probe.status();
  }
  registry->Put("sketch", std::move(sketch).value());
  auto server = std::make_unique<serve::SketchServer>(registry, options);
  std::vector<std::string> sqls(requests, sql);
  for (auto& s : server->SubmitMany("sketch", std::move(sqls))) {
    (void)s.future.get();
  }
  server->Stop();
  return server;
}

int CmdMetrics(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: dsctl metrics <sketch-file> <SQL> [requests=N] "
                 "[format=prom|json]\n");
    return 2;
  }
  util::Flags flags(argc, argv, 4);
  const uint64_t requests = flags.Count("requests", 64);
  const std::string format = flags.String("format", "prom");
  if (Status st = flags.Finish(); !st.ok()) return BadArgument(st);
  if (format != "prom" && format != "json") {
    std::fprintf(stderr, "dsctl: unknown format '%s' (prom|json)\n",
                 format.c_str());
    return 2;
  }
  serve::SketchRegistry registry(serve::RegistryOptions{});
  auto server = ServeQueries(&registry, argv[2], argv[3], requests,
                             serve::ServerOptions{});
  if (!server.ok()) return Fail(server.status());
  if (format == "json") {
    std::printf("%s\n", (*server)->MetricsJson().c_str());
  } else {
    std::printf("%s", obs::ToPrometheusText((*server)->ObsSnapshot()).c_str());
  }
  return 0;
}

int WriteOutput(const std::string& out_path, const std::string& body) {
  if (out_path.empty()) {
    std::printf("%s\n", body.c_str());
    return 0;
  }
  std::FILE* f = std::fopen(out_path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "dsctl: cannot open %s for writing\n",
                 out_path.c_str());
    return 1;
  }
  const size_t written = std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  if (written != body.size()) {
    std::fprintf(stderr, "dsctl: short write to %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "dsctl: wrote %zu bytes to %s\n", body.size(),
               out_path.c_str());
  return 0;
}

int CmdTraceExport(int argc, char** argv) {
  // argv: dsctl trace export <host:port | sketch-file SQL> [flags...]
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: dsctl trace export <host:port> [out=FILE]\n"
                 "       dsctl trace export <sketch-file> <SQL> "
                 "[requests=N] [out=FILE]\n");
    return 2;
  }
  const std::string target = argv[3];
  // A host:port target has a colon and names no existing file; anything
  // else is treated as the local sketch-file form.
  const bool remote = target.rfind(':') != std::string::npos &&
                      !std::filesystem::exists(target);
  if (!remote && argc < 5) {
    std::fprintf(stderr,
                 "usage: dsctl trace export <sketch-file> <SQL> "
                 "[requests=N] [out=FILE]\n");
    return 2;
  }
  util::Flags flags(argc, argv, remote ? 4 : 5);
  const uint64_t requests = remote ? 0 : flags.Count("requests", 4);
  const std::string out_path = flags.String("out", "");
  if (Status st = flags.Finish(); !st.ok()) return BadArgument(st);
  std::string json;
  if (remote) {
    const auto endpoint = net::ParseHostPort(target);
    if (!endpoint.ok()) return BadArgument(endpoint.status());
    auto body = net::HttpGet(endpoint->host, endpoint->port,
                             "/tracez?format=chrome");
    if (!body.ok()) return Fail(body.status());
    json = std::move(body).value();
  } else {
    serve::ServerOptions options;
    options.trace_sample_every = 1;
    options.result_cache_capacity = 0;
    serve::SketchRegistry registry(serve::RegistryOptions{});
    auto server =
        ServeQueries(&registry, argv[3], argv[4], requests, options);
    if (!server.ok()) return Fail(server.status());
    json = obs::ToChromeTraceJson((*server)->tracer()->Snapshot());
  }
  std::string error;
  if (!util::JsonWellFormed(json, &error)) {
    std::fprintf(stderr, "dsctl: exporter produced malformed JSON: %s\n",
                 error.c_str());
    return 1;
  }
  return WriteOutput(out_path, json);
}

int CmdTop(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: dsctl top <host:port> [interval=S] [iters=N]\n");
    return 2;
  }
  const auto endpoint = net::ParseHostPort(argv[2]);
  if (!endpoint.ok()) return BadArgument(endpoint.status());
  util::Flags flags(argc, argv, 3);
  const double interval = flags.Double("interval", 2, 0.001, 86'400);
  const int64_t iters = flags.Int("iters", 0, 0);
  if (Status st = flags.Finish(); !st.ok()) return BadArgument(st);
  for (int64_t i = 0; iters == 0 || i < iters; ++i) {
    auto body = net::HttpGet(endpoint->host, endpoint->port,
                             "/statusz?format=text");
    if (!body.ok()) return Fail(body.status());
    // A single fetch (iters=1) is the scriptable mode — no screen clear.
    if (iters != 1) std::printf("\x1b[H\x1b[2J");
    std::printf("%s", body->c_str());
    std::fflush(stdout);
    if (iters > 0 && i + 1 >= iters) break;
    std::this_thread::sleep_for(std::chrono::duration<double>(interval));
  }
  return 0;
}

int CmdJsonCheck(int argc, char** argv) {
  std::string input;
  const bool from_stdin =
      argc < 3 || std::string_view(argv[2]) == "-";
  std::FILE* f = from_stdin ? stdin : std::fopen(argv[2], "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "dsctl: cannot open %s\n", argv[2]);
    return 1;
  }
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    input.append(buf, n);
  }
  if (!from_stdin) std::fclose(f);
  std::string error;
  if (!util::JsonWellFormed(input, &error)) {
    std::fprintf(stderr, "dsctl: %s\n", error.c_str());
    return 1;
  }
  std::printf("ok (%zu bytes)\n", input.size());
  return 0;
}

int CmdTrace(int argc, char** argv) {
  if (argc >= 3 && std::string_view(argv[2]) == "export") {
    return CmdTraceExport(argc, argv);
  }
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: dsctl trace <sketch-file> <SQL> [requests=N]\n");
    return 2;
  }
  util::Flags flags(argc, argv, 4);
  const uint64_t requests = flags.Count("requests", 4);
  if (Status st = flags.Finish(); !st.ok()) return BadArgument(st);
  serve::ServerOptions options;
  options.trace_sample_every = 1;
  // Traces should show real parse/bind/infer work, not cache hits.
  options.result_cache_capacity = 0;
  serve::SketchRegistry registry(serve::RegistryOptions{});
  auto server =
      ServeQueries(&registry, argv[2], argv[3], requests, options);
  if (!server.ok()) return Fail(server.status());
  const obs::TraceRecorder* tracer = (*server)->tracer();
  for (uint64_t id : tracer->TraceIds()) {
    std::printf("%s\n", obs::FormatTrace(tracer->Trace(id)).c_str());
  }
  std::printf("sampled %llu trace(s), dropped %llu span(s)\n",
              static_cast<unsigned long long>(tracer->sampled()),
              static_cast<unsigned long long>(tracer->dropped()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: dsctl "
                 "<gen|train|info|estimate|template|netload|metrics|trace|"
                 "top|jsoncheck> ...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "gen") return CmdGen(argc, argv);
  if (cmd == "train") return CmdTrain(argc, argv);
  if (cmd == "info") return CmdInfo(argc, argv);
  if (cmd == "estimate") return CmdEstimate(argc, argv);
  if (cmd == "template") return CmdTemplate(argc, argv);
  if (cmd == "netload") return CmdNetLoad(argc, argv);
  if (cmd == "metrics") return CmdMetrics(argc, argv);
  if (cmd == "trace") return CmdTrace(argc, argv);
  if (cmd == "top") return CmdTop(argc, argv);
  if (cmd == "jsoncheck") return CmdJsonCheck(argc, argv);
  std::fprintf(stderr, "dsctl: unknown command '%s'\n", cmd.c_str());
  return 2;
}
