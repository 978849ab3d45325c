// ds_perfbench: the repository benchmark driver. perfbench/run.py builds
// and runs it as
//
//   ds_perfbench --workload adhoc|dashboard|template_sweep --seed N
//                --seconds S --trace 0|1 [--smoke] [--source-digest HEX]
//
// --trace 0 measures the end-to-end metrics with the benchmark's spans
// off; --trace 1 measures the per-layer metrics (spans on, plus a layer
// replay). The run prints a "stamp" line describing the setup and, as its
// last stdout line, {"correct","attempted","failed","metrics"}. The same
// result, timing details and (traced) the spans go to .bench_out/. Exit 0
// when every served estimate checked out, 1 when an output check failed,
// 2 on a usage or set-up error.

#include <unistd.h>

#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common.h"
#include "ds/exec/executor.h"
#include "ds/nn/kernels.h"
#include "ds/nn/quant.h"
#include "ds/obs/metrics.h"
#include "ds/sketch/template.h"
#include "ds/util/build_info.h"
#include "ds/util/random.h"
#include "ds/util/stats.h"
#include "ds/workload/generator.h"
#include "layers.h"
#include "load.h"
#include "setup.h"

namespace perfbench {
namespace {

using namespace ds;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string source_digest = "unknown";
};

// Where results, spans and scratch sketches go, relative to the checkout.
constexpr char kOutDir[] = ".bench_out";

/// One workload's traffic shape. Rates are fixed numbers, not fractions of
/// a measured saturation, so a change that moves saturation is compared at
/// the same offered load.
struct WorkloadConfig {
  const char* name;
  bool wire;  // false: in-process template sweep
  Protocol protocol;
  double low_rate;   // requests per second; 0 = closed loop
  // 40-60% of the saturation measured on the reference machine: the 70% a
  // planner-facing service would target left too little headroom for this
  // shared machine's speed swings, which then showed as queueing noise.
  double high_rate;
  size_t depth;      // closed loop: requests outstanding per connection
  double republish_period_s;  // 0 = never
};

const WorkloadConfig kWorkloads[] = {
    {"adhoc", true, Protocol::kBinary, 800, 12000, 8, 0},
    {"dashboard", true, Protocol::kHttp, 800, 7000, 8, 0.5},
    {"template_sweep", false, Protocol::kBinary, 0, 0, 1, 0},
};

// Load comes from one process: client threads and connections each stay
// at or below nproc (4 on the reference machine). One wire client thread
// multiplexes all connections, leaving the cores to the server's 2 workers
// and 1 event loop. The in-process sweep runs one thread per core of the
// reference machine: spread over every core, it averages out the
// co-tenant slowdowns that hit single cores.
constexpr size_t kWireClientThreads = 1;
constexpr size_t kConnections = 4;
constexpr size_t kInprocThreads = 4;

// The template sweep is a closed loop throughout, as its callers wait for
// each answer: its "low" phase is one caller and its "high" phase two.
// Open loops with idle gaps between calls made each call's time depend on
// what co-tenants did to the idle core meanwhile (a fifth of spread).
constexpr size_t kInprocLowThreads = 1;
constexpr size_t kInprocHighThreads = 2;

// Seed of the accuracy evaluation set (see "Accuracy" in Run).
constexpr uint64_t kEvalSeed = 777;

// Seed of the template catalog, an application's fixed set of '?'
// templates; --seed orders the calls. Template calls cluster by instance
// count and the median call sits between clusters, so a catalog drawn from
// --seed moved sweep medians by a fifth between seeds.
constexpr uint64_t kTemplateSeed = 4242;

/// Input sizes. --smoke shrinks everything so all workloads finish in
/// seconds; the metric set is unchanged.
struct Sizes {
  SketchParams sketch;
  size_t setup_reps = 5;  // set-ups per end-to-end run; the median counts
  size_t rounds = 8;      // interleaved rounds of the load phases
  size_t adhoc_pool = 16384;  // 4x the result cache: every request misses
  size_t dashboard_pool = 300;
  size_t templates = 128;
  size_t eval_statements = 1024;  // wire workloads' accuracy set
  size_t eval_templates = 16;     // template_sweep's (up to 64 instances each)
  size_t replay = 400;
  double warmup_s = 0.5;
};

Sizes SizesFor(bool smoke) {
  Sizes s;
  if (smoke) {
    s.sketch.titles = 1500;
    s.sketch.samples = 64;
    s.sketch.training_queries = 200;
    s.sketch.epochs = 1;
    s.sketch.hidden = 32;
    s.setup_reps = 2;
    s.rounds = 2;
    s.adhoc_pool = 512;
    s.dashboard_pool = 50;
    s.templates = 16;
    s.eval_statements = 64;
    s.eval_templates = 4;
    s.replay = 40;
    s.warmup_s = 0.1;
  }
  return s;
}

// ---- Workload inputs --------------------------------------------------------

/// Distinct statements from workload::QueryGenerator over the sketch's
/// tables: 1-3 tables (all the FK graph reaches) and 1-4 predicates.
std::vector<workload::QuerySpec> DistinctSpecs(const storage::Catalog& db,
                                               uint64_t seed, size_t n) {
  workload::GeneratorOptions gen;
  gen.tables = SketchTables();
  gen.min_tables = 1;
  gen.max_tables = SketchTables().size();
  gen.min_predicates = 1;
  gen.max_predicates = 4;
  gen.seed = seed;
  auto generator = workload::QueryGenerator::Create(&db, gen);
  DS_CHECK_OK(generator.status());
  std::unordered_set<std::string> seen;
  std::vector<workload::QuerySpec> out;
  for (size_t tries = 0; out.size() < n && tries < 4 * n; ++tries) {
    workload::QuerySpec spec = generator->Generate();
    if (seen.insert(spec.ToSql()).second) out.push_back(std::move(spec));
  }
  return out;
}

/// Renders the statements, binds them against the sketch and computes the
/// in-process reference with EstimateManyInto. Statements that do not bind
/// or estimate are dropped, so the workload holds no failing operation;
/// `kept` receives the generator specs of the statements kept.
StatementSet BuildStatementSet(const sketch::DeepSketch& sk,
                               const std::vector<workload::QuerySpec>& specs,
                               std::vector<workload::QuerySpec>* kept) {
  std::vector<workload::QuerySpec> bound_specs;
  std::vector<size_t> origin;
  for (size_t i = 0; i < specs.size(); ++i) {
    auto bound = sk.BindSql(specs[i].ToSql());
    if (!bound.ok() || bound->placeholder.has_value()) continue;
    bound_specs.push_back(std::move(bound->spec));
    origin.push_back(i);
  }
  std::vector<Result<double>> results;
  sk.EstimateManyInto(bound_specs, &results);
  StatementSet set;
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok() || !std::isfinite(*results[i]) || *results[i] < 0) {
      continue;
    }
    set.sqls.push_back(specs[origin[i]].ToSql());
    set.reference.push_back(*results[i]);
    kept->push_back(specs[origin[i]]);
  }
  return set;
}

/// One template call: bind the '?' template, expand it over the sketch's
/// samples (up to 64 instances) and estimate every instance in one batch.
Status ExpandAndEstimate(const sketch::DeepSketch& sk, const std::string& sql,
                         std::vector<workload::QuerySpec>* specs,
                         std::vector<Result<double>>* results) {
  DS_ASSIGN_OR_RETURN(sql::BoundQuery bound, sk.BindSql(sql));
  if (!bound.placeholder.has_value()) {
    return Status::InvalidArgument("not a template: " + sql);
  }
  DS_ASSIGN_OR_RETURN(std::vector<sketch::TemplateInstance> instances,
                      sketch::InstantiateTemplate(bound, sk.samples()));
  specs->clear();
  for (auto& instance : instances) specs->push_back(std::move(instance.spec));
  sk.EstimateManyInto(*specs, results);
  return Status::OK();
}

/// Every result matches its reference (see MatchesReference).
bool MatchesAll(const std::vector<Result<double>>& results,
                const std::vector<double>& reference) {
  if (results.size() != reference.size()) return false;
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok() ||
        !MatchesReference(*results[i], reference[i], Protocol::kBinary)) {
      return false;
    }
  }
  return true;
}

/// Query templates: a generated statement whose last predicate's literal
/// becomes the '?' placeholder.
struct TemplateSet {
  std::vector<std::string> sqls;
  std::vector<std::vector<workload::QuerySpec>> instances;
  std::vector<std::vector<double>> reference;  // per instance
  std::vector<uint32_t> sequence;
};

TemplateSet BuildTemplates(const sketch::DeepSketch& sk,
                           const storage::Catalog& db, uint64_t seed,
                           size_t n) {
  TemplateSet set;
  std::vector<Result<double>> results;
  for (workload::QuerySpec& spec : DistinctSpecs(db, seed, 4 * n)) {
    if (set.sqls.size() == n) break;
    // The generator drops predicates on (nearly) all-NULL columns, so a
    // statement can come without any to turn into the placeholder.
    if (spec.predicates.empty()) continue;
    const workload::ColumnPredicate hole = spec.predicates.back();
    spec.predicates.pop_back();
    std::string sql = spec.ToSql();
    sql.pop_back();  // ';'
    sql += spec.joins.empty() && spec.predicates.empty() ? " WHERE " : " AND ";
    sql += hole.table + "." + hole.column +
           workload::CompareOpToString(hole.op) + "?;";
    std::vector<workload::QuerySpec> specs;
    if (!ExpandAndEstimate(sk, sql, &specs, &results).ok() ||
        specs.size() < 2) {
      continue;
    }
    std::vector<double> reference;
    for (const auto& r : results) {
      if (!r.ok() || !std::isfinite(*r) || *r < 0) break;
      reference.push_back(*r);
    }
    if (reference.size() != specs.size()) continue;
    set.sqls.push_back(std::move(sql));
    set.instances.push_back(std::move(specs));
    set.reference.push_back(std::move(reference));
  }
  return set;
}

std::vector<uint32_t> InOrder(size_t n) {
  std::vector<uint32_t> seq(n);
  for (size_t i = 0; i < n; ++i) seq[i] = static_cast<uint32_t>(i);
  return seq;
}

std::vector<uint32_t> ZipfSequence(size_t n, double skew, uint64_t seed) {
  util::ZipfDistribution zipf(n, skew);
  util::Pcg32 rng(seed);
  std::vector<uint32_t> seq(1 << 16);
  for (uint32_t& s : seq) s = static_cast<uint32_t>(zipf.Sample(&rng));
  return seq;
}

/// q-error of estimates against ds::exec ground truth.
Samples QErrors(const storage::Catalog& db,
                const std::vector<workload::QuerySpec>& specs,
                const std::vector<double>& estimates) {
  exec::Executor executor(&db);
  Samples q;
  for (size_t i = 0; i < specs.size(); ++i) {
    auto truth = executor.Count(specs[i]);
    if (truth.ok()) {
      q.Add(util::QError(static_cast<double>(*truth), estimates[i]));
    }
  }
  return q;
}

// ---- Phases in rounds -------------------------------------------------------

/// One load phase run in several rounds. The reported figures are taken
/// over the 0.5 s windows of all rounds, from the least disturbed tenth of
/// them: on a shared machine, co-tenants slow every core by up to half for
/// spells of seconds or longer, and a median over windows moves with
/// however many of them a run happened to catch. A slowdown the program
/// causes in most windows still shows.
struct Rounds {
  std::vector<PhaseStats> rounds;
  PhaseStats all;  // whole-phase samples and counts

  void Add(PhaseStats s) {
    all.Merge(s);
    rounds.push_back(std::move(s));
  }
  Samples WindowLatency(double q) {
    Samples out;
    for (PhaseStats& s : rounds) s.AddWindowQuantiles(q, &out);
    return out;
  }
  Samples WindowThroughput() const {
    Samples out;
    for (const PhaseStats& s : rounds) s.AddWindowThroughputs(&out);
    return out;
  }
  double Latency(double q) { return WindowLatency(q).Quantile(0.1); }
  double Throughput() const { return WindowThroughput().Quantile(0.9); }
};

// ---- Dashboard writes -------------------------------------------------------

/// Republishes the sketch on a fixed period while the readers run: Save,
/// Invalidate, reload (Stack::Republish).
class Republisher {
 public:
  Republisher(Stack* stack, const sketch::DeepSketch* sketch, double period_s)
      : stack_(stack),
        sketch_(sketch),
        period_(std::chrono::duration<double>(period_s)),
        thread_([this] { Loop(); }) {}

  ~Republisher() { Stop(); }
  Republisher(const Republisher&) = delete;
  Republisher& operator=(const Republisher&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  /// Valid after Stop().
  Samples& times_ms() { return times_ms_; }
  uint64_t failures() const { return failures_; }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, period_, [this] { return stop_; })) {
      lock.unlock();
      const int64_t t0 = NowNs();
      const Status st = stack_->Republish(*sketch_, "bench");
      times_ms_.Add(MicrosBetween(t0, NowNs()) * 1e-3);
      if (!st.ok()) ++failures_;
      lock.lock();
    }
  }

  Stack* stack_;
  const sketch::DeepSketch* sketch_;
  const std::chrono::duration<double> period_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
  Samples times_ms_;   // written by the thread only
  uint64_t failures_ = 0;
  std::thread thread_;  // last: starts after every member it uses exists
};

// ---- Output -----------------------------------------------------------------

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string StampJson(const Args& args, const WorkloadConfig& w,
                      const Sizes& sizes, const sketch::DeepSketch& sk) {
  const util::BuildInfo& build = util::GetBuildInfo();
  const serve::ServerOptions served = ServedDefaults();
  auto field = [](const char* key, const std::string& value) {
    return JsonString(key) + ":" + value;
  };
  auto str = [](const std::string& s) { return JsonString(s); };
  auto num = [](double v) { return JsonNumber(v); };
  std::string j = "{";
  j += field("workload", str(w.name)) + ",";
  j += field("seed", num(static_cast<double>(args.seed))) + ",";
  j += field("seconds", num(args.seconds)) + ",";
  j += field("trace", num(args.trace ? 1 : 0)) + ",";
  j += field("smoke", num(args.smoke ? 1 : 0)) + ",";
  j += field("git_sha", str(build.git_sha)) + ",";
  j += field("source_digest", str(args.source_digest)) + ",";
  j += field("build_type", str(build.build_type)) + ",";
  j += field("compiler", str(build.compiler)) + ",";
  j += field("cpu_model", str(CpuModel())) + ",";
  j += field("nproc", num(std::thread::hardware_concurrency())) + ",";
  j += field("kernel_tier", str(nn::KernelTierName(nn::ActiveKernelTier()))) +
       ",";
  j += field("quant_mode", str(nn::QuantModeName(sk.quant_mode()))) + ",";
  j += field("serve_workers", num(served.num_workers)) + ",";
  j += field("serve_queue_shards", num(served.num_queue_shards)) + ",";
  j += field("max_batch", num(served.max_batch)) + ",";
  j += field("linger_us", num(served.max_wait_us)) + ",";
  j += field("queue_capacity", num(served.queue_capacity)) + ",";
  j += field("trace_sample_every", num(served.trace_sample_every)) + ",";
  j += field("pin_workers", num(served.pin_workers ? 1 : 0)) + ",";
  j += field("net_loops", num(w.wire ? kNetLoops : 0)) + ",";
  j += field("protocol",
             str(!w.wire ? "inproc"
                         : w.protocol == Protocol::kBinary ? "binary"
                                                           : "http")) +
       ",";
  j += field("client_threads",
             num(w.wire ? kWireClientThreads : kInprocThreads)) +
       ",";
  j += field("connections", num(w.wire ? kConnections : 0)) + ",";
  j += field("low_rate", num(w.low_rate)) + ",";
  j += field("high_rate", num(w.high_rate)) + ",";
  if (!w.wire) {
    j += field("low_threads", num(kInprocLowThreads)) + ",";
    j += field("high_threads", num(kInprocHighThreads)) + ",";
  }
  j += field("closed_loop_depth", num(w.depth)) + ",";
  j += field("republish_period_s", num(w.republish_period_s)) + ",";
  j += field("sketch_titles", num(sizes.sketch.titles)) + ",";
  j += field("sketch_samples", num(sizes.sketch.samples)) + ",";
  j += field("sketch_training_queries", num(sizes.sketch.training_queries)) +
       ",";
  j += field("sketch_epochs", num(sizes.sketch.epochs)) + ",";
  j += field("sketch_hidden", num(sizes.sketch.hidden));
  return j + "}";
}

std::string TimingJson(Samples& s) {
  return "{\"n\":" + std::to_string(s.count()) +
         ",\"p50\":" + JsonNumber(s.Median()) +
         ",\"p99\":" + JsonNumber(s.Quantile(0.99)) +
         ",\"tail_pct\":" + JsonNumber(s.TailPercent()) +
         ",\"tail\":" + JsonNumber(s.Quantile(s.TailPercent() / 100)) + "}";
}

std::string ValuesJson(const Samples& s) {
  std::string j = "[";
  for (double v : s.values()) {
    if (j.size() > 1) j += ',';
    j += JsonNumber(v);
  }
  return j + "]";
}

std::string ResultJson(bool correct, const PhaseStats& all,
                       const std::vector<Metric>& metrics) {
  std::string j = "{\"correct\":" + std::string(correct ? "true" : "false") +
                  ",\"attempted\":" + std::to_string(all.attempted) +
                  ",\"failed\":" + std::to_string(all.failed()) +
                  ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) j += ',';
    j += JsonString(metrics[i].name) +
         ":{\"value\":" + JsonNumber(metrics[i].value) +
         ",\"unit\":" + JsonString(metrics[i].unit) + "}";
  }
  return j + "}}";
}

// ---- Registry deltas --------------------------------------------------------

/// Sum of a counter (or a histogram's sum/count) over all label sets.
double Total(const obs::RegistrySnapshot& snap, const std::string& name,
             bool histogram_count = false) {
  double total = 0;
  for (const obs::MetricSnapshot& m : snap.metrics) {
    if (m.name != name) continue;
    if (m.kind == obs::MetricKind::kHistogram) {
      total += static_cast<double>(histogram_count ? m.histogram.count
                                                   : m.histogram.sum);
    } else {
      total += m.value;
    }
  }
  return total;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double MeanDelta(const obs::HistogramSnapshot& before,
                 const obs::HistogramSnapshot& after) {
  return Ratio(static_cast<double>(after.sum - before.sum),
               static_cast<double>(after.count - before.count));
}

int Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  return 2;
}

// ---- The run ----------------------------------------------------------------

int Run(const Args& args) {
  const WorkloadConfig* w = nullptr;
  for (const WorkloadConfig& c : kWorkloads) {
    if (args.workload == c.name) w = &c;
  }
  if (w == nullptr) return Fail("unknown workload '" + args.workload + "'");
  const Sizes sizes = SizesFor(args.smoke);
  const std::string sketch_dir =
      std::string(kOutDir) + "/sketches-" + std::to_string(getpid());
  struct RemoveDir {
    std::string path;
    ~RemoveDir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  } remove_dir{sketch_dir};

  // ---- Set-up, timed --------------------------------------------------------
  // The untraced run sets up once here and setup_reps - 1 more times
  // between its load rounds, into scratch directories; setup_s is the
  // median. Spread over the run, the set-ups ride out the slow spells of a
  // shared machine that a burst of back-to-back set-ups would all fall in.
  Samples setup;
  SetupTimes times;
  auto timed_setup = [&](const std::string& dir,
                         SetupTimes* t) -> Result<SystemUnderTest> {
    std::error_code mkdir_error;
    std::filesystem::create_directories(dir, mkdir_error);
    if (mkdir_error) {
      return Status::IOError("cannot create " + dir + ": " +
                             mkdir_error.message());
    }
    DS_ASSIGN_OR_RETURN(SystemUnderTest sut,
                        SetUp(sizes.sketch, w->wire, dir, t));
    setup.Add(t->Total());
    std::fprintf(stderr, "perfbench: set-up %zu took %.3f s\n", setup.count(),
                 t->Total());
    return sut;
  };
  auto first = timed_setup(sketch_dir, &times);
  if (!first.ok()) return Fail(first.status().ToString());
  SystemUnderTest sut = std::move(first).value();
  const Trained& trained = sut.trained;
  std::unique_ptr<Stack>& stack = sut.stack;
  std::shared_ptr<const sketch::DeepSketch> served;
  if (w->wire) {
    auto handle = stack->registry().Get("bench");
    if (!handle.ok()) return Fail(handle.status().ToString());
    served = *handle;
  }
  const sketch::DeepSketch& sk = w->wire ? *served : *sut.embedded;
  if (args.trace && !w->wire) {
    // The layer replay needs a server even for the in-process workload.
    auto s = Stack::Start(sk, sketch_dir, "bench", true);
    if (!s.ok()) return Fail(s.status().ToString());
    stack = std::move(s).value();
  }

  // ---- Inputs, references and truth: computed once, not timed -------------
  const uint64_t input_seed = 1'000'003ULL * (args.seed + 1);
  const storage::Catalog& db = *trained.db;
  const bool adhoc = std::strcmp(w->name, "adhoc") == 0;
  StatementSet set;
  std::vector<std::string> replay_sqls;
  TemplateSet templates = BuildTemplates(
      sk, db, kTemplateSeed, w->wire ? sizes.templates / 4 : sizes.templates);
  if (templates.sqls.empty()) return Fail("no usable query templates");
  if (w->wire) {
    std::vector<workload::QuerySpec> kept;
    set = BuildStatementSet(
        sk,
        adhoc ? DistinctSpecs(db, input_seed, sizes.adhoc_pool)
              : DistinctSpecs(db, input_seed + 3, sizes.dashboard_pool),
        &kept);
    if (set.sqls.empty()) return Fail("no usable statements");
    set.sequence = adhoc ? InOrder(set.sqls.size())
                         : ZipfSequence(set.sqls.size(), 1.1, input_seed + 1);
    replay_sqls.assign(
        set.sqls.begin(),
        set.sqls.begin() + std::min(sizes.replay, set.sqls.size()));
  } else {
    // One seeded order, cycled: any stretch of calls as long as the
    // template set holds the same mix, so a window's figures do not hinge
    // on which templates it happened to draw.
    templates.sequence = InOrder(templates.sqls.size());
    util::Pcg32 rng(input_seed + 1);
    rng.Shuffle(&templates.sequence);
    for (const auto& instances : templates.instances) {
      for (const workload::QuerySpec& spec : instances) {
        if (replay_sqls.size() < sizes.replay) {
          replay_sqls.push_back(spec.ToSql());
        }
      }
    }
  }
  const std::vector<std::string> encoded =
      w->wire ? EncodeRequests(w->protocol, "bench", set.sqls)
              : std::vector<std::string>{};

  auto template_call = [&](uint64_t k) {
    thread_local std::vector<workload::QuerySpec> specs;
    thread_local std::vector<Result<double>> results;
    const uint32_t t = templates.sequence[k % templates.sequence.size()];
    if (!ExpandAndEstimate(sk, templates.sqls[t], &specs, &results).ok()) {
      return CallOutcome{CallOutcome::Kind::kError, 0};
    }
    if (!MatchesAll(results, templates.reference[t])) {
      return CallOutcome{CallOutcome::Kind::kWrong, 0};
    }
    return CallOutcome{CallOutcome::Kind::kOk, results.size()};
  };

  // ---- Accuracy -------------------------------------------------------------
  // A fixed evaluation set (seeded by a constant, not by --seed), served
  // once through the workload's own path before the load phases. The
  // sketch is fixed too, so q-error is a property of the code under test
  // and reads the same on every seed.
  PhaseStats all;
  Samples qerr;
  {
    std::vector<workload::QuerySpec> eval_specs;
    std::vector<double> served_values;
    if (w->wire) {
      std::vector<workload::QuerySpec> kept;
      const StatementSet eval = BuildStatementSet(
          sk, DistinctSpecs(db, kEvalSeed, sizes.eval_statements), &kept);
      const std::vector<std::string> requests =
          EncodeRequests(w->protocol, "bench", eval.sqls);
      auto conn = Connection::Open(stack->port(), w->protocol);
      if (!conn.ok()) return Fail(conn.status().ToString());
      for (size_t i = 0; i < eval.sqls.size(); ++i) {
        ++all.attempted;
        auto r = conn->RoundTrip(i + 1, requests[i]);
        if (!r.ok() || r->kind != Connection::Response::Kind::kOk) {
          ++all.errors;
        } else if (!MatchesReference(r->value, eval.reference[i],
                                     w->protocol)) {
          ++all.wrong;
        } else {
          eval_specs.push_back(kept[i]);
          served_values.push_back(r->value);
        }
      }
    } else {
      const TemplateSet eval =
          BuildTemplates(sk, db, kEvalSeed, sizes.eval_templates);
      std::vector<workload::QuerySpec> specs;
      std::vector<Result<double>> results;
      for (size_t t = 0; t < eval.sqls.size(); ++t) {
        ++all.attempted;
        if (!ExpandAndEstimate(sk, eval.sqls[t], &specs, &results).ok()) {
          ++all.errors;
        } else if (!MatchesAll(results, eval.reference[t])) {
          ++all.wrong;
        } else {
          for (size_t i = 0; i < specs.size(); ++i) {
            eval_specs.push_back(specs[i]);
            served_values.push_back(*results[i]);
          }
        }
      }
    }
    qerr = QErrors(db, eval_specs, served_values);
  }

  // ---- Load phases ----------------------------------------------------------
  SpanLog spans(args.trace);
  std::atomic<uint64_t> cursor{0};
  auto run_phase = [&](double rate, double seconds, bool traced,
                       size_t inproc_threads = kInprocThreads) {
    PhaseOptions o;
    o.threads = w->wire ? kWireClientThreads : inproc_threads;
    o.conns_per_thread = kConnections / kWireClientThreads;
    o.rate = rate;
    o.depth = w->depth;
    o.seconds = seconds;
    o.spans = traced ? &spans : nullptr;
    o.span_name = w->wire ? "client.request" : "client.template_call";
    PhaseStats s =
        w->wire ? RunWirePhase(stack->port(), w->protocol, encoded, set, o,
                               &cursor)
                : RunInprocPhase(template_call, o, &cursor);
    all.Merge(s);
    return s;
  };

  std::unique_ptr<Republisher> republisher;
  if (w->republish_period_s > 0) {
    republisher =
        std::make_unique<Republisher>(stack.get(), &sk, w->republish_period_s);
  }
  const serve::MetricsSnapshot served_before =
      stack ? stack->server().Metrics() : serve::MetricsSnapshot{};
  const obs::RegistrySnapshot obs_before =
      stack ? stack->server().ObsSnapshot() : obs::RegistrySnapshot{};

  run_phase(0, sizes.warmup_s, false);
  // Each phase runs in rounds interleaved with the others, so every phase
  // samples the whole run rather than one stretch of it.
  const double round_s = args.seconds / static_cast<double>(sizes.rounds);
  std::vector<Metric> metrics;
  std::string details;
  if (!args.trace) {
    Rounds low, high, sat;
    for (size_t r = 0; r < sizes.rounds; ++r) {
      low.Add(run_phase(w->low_rate, 0.3 * round_s, false, kInprocLowThreads));
      high.Add(
          run_phase(w->high_rate, 0.3 * round_s, false, kInprocHighThreads));
      sat.Add(run_phase(0, 0.4 * round_s, false));
      if (setup.count() < 1 + (r + 1) * (sizes.setup_reps - 1) / sizes.rounds) {
        SetupTimes discarded;
        const auto extra = timed_setup(
            sketch_dir + "/setup" + std::to_string(setup.count()), &discarded);
        if (!extra.ok()) return Fail(extra.status().ToString());
      }
    }
    metrics = {
        {"setup_s", setup.Median(), "s"},
        {"throughput_qps", sat.Throughput(), "estimates/s"},
        {"lat_low_p50_us", low.Latency(0.5), "us"},
        {"lat_low_p90_us", low.Latency(0.9), "us"},
        {"lat_high_p50_us", high.Latency(0.5), "us"},
        {"lat_high_p90_us", high.Latency(0.9), "us"},
        {"sat_p50_us", sat.Latency(0.5), "us"},
        {"sat_p90_us", sat.Latency(0.9), "us"},
        {"qerr_p50", qerr.Median(), "ratio"},
        {"qerr_p95", qerr.Quantile(0.95), "ratio"},
        {"peak_rss_mb", 0, "MiB"},  // filled in last
        {"sketch_bytes", static_cast<double>(sk.SerializedSize()), "bytes"},
    };
    details = "\"low\":" + TimingJson(low.all.latency_us) +
              ",\"low_late\":" + TimingJson(low.all.late_us) +
              ",\"high\":" + TimingJson(high.all.latency_us) +
              ",\"high_late\":" + TimingJson(high.all.late_us) +
              ",\"saturation\":" + TimingJson(sat.all.latency_us) +
              ",\"setup_s\":" + TimingJson(setup) + ",\"qerr\":" +
              TimingJson(qerr) + ",\"windows\":{" +
              "\"low_p50\":" + ValuesJson(low.WindowLatency(0.5)) +
              ",\"low_p90\":" + ValuesJson(low.WindowLatency(0.9)) +
              ",\"high_p50\":" + ValuesJson(high.WindowLatency(0.5)) +
              ",\"high_p90\":" + ValuesJson(high.WindowLatency(0.9)) +
              ",\"sat_p50\":" + ValuesJson(sat.WindowLatency(0.5)) +
              ",\"sat_p90\":" + ValuesJson(sat.WindowLatency(0.9)) +
              ",\"sat_qps\":" + ValuesJson(sat.WindowThroughput()) +
              ",\"setup_s\":" + ValuesJson(setup) + "}";
  } else {
    Rounds high, plain, traced;
    for (size_t r = 0; r < sizes.rounds; ++r) {
      high.Add(
          run_phase(w->high_rate, 0.3 * round_s, false, kInprocHighThreads));
      plain.Add(run_phase(0, 0.25 * round_s, false));
      traced.Add(run_phase(0, 0.25 * round_s, true));
    }
    Samples republish_ms;
    if (republisher) {
      republisher->Stop();
      republish_ms.Merge(republisher->times_ms());
    }
    for (int i = 0; i < 5; ++i) {
      const int64_t t0 = NowNs();
      const Status st = stack->Republish(sk, "bench");
      republish_ms.Add(MicrosBetween(t0, NowNs()) * 1e-3);
      if (!st.ok()) return Fail(st.ToString());
    }

    ReplayInputs replay;
    replay.sketch = &sk;
    replay.stack = stack.get();
    replay.protocol = w->protocol;
    replay.sqls = replay_sqls;
    replay.templates = templates.sqls;
    const serve::MetricsSnapshot after_load = stack->server().Metrics();
    replay.served_batch =
        std::max(1.0,
                 MeanDelta(served_before.batch_size, after_load.batch_size));
    std::vector<Metric> layers;
    const Status replayed = RunLayerReplay(replay, &spans, &layers);
    if (!replayed.ok()) return Fail("layer replay: " + replayed.ToString());

    const serve::MetricsSnapshot& b = served_before;
    const serve::MetricsSnapshot a = stack->server().Metrics();
    const obs::RegistrySnapshot obs_after = stack->server().ObsSnapshot();
    auto net_delta = [&](const char* name, bool count = false) {
      return Total(obs_after, name, count) - Total(obs_before, name, count);
    };
    const double net_requests = net_delta("ds_net_requests_total");
    const double batch_size = MeanDelta(b.batch_size, a.batch_size);
    const double result_hits =
        static_cast<double>(a.result_cache_hits - b.result_cache_hits);
    const double result_misses =
        static_cast<double>(a.result_cache_misses - b.result_cache_misses);
    const double stmt_hits =
        static_cast<double>(a.stmt_cache_hits - b.stmt_cache_hits);
    const double stmt_misses =
        static_cast<double>(a.stmt_cache_misses - b.stmt_cache_misses);
    const double qps_plain = plain.Throughput();
    const double qps_traced = traced.Throughput();
    metrics = {
        {"datagen.imdb_s", times.datagen_s, "s"},
        {"est.sample_s", times.sample_s, "s"},
        {"workload.label_s", times.label_s, "s"},
        {"mscn.train_s", times.train_s, "s"},
        {"serve.publish_s", times.publish_s, "s"},
    };
    metrics.insert(metrics.end(), layers.begin(), layers.end());
    const std::vector<Metric> served_metrics = {
        {"serve.queue_wait_us", MeanDelta(b.queue_wait_us, a.queue_wait_us),
         "us"},
        {"serve.infer_us", MeanDelta(b.infer_us, a.infer_us), "us"},
        {"serve.batch_size", batch_size, "count"},
        {"serve.batch_fill",
         batch_size / static_cast<double>(ServedDefaults().max_batch),
         "ratio"},
        {"serve.result_cache_hit_ratio",
         Ratio(result_hits, result_hits + result_misses), "ratio"},
        {"serve.stmt_cache_hit_ratio",
         Ratio(stmt_hits, stmt_hits + stmt_misses), "ratio"},
        {"serve.rejected.queue_full",
         static_cast<double>(a.rejected_queue_full - b.rejected_queue_full),
         "count"},
        {"serve.rejected.shedding",
         static_cast<double>(a.rejected_shedding - b.rejected_shedding),
         "count"},
        {"serve.rejected.shutting_down",
         static_cast<double>(a.rejected_shutdown - b.rejected_shutdown),
         "count"},
        {"serve.republish_ms", republish_ms.Median(), "ms"},
        {"serve.registry_loads",
         static_cast<double>(a.cache.loads - b.cache.loads), "count"},
        {"net.bytes_per_req",
         Ratio(net_delta("ds_net_bytes_read_total") +
                   net_delta("ds_net_bytes_written_total"),
               net_requests),
         "bytes"},
        {"net.wakeups_per_req",
         Ratio(net_delta("ds_net_loop_wakeups_total"), net_requests), "count"},
        {"net.loop_lag_us",
         Ratio(net_delta("ds_net_loop_lag_us"),
               net_delta("ds_net_loop_lag_us", /*count=*/true)),
         "us"},
        {"net.shed", 0, "count"},  // filled below
        {"obs.trace_overhead_pct",
         Ratio(qps_plain - qps_traced, qps_plain) * 100,
         "%"},
        {"gen.late_p99_us", high.all.late_us.Quantile(0.99), "us"},
        {"error_rate", 0, "ratio"},  // filled in last
    };
    metrics.insert(metrics.end(), served_metrics.begin(), served_metrics.end());
    double shed = 0;
    for (const obs::MetricSnapshot& m : obs_after.metrics) {
      if (m.name != "ds_net_responses_total") continue;
      for (const auto& [key, value] : m.labels) {
        if (key == "status" && value == "rejected") shed += m.value;
      }
    }
    for (const obs::MetricSnapshot& m : obs_before.metrics) {
      if (m.name != "ds_net_responses_total") continue;
      for (const auto& [key, value] : m.labels) {
        if (key == "status" && value == "rejected") shed -= m.value;
      }
    }
    for (Metric& m : metrics) {
      if (m.name == "net.shed") m.value = shed;
    }
    details = "\"high\":" + TimingJson(high.all.latency_us) +
              ",\"high_late\":" + TimingJson(high.all.late_us) +
              ",\"saturation_untraced_qps\":" + JsonNumber(qps_plain) +
              ",\"saturation_traced_qps\":" + JsonNumber(qps_traced) +
              ",\"republish_ms\":" + TimingJson(republish_ms);
  }
  if (republisher) {
    republisher->Stop();
    all.attempted += republisher->times_ms().count();
    all.errors += republisher->failures();
  }

  for (Metric& m : metrics) {
    if (m.name == "peak_rss_mb") m.value = PeakRssMiB();
    if (m.name == "error_rate") {
      m.value = Ratio(static_cast<double>(all.failed()),
                      static_cast<double>(all.attempted));
    }
  }
  bool correct = all.failed() == 0 && all.attempted > 0;
  for (const Metric& m : metrics) correct = correct && std::isfinite(m.value);

  const std::string stamp = StampJson(args, *w, sizes, sk);
  const std::string result = ResultJson(correct, all, metrics);
  const std::string base = std::string(kOutDir) + "/" + w->name + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
  if (args.trace) {
    if (!spans.WriteJson(base + "-spans.json")) {
      std::fprintf(stderr, "perfbench: cannot write %s-spans.json\n",
                   base.c_str());
    }
  }
  {
    std::ofstream detail(base + ".json");
    detail << "{\"stamp\":" << stamp << ",\"result\":" << result
           << ",\"timings\":{" << details << "},\"errors\":" << all.errors
           << ",\"rejected\":" << all.rejected << ",\"wrong\":" << all.wrong
           << ",\"spans\":" << spans.size() << "}\n";
  }
  std::fprintf(stderr,
               "perfbench: %s attempted=%llu errors=%llu rejected=%llu "
               "wrong=%llu\n",
               w->name, static_cast<unsigned long long>(all.attempted),
               static_cast<unsigned long long>(all.errors),
               static_cast<unsigned long long>(all.rejected),
               static_cast<unsigned long long>(all.wrong));
  std::printf("stamp %s\n%s\n", stamp.c_str(), result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--source-digest") {
      args->source_digest = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ds_perfbench --workload adhoc|dashboard|"
                 "template_sweep --seed N --seconds S --trace 0|1 [--smoke] "
                 "[--source-digest HEX]\n");
    return 2;
  }
  return perfbench::Run(args);
}
