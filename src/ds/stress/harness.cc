#include "ds/stress/harness.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "ds/datagen/imdb.h"
#include "ds/net/client.h"
#include "ds/net/server.h"
#include "ds/serve/registry.h"
#include "ds/serve/server.h"
#include "ds/sketch/deep_sketch.h"
#include "ds/stress/grammar.h"
#include "ds/stress/torn.h"
#include "ds/util/random.h"

namespace ds::stress {
namespace {

const char* const kCorpusNames[] = {"stable", "alt0", "alt1"};

std::string JoinPath(const std::string& dir, const std::string& file) {
  if (dir.empty() || dir.back() == '/') return dir + file;
  return dir + "/" + file;
}

Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  return bytes;
}

// Deliberately non-atomic (no tmp+rename): the killer uses this to model a
// writer that dies mid-write, which is exactly what DeepSketch::Save's
// atomic protocol exists to prevent.
Status WriteRawBytes(const std::string& path,
                     const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open " + path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out) return Status::IOError("short write to " + path);
  return Status::OK();
}

// A metamorphic pair with its quiesced golden estimates. `monotone` pairs
// (tightened <= base at startup, no concurrent traffic) are the only ones
// the monotonicity oracle asserts later — the learned model is not
// inherently monotone, so non-monotone pairs only feed determinism checks.
struct PoolEntry {
  workload::QuerySpec base;
  workload::QuerySpec tightened;
  std::string base_sql;   // canonical rendering, for batches and probes
  std::string tight_sql;
  double base_est = 0;
  double tight_est = 0;
  bool monotone = false;
};

constexpr double kMonotoneSlack = 1e-6;  // matches EstimatesAgree's scale

bool MonotoneHolds(double base, double tightened) {
  return tightened <= base * (1.0 + kMonotoneSlack) + 1e-9;
}

}  // namespace

std::string StressReport::ToString() const {
  char buf[704];
  std::snprintf(
      buf, sizeof(buf),
      "ds_stress seed=%llu: %s\n"
      "  requests: submitted=%llu ok=%llu errors=%llu rejected=%llu\n"
      "  chaos: republishes=%llu invalidations=%llu atomic_cycles=%llu "
      "torn_loads=%llu\n"
      "  pool: monotone=%llu dropped=%llu\n"
      "  server: submitted=%llu completed=%llu failed=%llu rejected=%llu\n"
      "  oracles: checks=%llu violations=%llu\n"
      "  process: peak_rss=%.1f MiB\n",
      static_cast<unsigned long long>(seed), Passed() ? "PASS" : "FAIL",
      static_cast<unsigned long long>(submitted),
      static_cast<unsigned long long>(ok),
      static_cast<unsigned long long>(errors),
      static_cast<unsigned long long>(rejected),
      static_cast<unsigned long long>(republishes),
      static_cast<unsigned long long>(invalidations),
      static_cast<unsigned long long>(atomic_cycles),
      static_cast<unsigned long long>(torn_loads),
      static_cast<unsigned long long>(pairs_kept),
      static_cast<unsigned long long>(pairs_dropped),
      static_cast<unsigned long long>(server_submitted),
      static_cast<unsigned long long>(server_completed),
      static_cast<unsigned long long>(server_failed),
      static_cast<unsigned long long>(server_rejected),
      static_cast<unsigned long long>(oracle_checks),
      static_cast<unsigned long long>(oracle_violations),
      static_cast<double>(peak_rss_kib) / 1024.0);
  std::string out = buf;
  for (const auto& v : violations) {
    out += "  [" + v.family + "] " + v.message + "\n";
  }
  return out;
}

Status PrepareStressCorpus(const std::string& dir, bool verbose) {
  if (dir.empty()) {
    return Status::InvalidArgument("stress corpus_dir is required");
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create " + dir + ": " + ec.message());
  }
  bool all_present = true;
  for (const char* name : kCorpusNames) {
    if (!std::filesystem::exists(
            JoinPath(dir, std::string(name) + ".sketch"))) {
      all_present = false;
      break;
    }
  }
  if (all_present) return Status::OK();

  datagen::ImdbOptions imdb;
  imdb.num_titles = 600;
  imdb.seed = 7;
  DS_ASSIGN_OR_RETURN(auto catalog, datagen::GenerateImdb(imdb));

  for (size_t i = 0; i < 3; ++i) {
    sketch::SketchConfig cfg;
    cfg.tables = {"title", "movie_keyword", "keyword"};
    cfg.num_samples = 16;
    cfg.num_training_queries = 120;
    cfg.num_epochs = 2;
    cfg.hidden_units = 8;
    cfg.batch_size = 32;
    cfg.max_tables_per_query = 2;
    cfg.max_predicates = 2;
    cfg.seed = 101 + 17 * i;  // different weights per sketch
    if (verbose) {
      std::fprintf(stderr, "[ds_stress] training %s.sketch\n",
                   kCorpusNames[i]);
    }
    DS_ASSIGN_OR_RETURN(auto sk, sketch::DeepSketch::Train(*catalog, cfg));
    DS_RETURN_NOT_OK(
        sk.Save(JoinPath(dir, std::string(kCorpusNames[i]) + ".sketch")));
  }
  return Status::OK();
}

Result<StressReport> RunStress(const StressOptions& options) {
  DS_RETURN_NOT_OK(PrepareStressCorpus(options.corpus_dir, options.verbose));

  serve::RegistryOptions ropts;
  ropts.directory = options.corpus_dir;
  ropts.num_shards = 4;
  serve::SketchRegistry registry(ropts);

  serve::ServerOptions sopts;
  sopts.num_workers = options.server_workers == 0 ? 2 : options.server_workers;
  sopts.queue_capacity = options.queue_capacity;
  serve::SketchServer server(&registry, sopts);

  std::unique_ptr<net::NetServer> net_server;
  uint16_t net_port = 0;
  if (options.use_net) {
    net::NetServerOptions nopts;
    nopts.num_workers = 2;
    nopts.pin_threads = false;
    net_server = std::make_unique<net::NetServer>(&server, nopts);
    Status started = net_server->Start();
    if (!started.ok()) {
      server.Stop();
      return started;
    }
    net_port = net_server->port();
  }

  // ---- Quiesced setup: goldens from the chaos-free "stable" sketch. ----
  auto stable_or = registry.Get("stable");
  if (!stable_or.ok()) {
    if (net_server) net_server->Stop();
    server.Stop();
    return stable_or.status();
  }
  const std::shared_ptr<const sketch::DeepSketch> stable =
      std::move(stable_or).value();

  GrammarOptions gbase;
  gbase.seed = options.seed;
  gbase.spec.max_tables = 2;
  gbase.spec.min_predicates = 1;
  gbase.spec.max_predicates = 2;
  gbase.spec.seed = options.seed * 0x9E3779B97F4A7C15ull + 1;

  std::vector<PoolEntry> pool;
  uint64_t pairs_dropped = 0;
  uint64_t pairs_kept = 0;
  {
    auto pg_or = StressGrammar::Create(&stable->schema(), gbase);
    if (!pg_or.ok()) {
      if (net_server) net_server->Stop();
      server.Stop();
      return pg_or.status();
    }
    StressGrammar pool_grammar = std::move(pg_or).value();
    for (size_t i = 0; i < options.pool_pairs * 2; ++i) {
      if (pool.size() >= options.pool_pairs) break;
      auto pair_or = pool_grammar.NextPair();
      if (!pair_or.ok()) break;  // schema exhausted; run with what we have
      MetamorphicPair pair = std::move(pair_or).value();
      PoolEntry e;
      e.base = std::move(pair.base);
      e.tightened = std::move(pair.tightened);
      auto base_est = stable->EstimateCardinality(e.base);
      auto tight_est = stable->EstimateCardinality(e.tightened);
      if (!base_est.ok() || !tight_est.ok()) {
        ++pairs_dropped;
        continue;
      }
      e.base_sql = e.base.ToSql();
      e.tight_sql = e.tightened.ToSql();
      e.base_est = *base_est;
      e.tight_est = *tight_est;
      e.monotone = MonotoneHolds(e.base_est, e.tight_est);
      if (e.monotone) {
        ++pairs_kept;
      } else {
        ++pairs_dropped;  // still used for determinism, not monotonicity
      }
      pool.push_back(std::move(e));
    }
  }
  if (pool.empty()) {
    if (net_server) net_server->Stop();
    server.Stop();
    return Status::Internal("stress pool is empty — grammar/corpus mismatch");
  }

  // ---- Shared run state. ----
  OracleLedger ledger;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> submitted{0};
  std::atomic<uint64_t> got_ok{0};
  std::atomic<uint64_t> got_err{0};
  std::atomic<uint64_t> got_rejected{0};
  std::atomic<uint64_t> republishes{0};
  std::atomic<uint64_t> invalidations{0};
  std::atomic<uint64_t> atomic_cycles{0};
  std::atomic<uint64_t> torn_loads{0};
  const unsigned long long seed = options.seed;

  enum class Outcome : uint8_t { kOk, kError, kRejected };
  struct Answer {
    Outcome outcome;
    double value;
    Status status;
  };

  // ---- Client threads: grammar-driven load + the oracle catalog. ----
  auto client_fn = [&](size_t id) {
    std::optional<net::NetClient> net_client;
    if (options.use_net) {
      auto conn = net::NetClient::Connect("127.0.0.1", net_port);
      if (!conn.ok()) {
        ledger.Report("ledger", "client " + std::to_string(id) +
                                    " failed to connect: " +
                                    conn.status().ToString());
        return;
      }
      net_client.emplace(std::move(conn).value());
      (void)net_client->Hello("stress" + std::to_string(id));
    }

    GrammarOptions gopts = gbase;
    gopts.seed = options.seed + 1000 + id;
    gopts.spec.seed = (options.seed + 1000 + id) * 0x9E3779B97F4A7C15ull + 3;
    auto grammar_or = StressGrammar::Create(&stable->schema(), gopts);
    if (!grammar_or.ok()) {
      ledger.Report("ledger", "client grammar failed: " +
                                  grammar_or.status().ToString());
      return;
    }
    StressGrammar grammar = std::move(grammar_or).value();
    util::Pcg32 rng(options.seed ^ (0xC11E47ull * (id + 1)), /*stream=*/0x11);

    // One blocking estimate through whichever transport the run uses.
    // Backpressure (queue full over serve, kRejected/OutOfRange over net)
    // classifies as kRejected and is tolerated, never an oracle violation.
    auto one = [&](const std::string& name, const std::string& sql) -> Answer {
      if (net_client) {
        auto r = net_client->Estimate(name, sql);
        if (r.ok()) {
          submitted.fetch_add(1, std::memory_order_relaxed);
          got_ok.fetch_add(1, std::memory_order_relaxed);
          return {Outcome::kOk, *r, Status::OK()};
        }
        if (r.status().code() == StatusCode::kOutOfRange) {
          got_rejected.fetch_add(1, std::memory_order_relaxed);
          return {Outcome::kRejected, 0.0, r.status()};
        }
        submitted.fetch_add(1, std::memory_order_relaxed);
        got_err.fetch_add(1, std::memory_order_relaxed);
        return {Outcome::kError, 0.0, r.status()};
      }
      auto sub = server.Submit(name, sql);
      if (!sub.accepted()) {
        got_rejected.fetch_add(1, std::memory_order_relaxed);
        return {Outcome::kRejected, 0.0, Status::OK()};
      }
      submitted.fetch_add(1, std::memory_order_relaxed);
      auto r = sub.future.get();
      if (r.ok()) {
        got_ok.fetch_add(1, std::memory_order_relaxed);
        return {Outcome::kOk, *r, Status::OK()};
      }
      got_err.fetch_add(1, std::memory_order_relaxed);
      return {Outcome::kError, 0.0, r.status()};
    };

    auto pick = [&]() -> const PoolEntry& {
      return pool[rng.Bounded(static_cast<uint32_t>(pool.size()))];
    };

    while (!stop.load(std::memory_order_relaxed)) {
      const uint32_t roll = rng.Bounded(100);
      if (roll < 30) {
        // Decorated rendering vs the quiesced golden: determinism across
        // renderings, threads, time, and (post-fix) registry epochs.
        const PoolEntry& e = pick();
        const std::string sql = grammar.Render(e.base);
        Answer a = one("stable", sql);
        if (a.outcome == Outcome::kRejected) continue;
        DS_STRESS_ORACLE(&ledger, "determinism", a.outcome == Outcome::kOk,
                         "seed=%llu stable estimate failed (%s) for: %s",
                         seed, a.status.ToString().c_str(), sql.c_str());
        if (a.outcome == Outcome::kOk) {
          DS_STRESS_ORACLE(&ledger, "determinism",
                           EstimatesAgree(a.value, e.base_est),
                           "seed=%llu got %.17g want %.17g for: %s", seed,
                           a.value, e.base_est, sql.c_str());
        }
      } else if (roll < 50) {
        // Metamorphic pair: adding a conjunct never increases the estimate
        // (asserted only on pairs that held at quiesced startup).
        const PoolEntry& e = pick();
        Answer b = one("stable", grammar.Render(e.base));
        Answer t = one("stable", grammar.Render(e.tightened));
        if (b.outcome == Outcome::kOk && t.outcome == Outcome::kOk) {
          DS_STRESS_ORACLE(&ledger, "determinism",
                           EstimatesAgree(b.value, e.base_est) &&
                               EstimatesAgree(t.value, e.tight_est),
                           "seed=%llu pair drifted: base %.17g/%.17g "
                           "tight %.17g/%.17g for: %s",
                           seed, b.value, e.base_est, t.value, e.tight_est,
                           e.tight_sql.c_str());
          if (e.monotone) {
            DS_STRESS_ORACLE(&ledger, "monotonicity",
                             MonotoneHolds(b.value, t.value),
                             "seed=%llu tightened %.17g > base %.17g for: %s",
                             seed, t.value, b.value, e.tight_sql.c_str());
          }
        }
      } else if (roll < 70) {
        // Coalesced batch must answer exactly like the same statements one
        // at a time — the goldens *are* the one-at-a-time answers.
        const size_t k = 2 + rng.Bounded(5);
        std::vector<const PoolEntry*> picks;
        std::vector<std::string> sqls;
        picks.reserve(k);
        sqls.reserve(k);
        for (size_t i = 0; i < k; ++i) {
          const PoolEntry& e = pick();
          picks.push_back(&e);
          sqls.push_back(rng.Chance(0.5) ? e.base_sql : grammar.Render(e.base));
        }
        std::vector<Answer> answers;
        answers.reserve(k);
        if (net_client) {
          std::vector<Result<double>> out;
          Status st = net_client->EstimateBatch("stable", sqls, &out);
          if (!st.ok() || out.size() != k) continue;  // transport hiccup
          for (auto& r : out) {
            if (r.ok()) {
              submitted.fetch_add(1, std::memory_order_relaxed);
              got_ok.fetch_add(1, std::memory_order_relaxed);
              answers.push_back({Outcome::kOk, *r, Status::OK()});
            } else if (r.status().code() == StatusCode::kOutOfRange) {
              got_rejected.fetch_add(1, std::memory_order_relaxed);
              answers.push_back({Outcome::kRejected, 0.0, r.status()});
            } else {
              submitted.fetch_add(1, std::memory_order_relaxed);
              got_err.fetch_add(1, std::memory_order_relaxed);
              answers.push_back({Outcome::kError, 0.0, r.status()});
            }
          }
        } else {
          auto subs = server.SubmitMany("stable", sqls);
          for (auto& sub : subs) {
            if (!sub.accepted()) {
              got_rejected.fetch_add(1, std::memory_order_relaxed);
              answers.push_back({Outcome::kRejected, 0.0, Status::OK()});
              continue;
            }
            submitted.fetch_add(1, std::memory_order_relaxed);
            auto r = sub.future.get();
            if (r.ok()) {
              got_ok.fetch_add(1, std::memory_order_relaxed);
              answers.push_back({Outcome::kOk, *r, Status::OK()});
            } else {
              got_err.fetch_add(1, std::memory_order_relaxed);
              answers.push_back({Outcome::kError, 0.0, r.status()});
            }
          }
        }
        for (size_t i = 0; i < answers.size(); ++i) {
          if (answers[i].outcome == Outcome::kRejected) continue;
          DS_STRESS_ORACLE(&ledger, "batch",
                           answers[i].outcome == Outcome::kOk &&
                               EstimatesAgree(answers[i].value,
                                              picks[i]->base_est),
                           "seed=%llu batch slot %zu: got %.17g want %.17g "
                           "for: %s",
                           seed, i, answers[i].value, picks[i]->base_est,
                           sqls[i].c_str());
        }
      } else if (roll < 80) {
        // Chaos-name traffic: those sketches are republished/invalidated
        // under us, so answers vary — only sanity holds.
        std::string name;
        const uint32_t which =
            rng.Bounded(static_cast<uint32_t>(options.num_chaos + 1));
        if (which == options.num_chaos) {
          name = "victim";
        } else {
          name = "chaos" + std::to_string(which);
        }
        GeneratedQuery q = grammar.NextQuery();
        Answer a = one(name, q.sql);
        if (a.outcome == Outcome::kOk) {
          DS_STRESS_ORACLE(&ledger, "determinism",
                           std::isfinite(a.value) && a.value >= 0.0,
                           "seed=%llu non-finite estimate %g from '%s' "
                           "for: %s",
                           seed, a.value, name.c_str(), q.sql.c_str());
        }
        // errors are fine: the name may be invalidated or absent right now
      } else if (roll < 95) {
        // Grammar stream vs stable: well-formed must estimate, placeholder
        // templates must be rejected, malformed byte soup must not crash.
        GeneratedQuery q = grammar.NextQuery();
        Answer a = one("stable", q.sql);
        if (a.outcome == Outcome::kRejected) continue;
        switch (q.kind) {
          case QueryKind::kWellFormed:
            DS_STRESS_ORACLE(&ledger, "grammar", a.outcome == Outcome::kOk,
                             "seed=%llu well-formed query failed (%s): %s",
                             seed, a.status.ToString().c_str(),
                             q.sql.c_str());
            break;
          case QueryKind::kPlaceholder:
            DS_STRESS_ORACLE(&ledger, "grammar",
                             a.outcome == Outcome::kError,
                             "seed=%llu placeholder query was not rejected: "
                             "%s",
                             seed, q.sql.c_str());
            break;
          case QueryKind::kMalformed:
            break;  // answering at all (with anything but a crash) passes
        }
      } else {
        // Path-traversal probe: hostile names must be rejected at the
        // registry boundary, not joined into a filesystem path.
        static const char* const kHostile[] = {"../stable", "..", "a/b",
                                               "a\\b", "./stable"};
        const std::string name = kHostile[rng.Bounded(5)];
        Answer a = one(name, pool.front().base_sql);
        if (a.outcome == Outcome::kRejected) continue;
        DS_STRESS_ORACLE(&ledger, "traversal", a.outcome == Outcome::kError,
                         "seed=%llu hostile sketch name '%s' was not "
                         "rejected",
                         seed, name.c_str());
      }
    }
  };

  // ---- Chaos threads: republish/invalidate through the registry. Each
  // thread owns one name, so its read-your-publish probe races only with
  // the serving path — exactly the stale-cache scenario. ----
  auto chaos_fn = [&](size_t id) {
    const std::string name = "chaos" + std::to_string(id);
    util::Pcg32 rng(options.seed ^ (0xCAA05ull * (id + 1)), /*stream=*/0x22);
    const std::string alt_paths[2] = {
        JoinPath(options.corpus_dir, "alt0.sketch"),
        JoinPath(options.corpus_dir, "alt1.sketch"),
    };
    while (!stop.load(std::memory_order_relaxed)) {
      switch (rng.Bounded(4)) {
        case 0: {
          // Republish, then probe through the server: the answer must come
          // from *this* publication (no other thread Puts this name). A
          // result cache keyed without the registry epoch serves the
          // previous sketch's estimate here.
          auto alt = sketch::DeepSketch::Load(alt_paths[rng.Bounded(2)]);
          if (!alt.ok()) {
            DS_STRESS_ORACLE(&ledger, "crash-consistency", false,
                             "seed=%llu alt sketch failed to load: %s", seed,
                             alt.status().ToString().c_str());
            break;
          }
          auto handle = registry.Put(name, std::move(alt).value());
          republishes.fetch_add(1, std::memory_order_relaxed);
          const PoolEntry& e =
              pool[rng.Bounded(static_cast<uint32_t>(pool.size()))];
          auto want = handle->EstimateCardinality(e.base);
          auto sub = server.Submit(name, e.base_sql);
          if (!sub.accepted()) {
            got_rejected.fetch_add(1, std::memory_order_relaxed);
            break;
          }
          submitted.fetch_add(1, std::memory_order_relaxed);
          auto got = sub.future.get();
          if (got.ok()) {
            got_ok.fetch_add(1, std::memory_order_relaxed);
          } else {
            got_err.fetch_add(1, std::memory_order_relaxed);
          }
          const double got_v = got.ok() ? *got : -1.0;
          const double want_v = want.ok() ? *want : -1.0;
          DS_STRESS_ORACLE(&ledger, "determinism",
                           got.ok() && want.ok() &&
                               EstimatesAgree(got_v, want_v),
                           "seed=%llu republish probe on '%s' diverged: "
                           "served %.17g, published sketch says %.17g",
                           seed, name.c_str(), got_v, want_v);
          break;
        }
        case 1:
          registry.Invalidate(name);
          invalidations.fetch_add(1, std::memory_order_relaxed);
          break;
        case 2: {
          // Cold Get: reloads <name>.sketch if case 3 ever saved one.
          auto got = registry.Get(name);
          (void)got;
          break;
        }
        case 3: {
          // Persist the current publication atomically, then retire it so
          // the next Get() must re-read the file as a new generation.
          auto cur = registry.Get(name);
          if (!cur.ok()) break;
          if ((*cur)->Save(registry.PathFor(name)).ok()) {
            registry.Invalidate(name);
            invalidations.fetch_add(1, std::memory_order_relaxed);
          }
          break;
        }
      }
    }
  };

  // ---- Killer thread: crash-consistency of save/load. ----
  auto killer_fn = [&]() {
    util::Pcg32 rng(options.seed ^ 0xD1EDull, /*stream=*/0x33);
    const std::string stable_path =
        JoinPath(options.corpus_dir, "stable.sketch");
    std::vector<CorruptSketch> corpus;
    auto stable_bytes = ReadFileBytes(stable_path);
    if (stable_bytes.ok()) {
      TornCorpusOptions topts;
      topts.seed = options.seed;
      topts.dense_prefix = 32;  // smaller than the test sweep: this corpus
      topts.stride = 499;       // is re-served in a loop, not walked once
      topts.num_flips = 48;
      topts.num_flip_truncations = 16;
      corpus = MakeTornCorpus(*stable_bytes, topts);
    }
    const std::string victim_path = registry.PathFor("victim");
    const std::string torn_path = registry.PathFor("torn");
    while (!stop.load(std::memory_order_relaxed)) {
      if (corpus.empty() || rng.Chance(0.5)) {
        // Atomic save/load cycle: Save's tmp+rename protocol means no
        // reader — concurrent or subsequent — ever sees a torn victim.
        auto fresh = sketch::DeepSketch::Load(stable_path);
        if (!fresh.ok()) {
          DS_STRESS_ORACLE(&ledger, "crash-consistency", false,
                           "seed=%llu stable.sketch failed to load: %s",
                           seed, fresh.status().ToString().c_str());
          continue;
        }
        Status saved = fresh->Save(victim_path);
        DS_STRESS_ORACLE(&ledger, "crash-consistency", saved.ok(),
                         "seed=%llu victim save failed: %s", seed,
                         saved.ToString().c_str());
        registry.Invalidate("victim");
        auto got = registry.Get("victim");
        DS_STRESS_ORACLE(&ledger, "crash-consistency", got.ok(),
                         "seed=%llu victim unreadable after atomic save: %s",
                         seed,
                         got.ok() ? "" : got.status().ToString().c_str());
        atomic_cycles.fetch_add(1, std::memory_order_relaxed);
      } else {
        // Torn write: corrupt bytes, written raw (non-atomically), then a
        // forced reload. Any Status is acceptable; crashing or unbounded
        // allocation is the failure mode under test.
        const CorruptSketch& c =
            corpus[rng.Bounded(static_cast<uint32_t>(corpus.size()))];
        if (!WriteRawBytes(torn_path, c.bytes).ok()) continue;
        registry.Invalidate("torn");
        auto got = registry.Get("torn");
        torn_loads.fetch_add(1, std::memory_order_relaxed);
        if (got.ok()) {
          // A corruption that still parses must yield a usable sketch.
          DS_STRESS_ORACLE(&ledger, "crash-consistency",
                           !(*got)->schema().tables().empty(),
                           "seed=%llu torn sketch (%s) loaded empty", seed,
                           c.what.c_str());
        }
      }
    }
  };

  // ---- Run. ----
  std::vector<std::thread> threads;
  threads.reserve(options.num_clients + options.num_chaos + 1);
  for (size_t i = 0; i < options.num_clients; ++i) {
    threads.emplace_back(client_fn, i);
  }
  for (size_t i = 0; i < options.num_chaos; ++i) {
    threads.emplace_back(chaos_fn, i);
  }
  if (options.run_killer) threads.emplace_back(killer_fn);

  std::this_thread::sleep_for(std::chrono::milliseconds(options.duration_ms));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();

  if (net_server) net_server->Stop();
  server.Stop();

  // ---- Final ledger oracles: the metrics must balance after drain, and
  // the server's books must reconcile with what the clients observed. ----
  const auto m = server.Metrics();
  DS_STRESS_ORACLE(&ledger, "ledger", m.submitted == m.completed + m.failed,
                   "seed=%llu server ledger unbalanced: submitted %llu != "
                   "completed %llu + failed %llu",
                   seed, static_cast<unsigned long long>(m.submitted),
                   static_cast<unsigned long long>(m.completed),
                   static_cast<unsigned long long>(m.failed));
  DS_STRESS_ORACLE(
      &ledger, "ledger",
      submitted.load() == m.submitted && got_ok.load() == m.completed &&
          got_err.load() == m.failed && got_rejected.load() == m.rejected,
      "seed=%llu client/server ledgers disagree: client "
      "%llu/%llu/%llu/%llu server %llu/%llu/%llu/%llu "
      "(submitted/ok/err/rejected)",
      seed, static_cast<unsigned long long>(submitted.load()),
      static_cast<unsigned long long>(got_ok.load()),
      static_cast<unsigned long long>(got_err.load()),
      static_cast<unsigned long long>(got_rejected.load()),
      static_cast<unsigned long long>(m.submitted),
      static_cast<unsigned long long>(m.completed),
      static_cast<unsigned long long>(m.failed),
      static_cast<unsigned long long>(m.rejected));

  StressReport report;
  report.seed = options.seed;
  report.submitted = submitted.load();
  report.ok = got_ok.load();
  report.errors = got_err.load();
  report.rejected = got_rejected.load();
  report.republishes = republishes.load();
  report.invalidations = invalidations.load();
  report.atomic_cycles = atomic_cycles.load();
  report.torn_loads = torn_loads.load();
  report.pairs_kept = pairs_kept;
  report.pairs_dropped = pairs_dropped;
  report.oracle_checks = ledger.checks();
  report.oracle_violations = ledger.violations();
  report.violations = ledger.violation_samples();
  report.server_submitted = m.submitted;
  report.server_completed = m.completed;
  report.server_failed = m.failed;
  report.server_rejected = m.rejected;
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    report.peak_rss_kib = static_cast<uint64_t>(usage.ru_maxrss);  // KiB
  }
  if (options.verbose) {
    std::fprintf(stderr, "%s", report.ToString().c_str());
  }
  return report;
}

}  // namespace ds::stress
