// ds_stress — grammar-driven concurrent chaos harness for the serving
// stack (see src/ds/stress/harness.h and DESIGN.md §9).
//
//   ds_stress corpus=<dir> [seed=N] [seconds=S] [ms=M] [clients=N]
//             [chaos=N] [net=0|1] [killer=0|1] [pairs=N] [workers=N]
//             [queue=N] [quiet=0|1] [lockdep=0|1]
//
//   corpus    sketch corpus directory; trained on first use, reused after
//             (safe to keep across runs — training dominates cold start)
//   seed      the replay seed. Every oracle violation message embeds it:
//             rerun `ds_stress corpus=... seed=<N>` with the same flags to
//             regenerate the identical workload. Thread interleaving is
//             not replayed — the generated queries and chaos schedule are.
//   seconds   run length (default 10; ms= overrides for sub-second runs)
//   net=1     drive clients through the ds::net TCP front-end instead of
//             in-process Submit (chaos/killer always act in-process)
//   lockdep   arm the runtime lock-order checker (default 1; see
//             ds/util/lockdep.h). An inversion aborts the run with both
//             acquisition stacks — under chaos that is the point.
//
// Exit status: 0 when every oracle held, 1 on any violation (the report
// and the first violation messages go to stderr), 2 on setup failure.
//
// CI runs this under TSan as the stress-soak job: a clean soak means the
// oracle families (monotonicity, determinism, batch-equivalence, metrics
// ledger) AND the data-race checker both stayed quiet under chaos.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "ds/stress/harness.h"
#include "ds/util/lockdep.h"

namespace {

struct Flags {
  std::map<std::string, std::string> values;

  long long GetInt(const std::string& key, long long def) const {
    auto it = values.find(key);
    if (it == values.end()) return def;
    return std::atoll(it->second.c_str());
  }
  std::string GetString(const std::string& key, const std::string& def) const {
    auto it = values.find(key);
    return it == values.end() ? def : it->second;
  }
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "ds_stress: expected key=value, got '%s'\n",
                   arg.c_str());
      return 2;
    }
    flags.values[arg.substr(0, eq)] = arg.substr(eq + 1);
  }

  ds::stress::StressOptions options;
  options.corpus_dir = flags.GetString("corpus", "");
  if (options.corpus_dir.empty()) {
    std::fprintf(stderr,
                 "usage: ds_stress corpus=<dir> [seed=N] [seconds=S] [ms=M] "
                 "[clients=N] [chaos=N] [net=0|1] [killer=0|1] [pairs=N] "
                 "[workers=N] [queue=N] [quiet=0|1] [lockdep=0|1]\n");
    return 2;
  }
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const long long seconds = flags.GetInt("seconds", 10);
  options.duration_ms =
      static_cast<uint64_t>(flags.GetInt("ms", seconds * 1000));
  options.num_clients = static_cast<size_t>(flags.GetInt("clients", 8));
  options.num_chaos = static_cast<size_t>(flags.GetInt("chaos", 2));
  options.use_net = flags.GetInt("net", 0) != 0;
  options.run_killer = flags.GetInt("killer", 1) != 0;
  options.pool_pairs = static_cast<size_t>(flags.GetInt("pairs", 24));
  options.server_workers = static_cast<size_t>(flags.GetInt("workers", 4));
  options.queue_capacity = static_cast<size_t>(flags.GetInt("queue", 1024));
  options.verbose = flags.GetInt("quiet", 0) == 0;

  // The soak always runs with the lock-order checker armed unless the
  // caller opts out; a violation aborts mid-run with both stacks.
  ds::util::lockdep::SetEnabled(flags.GetInt("lockdep", 1) != 0);

  auto report = ds::stress::RunStress(options);
  if (!report.ok()) {
    std::fprintf(stderr, "ds_stress: setup failed: %s\n",
                 report.status().ToString().c_str());
    return 2;
  }
  if (!report->Passed()) {
    std::fprintf(stderr,
                 "ds_stress: ORACLE VIOLATION — replay with: ds_stress "
                 "corpus=%s seed=%llu clients=%zu chaos=%zu net=%d "
                 "killer=%d\n",
                 options.corpus_dir.c_str(),
                 static_cast<unsigned long long>(options.seed),
                 options.num_clients, options.num_chaos,
                 options.use_net ? 1 : 0, options.run_killer ? 1 : 0);
    if (!options.verbose) {  // the verbose path already printed the report
      std::fprintf(stderr, "%s", report->ToString().c_str());
    }
    return 1;
  }
  return 0;
}
