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
// and the first violation messages go to stderr), 2 on a bad flag (an
// unknown key, a malformed or out-of-range value, a positional argument)
// or a setup failure.
//
// CI runs this under TSan as the stress-soak job: a clean soak means the
// oracle families (monotonicity, determinism, batch-equivalence, metrics
// ledger) AND the data-race checker both stayed quiet under chaos.

#include <cstdio>
#include <limits>
#include <string>

#include "ds/stress/harness.h"
#include "ds/util/flags.h"
#include "ds/util/lockdep.h"

int main(int argc, char** argv) {
  using ds::util::Flags;
  // Every flag is read and checked before the corpus is loaded or trained.
  Flags flags(argc, argv);
  ds::stress::StressOptions options;
  options.corpus_dir = flags.String("corpus", "");
  options.seed = flags.Count("seed", 1);
  const uint64_t seconds = flags.Count(
      "seconds", 10, 0, std::numeric_limits<uint64_t>::max() / 1000);
  options.duration_ms = flags.Count("ms", seconds * 1000);
  options.num_clients = flags.Count("clients", 8, 1, Flags::kMaxThreads);
  options.num_chaos = flags.Count("chaos", 2, 0, Flags::kMaxThreads);
  options.use_net = flags.Bool("net", false);
  options.run_killer = flags.Bool("killer", true);
  options.pool_pairs = flags.Count("pairs", 24);
  options.server_workers = flags.Count("workers", 4, 1, Flags::kMaxThreads);
  options.queue_capacity = flags.Count("queue", 1024, 1);
  options.verbose = !flags.Bool("quiet", false);
  const bool lockdep = flags.Bool("lockdep", true);
  if (ds::Status st = flags.Finish(); !st.ok()) {
    std::fprintf(stderr, "ds_stress: %s\n", st.ToString().c_str());
    return 2;
  }
  if (options.corpus_dir.empty()) {
    std::fprintf(stderr,
                 "usage: ds_stress corpus=<dir> [seed=N] [seconds=S] [ms=M] "
                 "[clients=N] [chaos=N] [net=0|1] [killer=0|1] [pairs=N] "
                 "[workers=N] [queue=N] [quiet=0|1] [lockdep=0|1]\n");
    return 2;
  }

  // The soak always runs with the lock-order checker armed unless the
  // caller opts out; a violation aborts mid-run with both stacks.
  ds::util::lockdep::SetEnabled(lockdep);

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
