// The concurrent chaos harness behind tools/ds_stress and the stress ctest.
//
// RunStress stands up a real serving stack — SketchRegistry over a corpus
// directory, SketchServer worker pool, optionally the ds::net TCP front-end
// — and hammers it from three thread families:
//
//   clients   N threads streaming grammar-generated SQL (decorated
//             renderings, metamorphic pairs, coalesced batches, placeholder
//             and malformed salt) and checking the oracle catalog on every
//             answer (see oracles.h).
//   chaos     threads that republish/invalidate sketches through the
//             registry mid-flight — the workload that catches the stale
//             result-cache bug (estimates keyed without the registry epoch).
//   killer    one thread exercising crash-consistency: atomic Save/Load
//             cycles that must never expose a torn file, plus raw
//             (deliberately non-atomic) writes of the torn corpus that the
//             registry must reject cleanly, never crash on.
//
// Everything derives from StressOptions::seed. A violation message carries
// that seed, so `ds_stress seed=<N> ...` replays the run bit-for-bit
// (thread *interleaving* is not replayed — the generated workload is).
//
// Corpus layout (PrepareStressCorpus builds it once, idempotently):
//   stable.sketch  never touched by chaos; golden determinism target
//   alt0/1.sketch  republish sources for the chaos threads
//   victim.sketch  rewritten atomically by the killer, content == stable
//   torn.sketch    rewritten with corrupt bytes by the killer

#ifndef DS_STRESS_HARNESS_H_
#define DS_STRESS_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ds/stress/oracles.h"
#include "ds/util/status.h"

namespace ds::stress {

struct StressOptions {
  /// The replay seed: workload, chaos schedule, and corpus corruptions are
  /// all derived from it.
  uint64_t seed = 1;

  /// Wall-clock run length (threads check a stop flag between operations).
  uint64_t duration_ms = 3000;

  size_t num_clients = 8;
  size_t num_chaos = 2;

  /// Route client traffic through the ds::net TCP front-end instead of
  /// calling SketchServer::Submit in-process. Chaos/killer threads always
  /// act in-process (they play the role of a co-located retrain pipeline).
  bool use_net = false;

  /// Run the save/load + torn-file killer thread.
  bool run_killer = true;

  /// Metamorphic pairs pre-screened at quiesced startup for the
  /// monotonicity oracle (the learned model is not inherently monotone, so
  /// only pairs that hold at startup are asserted under chaos).
  size_t pool_pairs = 24;

  /// Directory for the sketch corpus; created (and trained into) if the
  /// sketches are missing. Required.
  std::string corpus_dir;

  size_t server_workers = 4;
  size_t queue_capacity = 1024;

  /// Print progress and the final report to stderr.
  bool verbose = false;
};

/// Everything a run observed. Passed() is the CI exit criterion.
struct StressReport {
  uint64_t seed = 0;

  // Client-side accounting (one increment per accepted request).
  uint64_t submitted = 0;
  uint64_t ok = 0;
  uint64_t errors = 0;
  uint64_t rejected = 0;  // backpressure; tolerated, not a violation

  // Chaos / killer activity.
  uint64_t republishes = 0;
  uint64_t invalidations = 0;
  uint64_t atomic_cycles = 0;
  uint64_t torn_loads = 0;

  // Pool screening.
  uint64_t pairs_kept = 0;
  uint64_t pairs_dropped = 0;

  // Oracle outcome.
  uint64_t oracle_checks = 0;
  uint64_t oracle_violations = 0;
  std::vector<OracleViolation> violations;

  // Server-side ledger after drain (submitted == completed + failed is
  // itself one of the oracles).
  uint64_t server_submitted = 0;
  uint64_t server_completed = 0;
  uint64_t server_failed = 0;
  uint64_t server_rejected = 0;

  // Peak resident set of the whole process so far (getrusage ru_maxrss),
  // corpus training included when this run trained it.
  uint64_t peak_rss_kib = 0;

  bool Passed() const { return oracle_violations == 0; }
  std::string ToString() const;
};

/// Trains the corpus sketches into `dir` if any is missing (idempotent, so
/// the tier-1 test and repeated CLI runs reuse one training pass). Small on
/// purpose: a ~600-title synthetic IMDb, 3-table sketches, 2 epochs.
Status PrepareStressCorpus(const std::string& dir, bool verbose = false);

/// One full stress run. Returns an error only for harness setup failures
/// (corpus training, server start); oracle violations are reported in the
/// StressReport, not as a Status.
Result<StressReport> RunStress(const StressOptions& options);

}  // namespace ds::stress

#endif  // DS_STRESS_HARNESS_H_
