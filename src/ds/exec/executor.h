// Query execution: computes exact COUNT(*) results for QuerySpecs.
//
// This is the ground-truth oracle the paper obtains from HyPer (step 3 of
// Figure 1a): training labels, validation labels, and the "true cardinality"
// overlay all come from here. Count filters each table a column at a time
// into a bitmap, then joins left-deep, starting from the table with the
// fewest qualifying rows, on flat chained hash tables. Every step but the
// last materializes row-id tuples; the last one only counts its matches.
// Join edges beyond each step's build edge (a cycle, a second edge between
// two tables) are checked on every match; an edge between two columns of
// one table filters that table's rows. The bitmaps, row ids, hash tables
// and tuples live in per-thread scratch that keeps its capacity, so Count is
// safe to call from several threads at once.

#ifndef DS_EXEC_EXECUTOR_H_
#define DS_EXEC_EXECUTOR_H_

#include <cstdint>

#include "ds/storage/catalog.h"
#include "ds/workload/query_spec.h"

namespace ds::exec {

struct ExecutorOptions {
  /// Abort with OutOfRange once an intermediate result (the start table's
  /// qualifying rows, or the tuples a join step before the last one
  /// materializes) exceeds this many tuples; guards against runaway joins
  /// on user-authored queries.
  uint64_t max_intermediate_tuples = 200'000'000;
};

/// Executes COUNT(*) queries against a catalog.
class Executor {
 public:
  explicit Executor(const storage::Catalog* catalog,
                    ExecutorOptions options = {})
      : catalog_(catalog), options_(options) {}

  /// Exact result size of `spec`. Validates the spec first.
  Result<uint64_t> Count(const workload::QuerySpec& spec) const;

 private:
  const storage::Catalog* catalog_;
  ExecutorOptions options_;
};

}  // namespace ds::exec

#endif  // DS_EXEC_EXECUTOR_H_
