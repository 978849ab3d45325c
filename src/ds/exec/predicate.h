// Predicate binding and evaluation over base tables and samples.
//
// A BoundPredicate has resolved the column pointer and the literal to the
// column's numeric domain. A categorical equality literal that does not
// appear in the dictionary cannot match any row (the string does not exist
// in the data), which binding records as never_matches instead of an error —
// ad-hoc user queries may legitimately probe for absent values.

#ifndef DS_EXEC_PREDICATE_H_
#define DS_EXEC_PREDICATE_H_

#include <cstdint>
#include <vector>

#include "ds/storage/table.h"
#include "ds/workload/query_spec.h"

namespace ds::exec {

struct BoundPredicate {
  const storage::Column* column = nullptr;
  workload::CompareOp op = workload::CompareOp::kEq;
  double value = 0;
  bool never_matches = false;
};

/// Binds the subset of `predicates` that targets `table_name` against the
/// physical `table`. Fails on type mismatches or unknown columns.
Result<std::vector<BoundPredicate>> BindPredicates(
    const storage::Table& table, const std::string& table_name,
    const std::vector<workload::ColumnPredicate>& predicates);

/// BindPredicates into a caller-reused vector (cleared first; capacity is
/// retained, so a warm scratch vector binds with zero allocations).
Status BindPredicatesInto(const storage::Table& table,
                          const std::string& table_name,
                          const std::vector<workload::ColumnPredicate>& predicates,
                          std::vector<BoundPredicate>* bound);

/// True if row `row` satisfies `pred`. NULL never qualifies. The
/// row-at-a-time reference for QualifyingBitmapInto (the brute-force count
/// the executor tests compare against uses it).
inline bool RowMatches(const BoundPredicate& pred, size_t row) {
  if (pred.never_matches || pred.column->IsNull(row)) return false;
  double v = pred.column->GetNumeric(row);
  switch (pred.op) {
    case workload::CompareOp::kEq:
      return v == pred.value;
    case workload::CompareOp::kLt:
      return v < pred.value;
    case workload::CompareOp::kGt:
      return v > pred.value;
  }
  return false;
}

/// True if row `row` satisfies all of `preds`.
inline bool RowMatchesAll(const std::vector<BoundPredicate>& preds,
                          size_t row) {
  for (const auto& p : preds) {
    if (!RowMatches(p, row)) return false;
  }
  return true;
}

/// Per-row qualification bytes (1/0), one per table row, into a
/// caller-reused vector (resized; capacity is retained across calls). Over
/// a sample this is the "bitmap" the paper extracts; over a base table it
/// is the executor's filter.
void QualifyingBitmapInto(const storage::Table& table,
                          const std::vector<BoundPredicate>& preds,
                          std::vector<uint8_t>* bitmap);

}  // namespace ds::exec

#endif  // DS_EXEC_PREDICATE_H_
