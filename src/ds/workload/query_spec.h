// The query intermediate representation.
//
// Everything downstream of the SQL parser — the executor, the estimators,
// the featurizer — operates on QuerySpec: the (tables, joins, predicates)
// triple that the MSCN model represents as three sets. This mirrors the
// paper's observation that a query's cardinality is independent of its plan,
// so {A,B,C} with its join edges and predicates is the right abstraction.
//
// The supported fragment matches the paper's demo: conjunctive
// SELECT COUNT(*) queries over PK/FK equi-joins with {=, <, >} predicates on
// base-table columns, no disjunctions, no string pattern matching.

#ifndef DS_WORKLOAD_QUERY_SPEC_H_
#define DS_WORKLOAD_QUERY_SPEC_H_

#include <string>
#include <vector>

#include "ds/storage/catalog.h"
#include "ds/storage/value.h"
#include "ds/util/status.h"

namespace ds::workload {

enum class CompareOp : uint8_t { kEq = 0, kLt = 1, kGt = 2 };

const char* CompareOpToString(CompareOp op);  // "=", "<", ">"
Result<CompareOp> CompareOpFromString(const std::string& s);

/// `table.column op literal`.
struct ColumnPredicate {
  std::string table;
  std::string column;
  CompareOp op = CompareOp::kEq;
  storage::CellValue literal;

  std::string ToString() const;  // "t.production_year>2000"

  bool operator==(const ColumnPredicate&) const = default;
};

/// Equi-join `left_table.left_column = right_table.right_column`.
struct JoinEdge {
  std::string left_table;
  std::string left_column;
  std::string right_table;
  std::string right_column;

  std::string ToString() const;  // "mk.movie_id=t.id"

  /// True if the edges connect the same column pair (in either direction).
  bool SameEdge(const JoinEdge& other) const;

  /// Exact equality, operand order included.
  bool operator==(const JoinEdge&) const = default;
};

/// A full COUNT(*) query.
struct QuerySpec {
  std::vector<std::string> tables;
  std::vector<JoinEdge> joins;
  std::vector<ColumnPredicate> predicates;

  /// Renders executable SQL: SELECT COUNT(*) FROM ... WHERE ...;
  std::string ToSql() const;

  /// Compact one-line form used in logs and workload files:
  /// "t,mk#t.id=mk.movie_id#t.production_year,>,2000".
  std::string ToCompactString() const;

  bool HasTable(const std::string& name) const;

  bool operator==(const QuerySpec&) const = default;

  /// Validates the spec against a catalog: tables exist, join/predicate
  /// columns exist, join columns join declared tables, and the join graph
  /// connects all tables (single connected component). Single-table queries
  /// need no joins.
  Status Validate(const storage::Catalog& catalog) const;
};

/// Resolves a predicate literal to the numeric domain of its column
/// (dictionary code for categorical, numeric value otherwise).
Result<double> ResolvePredicateValue(const storage::Catalog& catalog,
                                     const ColumnPredicate& pred);

}  // namespace ds::workload

#endif  // DS_WORKLOAD_QUERY_SPEC_H_
