// Semantic analysis: resolves SQL text against a Catalog.
//
// The binder maps aliases to tables, resolves unqualified columns when they
// are unambiguous, classifies conditions into join edges vs. selections,
// normalizes literal-op-column conditions, and extracts at most one template
// placeholder. The output QuerySpec is validated (including join-graph
// connectivity), so downstream components can trust it.
//
// Binding happens inside the parser's single pass (parser.cc). Errors keep
// the precedence of separate lex, parse and bind stages: a lexical error
// anywhere wins, then the first syntax error, then the first bind error in
// reading order (FROM entries, then each condition), then connectivity.

#ifndef DS_SQL_BINDER_H_
#define DS_SQL_BINDER_H_

#include <optional>
#include <string>
#include <string_view>

#include "ds/sql/parser.h"
#include "ds/storage/catalog.h"
#include "ds/workload/query_spec.h"

namespace ds::sql {

/// A `t.col op ?` placeholder awaiting instantiation (the demo's query
/// templates, §1 and §3 of the paper).
struct PlaceholderRef {
  std::string table;   // resolved table name (not alias)
  std::string column;
  workload::CompareOp op = workload::CompareOp::kEq;

  bool operator==(const PlaceholderRef&) const = default;
};

struct BoundQuery {
  workload::QuerySpec spec;
  std::optional<PlaceholderRef> placeholder;

  bool operator==(const BoundQuery&) const = default;
};

/// Binds `parsed` against `catalog`. Table names in the result are real
/// table names; aliases are resolved away.
Result<BoundQuery> Bind(const storage::Catalog& catalog,
                        const ParsedQuery& parsed);

/// Parses and binds `sql` in one pass into caller-owned `out`, whose vectors
/// keep their capacity: once `out` has held a statement as large, binding a
/// well-formed statement allocates nothing, as long as its names and string
/// literals fit the strings' inline buffer (15 bytes in libstdc++). On error
/// `out` holds unspecified contents.
Status Bind(const storage::Catalog& catalog, std::string_view sql,
            BoundQuery* out);

/// Convenience: parse + bind a complete (placeholder-free) query.
Result<workload::QuerySpec> ParseAndBind(const storage::Catalog& catalog,
                                         std::string_view sql);

}  // namespace ds::sql

#endif  // DS_SQL_BINDER_H_
