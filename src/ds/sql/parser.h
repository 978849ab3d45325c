// The SQL front end's grammar and its syntax-only entry point:
//
//   SELECT COUNT(*) FROM <table> [AS] <alias>, ...
//   [WHERE <cond> AND <cond> AND ...] [;]
//
//   cond := colref op colref        (equi-join; op must be '=')
//         | colref op literal       (selection)
//         | literal op colref       (selection, normalized by the binder)
//         | colref op '?'           (template placeholder, one per query)
//         | colref BETWEEN int AND int   (desugared to two range predicates)
//   op   := '=' | '<' | '>'
//
// This is exactly the class of queries the paper's demo generates and
// estimates: conjunctive COUNT(*) over PK/FK joins, no disjunction, no
// strings patterns, no grouping (templates subsume the demo's grouping UI).
//
// One recursive-descent pass (parser.cc) reads the text and, given a
// catalog, binds it as it goes (binder.h). Parse runs that pass without a
// catalog, so it reports exactly the lexical and syntax errors binding
// would.

#ifndef DS_SQL_PARSER_H_
#define DS_SQL_PARSER_H_

#include <string>
#include <string_view>

#include "ds/util/status.h"

namespace ds::sql {

/// A statement that passed the syntax check. It owns its text, so it may
/// outlive the string it was parsed from; Bind reads the text again
/// against a catalog.
struct ParsedQuery {
  std::string sql;
};

/// Checks the syntax of `sql`; returns ParseError with offset context on
/// malformed input, including integer literals outside int64.
Result<ParsedQuery> Parse(std::string_view sql);

}  // namespace ds::sql

#endif  // DS_SQL_PARSER_H_
