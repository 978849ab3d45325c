// The SQL front end: one recursive-descent pass over the statement text.
//
// Tokens are views of the input and keywords match in place. With a catalog
// the pass binds as it reads: each FROM entry is resolved when it ends, each
// condition when its last operand is read, and join connectivity once the
// text is done. The result goes straight into the caller's BoundQuery, so a
// statement is read once and makes no per-token strings and no maps.
//
// For the error precedence binder.h promises, a bind error only stops
// binding: the pass reads on to the end. After a syntax error it still
// scans the rest of the text for a lexical error.

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "ds/sql/binder.h"
#include "ds/sql/parser.h"
#include "ds/util/string_util.h"

namespace ds::sql {

namespace {

using workload::CompareOp;

// The one-character tokens, in Tok's order from kComma on.
constexpr std::string_view kPunctuation = ",.()*=<>;?";

enum class Tok : uint8_t {
  kIdentifier,  // table, column, alias, or keyword (case-insensitive)
  kInteger,     // 123, -7
  kFloat,       // 1.5, 3.
  kString,      // 'text' with '' escaping
  kComma, kDot, kLParen, kRParen, kStar,
  kEquals, kLess, kGreater,  // in CompareOp's order
  kSemicolon,
  kQuestion,  // template placeholder
  kEnd,
  kBad,  // lexical error, kept in Pass::lex_error_
};

struct Token {
  Tok type = Tok::kEnd;
  // Identifier or number spelling; for kString the body between the
  // quotes, '' escapes still doubled.
  std::string_view text;
  size_t position = 0;  // byte offset in the input, for error messages
};

// <cctype> in the "C" locale, without the calls.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool IsDigit(char c) { return c >= '0' && c <= '9'; }
bool IsAlpha(char c) { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'); }
bool IsIdentChar(char c) { return IsAlpha(c) || IsDigit(c) || c == '_'; }

// strtod needs a terminated string; numbers are short, so copy to the stack.
double ParseDouble(std::string_view spelling) {
  char buf[64];
  if (spelling.size() >= sizeof(buf)) {
    return std::strtod(std::string(spelling).c_str(), nullptr);
  }
  std::memcpy(buf, spelling.data(), spelling.size());
  buf[spelling.size()] = '\0';
  return std::strtod(buf, nullptr);
}

// One condition operand, held until the condition's shape is known.
struct Operand {
  enum class Kind : uint8_t { kColumn, kInteger, kFloat, kString, kPlaceholder };
  Kind kind = Kind::kInteger;
  std::string_view qualifier;  // kColumn: alias or table; empty if unqualified
  std::string_view text;       // kColumn: column name; kString: escaped body
  int64_t integer = 0;
  double real = 0;
};

// A FROM entry being bound; the views point into the statement text.
struct FromEntry {
  std::string_view table;
  std::string_view alias;  // equals `table` when no alias was given
  const storage::Table* schema = nullptr;
  size_t component = 0;  // union-find parent over FROM indices (join graph)
};

// FROM entries of the statement being bound on this thread. Kept across
// statements so a warm bind does not allocate.
std::vector<FromEntry>& LocalFromEntries() {
  static thread_local std::vector<FromEntry> entries;
  return entries;
}

class Pass {
 public:
  // `catalog` and `out` are null for a syntax-only pass.
  Pass(std::string_view sql, const storage::Catalog* catalog, BoundQuery* out)
      : sql_(sql), catalog_(catalog), out_(out) {}

  Status Run() {
    if (out_ != nullptr) {
      from_ = &LocalFromEntries();
      from_->clear();
      out_->spec.tables.clear();
      out_->spec.joins.clear();
      out_->spec.predicates.clear();
      out_->placeholder.reset();
    }
    Next();
    Status syntax = Statement();
    if (!syntax.ok()) {
      while (token_.type != Tok::kEnd && token_.type != Tok::kBad) Next();
      return lex_error_.ok() ? syntax : lex_error_;
    }
    if (catalog_ == nullptr || !bind_error_.ok()) return bind_error_;
    return CheckConnected();
  }

 private:
  // --- Lexing -------------------------------------------------------------

  // Scans the token after the current one into token_. Stays on kEnd and
  // kBad.
  void Next() {
    if (token_.type == Tok::kBad) return;
    const size_t n = sql_.size();
    size_t i = pos_;
    while (i < n && IsSpace(sql_[i])) ++i;
    if (i == n) {
      token_ = Token{Tok::kEnd, {}, n};
      pos_ = n;
      return;
    }
    const char c = sql_[i];
    size_t j = i + 1;
    Tok type;
    if (IsAlpha(c) || c == '_') {
      while (j < n && IsIdentChar(sql_[j])) ++j;
      type = Tok::kIdentifier;
    } else if (IsDigit(c) || (c == '-' && j < n && IsDigit(sql_[j]))) {
      type = Tok::kInteger;
      for (; j < n && (IsDigit(sql_[j]) || sql_[j] == '.'); ++j) {
        if (sql_[j] == '.') {
          if (type == Tok::kFloat) break;  // second dot ends the number
          type = Tok::kFloat;
        }
      }
    } else if (c == '\'') {
      for (;; ++j) {
        if (j >= n) {
          return Fail(Status::ParseError(
              "unterminated string literal at offset " + std::to_string(i)));
        }
        if (sql_[j] != '\'') continue;
        if (j + 1 < n && sql_[j + 1] == '\'') {
          ++j;  // escaped quote
          continue;
        }
        break;
      }
      token_ = Token{Tok::kString, sql_.substr(i + 1, j - i - 1), i};
      pos_ = j + 1;
      return;
    } else if (const size_t k = kPunctuation.find(c);
               k != std::string_view::npos) {
      type = static_cast<Tok>(static_cast<size_t>(Tok::kComma) + k);
    } else {
      return Fail(Status::ParseError(std::string("unexpected character '") +
                                     c + "' at offset " + std::to_string(i)));
    }
    token_ = Token{type, sql_.substr(i, j - i), i};
    pos_ = j;
  }

  void Fail(Status lex_error) {
    lex_error_ = std::move(lex_error);
    token_ = Token{Tok::kBad, {}, pos_};
  }

  // --- Parsing ------------------------------------------------------------

  bool IsKeyword(const char* kw) const {
    return token_.type == Tok::kIdentifier &&
           util::EqualsIgnoreCase(token_.text, kw);
  }

  Status Error(std::string_view msg) const {
    return Status::ParseError(std::string(msg) + " at offset " +
                              std::to_string(token_.position));
  }

  Status Expect(Tok type, const char* what) {
    if (token_.type != type) {
      return Error(std::string("expected '") + what + "'");
    }
    Next();
    return Status::OK();
  }

  Status ExpectKeyword(const char* kw) {
    if (!IsKeyword(kw)) return Error(std::string("expected keyword ") + kw);
    Next();
    return Status::OK();
  }

  Status Statement() {
    DS_RETURN_NOT_OK(ExpectKeyword("SELECT"));
    DS_RETURN_NOT_OK(ExpectKeyword("COUNT"));
    DS_RETURN_NOT_OK(Expect(Tok::kLParen, "("));
    DS_RETURN_NOT_OK(Expect(Tok::kStar, "*"));
    DS_RETURN_NOT_OK(Expect(Tok::kRParen, ")"));
    DS_RETURN_NOT_OK(ExpectKeyword("FROM"));
    DS_RETURN_NOT_OK(TableList());
    if (IsKeyword("WHERE")) {
      Next();
      DS_RETURN_NOT_OK(Conditions());
    }
    if (token_.type == Tok::kSemicolon) Next();
    if (token_.type != Tok::kEnd) return Error("unexpected trailing input");
    return Status::OK();
  }

  Status TableList() {
    for (;;) {
      if (token_.type != Tok::kIdentifier) return Error("expected table name");
      const std::string_view table = token_.text;
      std::string_view alias = table;
      Next();
      if (IsKeyword("AS")) {
        Next();
        if (token_.type != Tok::kIdentifier) {
          return Error("expected alias after AS");
        }
        alias = token_.text;
        Next();
      } else if (token_.type == Tok::kIdentifier && !IsKeyword("WHERE")) {
        alias = token_.text;
        Next();
      }
      if (binding()) bind_error_ = BindTable(table, alias);
      if (token_.type != Tok::kComma) return Status::OK();
      Next();
    }
  }

  Status ParseOperand(Operand* op) {
    switch (token_.type) {
      case Tok::kIdentifier: {
        op->kind = Operand::Kind::kColumn;
        const std::string_view first = token_.text;
        Next();
        if (token_.type != Tok::kDot) {
          op->qualifier = {};
          op->text = first;
          return Status::OK();
        }
        Next();
        if (token_.type != Tok::kIdentifier) {
          return Error("expected column name after '.'");
        }
        op->qualifier = first;
        op->text = token_.text;
        break;
      }
      case Tok::kInteger: {
        op->kind = Operand::Kind::kInteger;
        const std::string_view s = token_.text;
        if (std::from_chars(s.data(), s.data() + s.size(), op->integer).ec !=
            std::errc()) {
          return Error("integer literal out of range");
        }
        break;
      }
      case Tok::kFloat:
        op->kind = Operand::Kind::kFloat;
        op->real = ParseDouble(token_.text);
        break;
      case Tok::kString:
        op->kind = Operand::Kind::kString;
        op->text = token_.text;
        break;
      case Tok::kQuestion:
        op->kind = Operand::Kind::kPlaceholder;
        break;
      default:
        return Error("expected column, literal, or '?'");
    }
    Next();
    return Status::OK();
  }

  Status Conditions() {
    for (;;) {
      Operand lhs, rhs;
      DS_RETURN_NOT_OK(ParseOperand(&lhs));
      if (IsKeyword("BETWEEN")) {
        Next();
        Operand high;
        DS_RETURN_NOT_OK(ParseOperand(&rhs));
        DS_RETURN_NOT_OK(ExpectKeyword("AND"));
        DS_RETURN_NOT_OK(ParseOperand(&high));
        if (binding()) bind_error_ = BindBetween(lhs, rhs, high);
      } else {
        if (token_.type < Tok::kEquals || token_.type > Tok::kGreater) {
          return Error("expected comparison operator");
        }
        const auto op = static_cast<CompareOp>(
            static_cast<int>(token_.type) - static_cast<int>(Tok::kEquals));
        Next();
        DS_RETURN_NOT_OK(ParseOperand(&rhs));
        if (binding()) bind_error_ = BindCondition(lhs, op, rhs);
      }
      if (!IsKeyword("AND")) return Status::OK();
      Next();
    }
  }

  // --- Binding ------------------------------------------------------------

  // True while binding: a catalog was given and nothing has failed to bind.
  bool binding() const { return catalog_ != nullptr && bind_error_.ok(); }

  // Rejects unknown tables, duplicate aliases and self-joins (no self-joins
  // in the supported fragment — the demo's schemas have single PK/FK
  // edges). A table's own name also works as a qualifier unless an earlier
  // entry claimed it.
  Status BindTable(std::string_view table, std::string_view alias) {
    DS_ASSIGN_OR_RETURN(const storage::Table* schema,
                        catalog_->GetTable(table));
    for (const FromEntry& e : *from_) {
      if (e.alias == alias || e.table == alias) {
        return Status::InvalidArgument("duplicate alias '" +
                                       std::string(alias) + "'");
      }
    }
    for (const FromEntry& e : *from_) {
      if (e.table == table) {
        return Status::InvalidArgument("table '" + std::string(table) +
                                       "' appears twice (self-joins are "
                                       "unsupported)");
      }
    }
    from_->push_back(FromEntry{table, alias, schema, from_->size()});
    out_->spec.tables.emplace_back(table);
    return Status::OK();
  }

  // Resolves a column operand to the index of its FROM entry.
  Status Resolve(const Operand& col, size_t* entry) const {
    if (!col.qualifier.empty()) {
      for (size_t i = 0; i < from_->size(); ++i) {
        const FromEntry& e = (*from_)[i];
        if (e.alias != col.qualifier && e.table != col.qualifier) continue;
        DS_RETURN_NOT_OK(e.schema->GetColumn(col.text).status());
        *entry = i;
        return Status::OK();
      }
      return Status::InvalidArgument("unknown table or alias '" +
                                     std::string(col.qualifier) + "'");
    }
    // Unqualified: must match exactly one FROM table.
    const FromEntry* found = nullptr;
    for (size_t i = 0; i < from_->size(); ++i) {
      const FromEntry& e = (*from_)[i];
      if (!e.schema->HasColumn(col.text)) continue;
      if (found != nullptr) {
        return Status::InvalidArgument(
            "ambiguous column '" + std::string(col.text) + "' (in '" +
            std::string(found->table) + "' and '" + std::string(e.table) +
            "')");
      }
      found = &e;
      *entry = i;
    }
    if (found == nullptr) {
      return Status::InvalidArgument("unknown column '" +
                                     std::string(col.text) + "'");
    }
    return Status::OK();
  }

  workload::ColumnPredicate& AddPredicate(size_t entry, std::string_view column,
                                          CompareOp op) {
    workload::ColumnPredicate& pred = out_->spec.predicates.emplace_back();
    pred.table = (*from_)[entry].table;
    pred.column = column;
    pred.op = op;
    return pred;
  }

  // `col BETWEEN a AND b` with integer bounds desugars into the strict
  // predicates col > a-1 AND col < b+1 (the supported op set is {=,<,>}, as
  // in the paper's featurization).
  Status BindBetween(const Operand& col, const Operand& low,
                     const Operand& high) {
    if (col.kind != Operand::Kind::kColumn) {
      return Status::InvalidArgument("BETWEEN requires a column");
    }
    if (low.kind != Operand::Kind::kInteger ||
        high.kind != Operand::Kind::kInteger) {
      return Status::InvalidArgument(
          "BETWEEN supports integer literal bounds only");
    }
    // a-1 and b+1 overflow int64 for BETWEEN INT64_MIN AND x / x AND
    // INT64_MAX (signed overflow is UB — found by fuzz_sql under UBSan). No
    // real column holds values at the int64 limits (they round-trip through
    // double downstream anyway), so reject the bound.
    if (low.integer == std::numeric_limits<int64_t>::min() ||
        high.integer == std::numeric_limits<int64_t>::max()) {
      return Status::InvalidArgument(
          "BETWEEN bounds at the int64 limits are unsupported");
    }
    size_t entry = 0;
    DS_RETURN_NOT_OK(Resolve(col, &entry));
    AddPredicate(entry, col.text, CompareOp::kGt).literal = low.integer - 1;
    AddPredicate(entry, col.text, CompareOp::kLt).literal = high.integer + 1;
    return Status::OK();
  }

  Status BindCondition(const Operand& lhs, CompareOp op, const Operand& rhs) {
    const bool l_col = lhs.kind == Operand::Kind::kColumn;
    const bool r_col = rhs.kind == Operand::Kind::kColumn;
    if (l_col && r_col) {
      if (op != CompareOp::kEq) {
        return Status::InvalidArgument("only equality joins are supported");
      }
      size_t l = 0, r = 0;
      DS_RETURN_NOT_OK(Resolve(lhs, &l));
      DS_RETURN_NOT_OK(Resolve(rhs, &r));
      workload::JoinEdge& edge = out_->spec.joins.emplace_back();
      edge.left_table = (*from_)[l].table;
      edge.left_column = lhs.text;
      edge.right_table = (*from_)[r].table;
      edge.right_column = rhs.text;
      if (l == r) {
        return Status::InvalidArgument("join within a single table: " +
                                       edge.ToString());
      }
      (*from_)[Root(l)].component = Root(r);
      return Status::OK();
    }
    if (!l_col && !r_col) {
      return Status::InvalidArgument(
          "conditions between two literals are unsupported");
    }
    // Normalize to column-op-rhs, flipping < and > for `literal op column`.
    const Operand& col = l_col ? lhs : rhs;
    const Operand& other = l_col ? rhs : lhs;
    if (!l_col && op != CompareOp::kEq) {
      op = op == CompareOp::kLt ? CompareOp::kGt : CompareOp::kLt;
    }
    size_t entry = 0;
    DS_RETURN_NOT_OK(Resolve(col, &entry));
    if (other.kind == Operand::Kind::kPlaceholder) {
      if (out_->placeholder.has_value()) {
        return Status::InvalidArgument(
            "at most one '?' placeholder is supported per query");
      }
      out_->placeholder.emplace(PlaceholderRef{
          std::string((*from_)[entry].table), std::string(col.text), op});
      return Status::OK();
    }
    storage::CellValue& literal = AddPredicate(entry, col.text, op).literal;
    switch (other.kind) {
      case Operand::Kind::kInteger:
        literal = other.integer;
        break;
      case Operand::Kind::kFloat:
        literal = other.real;
        break;
      default: {
        std::string& s = literal.emplace<std::string>();
        for (size_t i = 0; i < other.text.size(); ++i) {
          s += other.text[i];
          if (other.text[i] == '\'') ++i;  // '' is one quote
        }
        break;
      }
    }
    return Status::OK();
  }

  size_t Root(size_t entry) const {
    while ((*from_)[entry].component != entry) {
      entry = (*from_)[entry].component;
    }
    return entry;
  }

  // The join graph must connect every FROM table (no cross products); the
  // first table outside the first table's component is named.
  Status CheckConnected() const {
    const size_t root = Root(0);
    for (size_t i = 1; i < from_->size(); ++i) {
      if (Root(i) != root) {
        return Status::InvalidArgument(
            "join graph is disconnected: table '" +
            std::string((*from_)[i].table) +
            "' is not joined (cross products are unsupported)");
      }
    }
    return Status::OK();
  }

  const std::string_view sql_;
  const storage::Catalog* const catalog_;
  BoundQuery* const out_;
  std::vector<FromEntry>* from_ = nullptr;
  Token token_;
  size_t pos_ = 0;  // input offset just past token_
  Status lex_error_;
  Status bind_error_;
};

}  // namespace

Result<ParsedQuery> Parse(std::string_view sql) {
  DS_RETURN_NOT_OK(Pass(sql, nullptr, nullptr).Run());
  return ParsedQuery{std::string(sql)};
}

Status Bind(const storage::Catalog& catalog, std::string_view sql,
            BoundQuery* out) {
  return Pass(sql, &catalog, out).Run();
}

Result<BoundQuery> Bind(const storage::Catalog& catalog,
                        const ParsedQuery& parsed) {
  BoundQuery out;
  DS_RETURN_NOT_OK(Bind(catalog, parsed.sql, &out));
  return out;
}

Result<workload::QuerySpec> ParseAndBind(const storage::Catalog& catalog,
                                         std::string_view sql) {
  BoundQuery bound;
  DS_RETURN_NOT_OK(Bind(catalog, sql, &bound));
  if (bound.placeholder.has_value()) {
    return Status::InvalidArgument(
        "query contains a '?' placeholder; use the template API");
  }
  return std::move(bound.spec);
}

}  // namespace ds::sql
