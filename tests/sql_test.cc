// Unit tests for the SQL front end: the one-pass lexer, parser and binder,
// and the golden corpus it must reproduce.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <string_view>

#include "ds/datagen/imdb.h"
#include "ds/sql/binder.h"
#include "ds/sql/parser.h"
#include "ds/util/alloc.h"
#include "ds/util/random.h"
#include "test_util.h"

namespace ds {
namespace {

using sql::Parse;
using workload::CompareOp;

// The lexer runs inside the one pass; these check its token rules through
// Parse and ParseAndBind.
TEST(LexerTest, BasicTokens) {
  EXPECT_TRUE(Parse("SELECT COUNT(*) FROM t;").ok());
  EXPECT_TRUE(Parse("select\tcount ( * )\r\nfrom t ;").ok());
  EXPECT_TRUE(Parse("SELECT COUNT(*) FROM t WHERE t.a=1 AND b<2.5 AND c>'x' "
                    "AND d = ?").ok());
}

TEST(LexerTest, NumbersAndStrings) {
  auto catalog = testutil::MakeTinyCatalog();
  auto spec = sql::ParseAndBind(
      *catalog,
      "SELECT COUNT(*) FROM movie WHERE year = 42 AND id > -7 AND "
      "genre_id < 3.5");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_EQ(spec->predicates.size(), 3u);
  EXPECT_EQ(std::get<int64_t>(spec->predicates[0].literal), 42);
  EXPECT_EQ(std::get<int64_t>(spec->predicates[1].literal), -7);
  EXPECT_DOUBLE_EQ(std::get<double>(spec->predicates[2].literal), 3.5);
  auto str = sql::ParseAndBind(
      *catalog, "SELECT COUNT(*) FROM genre WHERE name = 'it''s'");
  ASSERT_TRUE(str.ok()) << str.status().ToString();
  EXPECT_EQ(std::get<std::string>(str->predicates[0].literal), "it's");
}

TEST(LexerTest, Errors) {
  // A lexical error anywhere wins over the syntax error before it.
  EXPECT_EQ(Parse("'open").status().ToString(),
            "Parse error: unterminated string literal at offset 0");
  EXPECT_EQ(Parse("a @ b").status().ToString(),
            "Parse error: unexpected character '@' at offset 2");
}

TEST(ParserTest, FullQueryShape) {
  auto catalog = testutil::MakeTinyCatalog();
  const std::string text =
      "SELECT COUNT(*) FROM movie m, rating r "
      "WHERE r.movie_id = m.id AND m.year > 2000;";
  auto q = Parse(text);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->sql, text);
  auto bound = sql::Bind(*catalog, *q);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  EXPECT_EQ(bound->spec.tables, (std::vector<std::string>{"movie", "rating"}));
  ASSERT_EQ(bound->spec.joins.size(), 1u);
  ASSERT_EQ(bound->spec.predicates.size(), 1u);
  EXPECT_EQ(bound->spec.predicates[0].op, CompareOp::kGt);
}

TEST(ParserTest, AsAliasAndCaseInsensitivity) {
  auto catalog = testutil::MakeTinyCatalog();
  auto spec = sql::ParseAndBind(
      *catalog, "select count(*) from movie AS m where m.id = 3");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->tables, std::vector<std::string>{"movie"});
  EXPECT_EQ(spec->predicates[0].table, "movie");
}

TEST(ParserTest, PlaceholderParses) {
  auto q = Parse("SELECT COUNT(*) FROM movie WHERE year = ?");
  ASSERT_TRUE(q.ok());
  auto catalog = testutil::MakeTinyCatalog();
  auto bound = sql::Bind(*catalog, *q);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  EXPECT_TRUE(bound->placeholder.has_value());
}

TEST(ParserTest, RejectsMalformed) {
  EXPECT_FALSE(Parse("SELECT * FROM t").ok());
  EXPECT_FALSE(Parse("SELECT COUNT(*) WHERE x = 1").ok());
  EXPECT_FALSE(Parse("SELECT COUNT(*) FROM t WHERE").ok());
  EXPECT_FALSE(Parse("SELECT COUNT(*) FROM t WHERE a = 1 OR b = 2").ok());
  EXPECT_FALSE(Parse("SELECT COUNT(*) FROM t extra junk").ok());
  EXPECT_FALSE(Parse("").ok());
}

// Parser robustness: arbitrary near-SQL garbage must produce ParseError,
// never a crash.
class ParserFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserFuzzTest, GarbageNeverCrashes) {
  util::Pcg32 rng(GetParam());
  const std::string pieces[] = {
      "SELECT", "COUNT", "(", ")", "*", "FROM",  "WHERE", "AND",  "BETWEEN",
      ",",      ".",     "=", "<", ">", "movie", "year",  "2000", "'x'",
      "?",      ";",     "1.5", "AS"};
  for (int i = 0; i < 200; ++i) {
    std::string sql;
    const size_t len = 1 + rng.Bounded(24);
    for (size_t j = 0; j < len; ++j) {
      sql += pieces[rng.Bounded(sizeof(pieces) / sizeof(pieces[0]))];
      sql += ' ';
    }
    auto result = Parse(sql);  // must return, not crash
    (void)result;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest, ::testing::Values(1, 2, 3, 4));

class BinderTest : public ::testing::Test {
 protected:
  BinderTest() : catalog_(testutil::MakeTinyCatalog()) {}
  std::unique_ptr<storage::Catalog> catalog_;
};

TEST_F(BinderTest, ResolvesAliasesAndJoins) {
  auto spec = sql::ParseAndBind(
      *catalog_,
      "SELECT COUNT(*) FROM movie m, rating r "
      "WHERE r.movie_id = m.id AND m.year > 2004 AND r.score < 2.0");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->tables, (std::vector<std::string>{"movie", "rating"}));
  ASSERT_EQ(spec->joins.size(), 1u);
  EXPECT_EQ(spec->joins[0].left_table, "rating");
  ASSERT_EQ(spec->predicates.size(), 2u);
  EXPECT_EQ(spec->predicates[0].table, "movie");
}

TEST_F(BinderTest, ResolvesUnqualifiedUniqueColumns) {
  auto spec =
      sql::ParseAndBind(*catalog_, "SELECT COUNT(*) FROM movie WHERE year = 2003");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->predicates[0].column, "year");
}

TEST_F(BinderTest, AmbiguousUnqualifiedColumnRejected) {
  // Both movie and genre have "id".
  auto spec = sql::ParseAndBind(
      *catalog_,
      "SELECT COUNT(*) FROM movie m, genre g WHERE m.genre_id = g.id AND id = 3");
  EXPECT_FALSE(spec.ok());
}

TEST_F(BinderTest, NormalizesLiteralOpColumn) {
  auto spec = sql::ParseAndBind(*catalog_,
                                "SELECT COUNT(*) FROM movie WHERE 2004 < year");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->predicates[0].op, CompareOp::kGt);  // year > 2004
}

TEST_F(BinderTest, RejectsSemanticErrors) {
  // Unknown table.
  EXPECT_FALSE(sql::ParseAndBind(*catalog_, "SELECT COUNT(*) FROM nope").ok());
  // Unknown column.
  EXPECT_FALSE(
      sql::ParseAndBind(*catalog_, "SELECT COUNT(*) FROM movie WHERE zz = 1")
          .ok());
  // Self-join.
  EXPECT_FALSE(sql::ParseAndBind(*catalog_,
                                 "SELECT COUNT(*) FROM movie a, movie b "
                                 "WHERE a.id = b.id")
                   .ok());
  // Non-equality join.
  EXPECT_FALSE(sql::ParseAndBind(*catalog_,
                                 "SELECT COUNT(*) FROM movie m, rating r "
                                 "WHERE r.movie_id > m.id")
                   .ok());
  // Disconnected join graph (cross product).
  EXPECT_FALSE(
      sql::ParseAndBind(*catalog_, "SELECT COUNT(*) FROM movie, rating").ok());
  // Literal-only condition.
  EXPECT_FALSE(
      sql::ParseAndBind(*catalog_, "SELECT COUNT(*) FROM movie WHERE 1 = 1")
          .ok());
}

TEST_F(BinderTest, PlaceholderExtractedOnce) {
  auto parsed = Parse("SELECT COUNT(*) FROM movie WHERE year = ?");
  ASSERT_TRUE(parsed.ok());
  auto bound = sql::Bind(*catalog_, *parsed);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  ASSERT_TRUE(bound->placeholder.has_value());
  EXPECT_EQ(bound->placeholder->table, "movie");
  EXPECT_EQ(bound->placeholder->column, "year");
  EXPECT_TRUE(bound->spec.predicates.empty());

  auto two = Parse("SELECT COUNT(*) FROM movie WHERE year = ? AND genre_id = ?");
  ASSERT_TRUE(two.ok());
  EXPECT_FALSE(sql::Bind(*catalog_, *two).ok());

  // ParseAndBind refuses placeholders.
  EXPECT_FALSE(
      sql::ParseAndBind(*catalog_, "SELECT COUNT(*) FROM movie WHERE year = ?")
          .ok());
}

TEST_F(BinderTest, BetweenDesugarsToInclusiveRange) {
  auto spec = sql::ParseAndBind(
      *catalog_, "SELECT COUNT(*) FROM movie WHERE year BETWEEN 2003 AND 2005");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_EQ(spec->predicates.size(), 2u);
  EXPECT_EQ(spec->predicates[0].op, CompareOp::kGt);
  EXPECT_EQ(std::get<int64_t>(spec->predicates[0].literal), 2002);
  EXPECT_EQ(spec->predicates[1].op, CompareOp::kLt);
  EXPECT_EQ(std::get<int64_t>(spec->predicates[1].literal), 2006);
}

TEST_F(BinderTest, BetweenComposesWithOtherConjuncts) {
  auto spec = sql::ParseAndBind(*catalog_,
                                "SELECT COUNT(*) FROM movie m, rating r "
                                "WHERE r.movie_id = m.id "
                                "AND m.year BETWEEN 2001 AND 2008 "
                                "AND m.genre_id = 3");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->joins.size(), 1u);
  EXPECT_EQ(spec->predicates.size(), 3u);
}

TEST_F(BinderTest, BetweenRejectsNonIntegerBounds) {
  EXPECT_FALSE(sql::ParseAndBind(*catalog_,
                                 "SELECT COUNT(*) FROM rating "
                                 "WHERE score BETWEEN 1.5 AND 3.5")
                   .ok());
  EXPECT_FALSE(sql::ParseAndBind(*catalog_,
                                 "SELECT COUNT(*) FROM movie "
                                 "WHERE 3 BETWEEN 1 AND 5")
                   .ok());
  EXPECT_FALSE(sql::ParseAndBind(*catalog_,
                                 "SELECT COUNT(*) FROM movie "
                                 "WHERE year BETWEEN 2001")
                   .ok());
}

TEST_F(BinderTest, BetweenRejectsInt64LimitBounds) {
  // Regression: the desugared bounds are lo-1 / hi+1, which used to overflow
  // int64 (UB) for bounds at the type limits. Such bounds are now rejected,
  // and a bound beyond the limits does not parse.
  EXPECT_FALSE(sql::ParseAndBind(*catalog_,
                                 "SELECT COUNT(*) FROM movie WHERE year "
                                 "BETWEEN -9223372036854775808 AND 2005")
                   .ok());
  EXPECT_FALSE(sql::ParseAndBind(*catalog_,
                                 "SELECT COUNT(*) FROM movie WHERE year "
                                 "BETWEEN 2001 AND 9223372036854775807")
                   .ok());
  EXPECT_FALSE(sql::ParseAndBind(*catalog_,
                                 "SELECT COUNT(*) FROM movie WHERE year "
                                 "BETWEEN 2001 AND 99999999999999999999")
                   .ok());
  // One off the limit still desugars fine.
  auto spec = sql::ParseAndBind(*catalog_,
                                "SELECT COUNT(*) FROM movie WHERE year "
                                "BETWEEN -9223372036854775807 AND 2005");
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
}

TEST_F(BinderTest, OutOfRangeIntegerLiteralIsParseError) {
  // A literal outside int64 must not bind as the nearest limit, which is a
  // different predicate.
  auto over = sql::ParseAndBind(
      *catalog_, "SELECT COUNT(*) FROM movie WHERE year = 99999999999999999999");
  EXPECT_EQ(over.status().ToString(),
            "Parse error: integer literal out of range at offset 40");
  auto under = sql::ParseAndBind(
      *catalog_, "SELECT COUNT(*) FROM movie WHERE -9223372036854775809 < year");
  EXPECT_EQ(under.status().ToString(),
            "Parse error: integer literal out of range at offset 33");
  auto between = sql::ParseAndBind(*catalog_,
                                   "SELECT COUNT(*) FROM movie WHERE year "
                                   "BETWEEN 1990 AND 99999999999999999999");
  EXPECT_EQ(between.status().code(), StatusCode::kParseError);
  // The limits themselves, written exactly, still parse.
  auto limits = sql::ParseAndBind(
      *catalog_,
      "SELECT COUNT(*) FROM movie WHERE year < 9223372036854775807 AND "
      "id > -9223372036854775808");
  ASSERT_TRUE(limits.ok()) << limits.status().ToString();
  EXPECT_EQ(std::get<int64_t>(limits->predicates[0].literal),
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(std::get<int64_t>(limits->predicates[1].literal),
            std::numeric_limits<int64_t>::min());
}

TEST_F(BinderTest, WarmBindIntoScratchAllocatesNothing) {
  if (!util::AllocCountingAvailable()) {
    GTEST_SKIP() << "allocation counting disabled under sanitizers";
  }
  const char* const statements[] = {
      "SELECT COUNT(*) FROM movie WHERE year = 2003",
      "select count(*) from movie AS m, rating r WHERE r.movie_id = m.id "
      "AND 2.5 < r.score AND m.year BETWEEN 2001 AND 2008;",
      "SELECT COUNT(*) FROM movie m, rating r, genre g WHERE "
      "r.movie_id = m.id AND m.genre_id = g.id AND g.name = 'g''2' "
      "AND votes > 10",
      "SELECT COUNT(*) FROM rating WHERE movie_id = ?",
  };
  sql::BoundQuery scratch;
  for (const char* sql : statements) {
    ASSERT_TRUE(sql::Bind(*catalog_, sql, &scratch).ok()) << sql;
  }
  bool all_ok = true;
  const uint64_t before = util::AllocCount();
  for (int i = 0; i < 10; ++i) {
    for (const char* sql : statements) {
      all_ok = sql::Bind(*catalog_, sql, &scratch).ok() && all_ok;
    }
  }
  const uint64_t allocs = util::AllocCount() - before;
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(allocs, 0u) << "a warm bind into reused scratch must not allocate";
  // The scratch holds the last statement's binding, nothing left over.
  EXPECT_EQ(scratch, *sql::Bind(*catalog_, *Parse(statements[3])));
}

TEST_F(BinderTest, SqlRoundTripThroughSpec) {
  const std::string sql =
      "SELECT COUNT(*) FROM movie, rating "
      "WHERE rating.movie_id = movie.id AND movie.year = 2003;";
  auto spec = sql::ParseAndBind(*catalog_, sql);
  ASSERT_TRUE(spec.ok());
  // Re-parse the generated SQL; it must bind to an equivalent spec.
  auto spec2 = sql::ParseAndBind(*catalog_, spec->ToSql());
  ASSERT_TRUE(spec2.ok()) << spec2.status().ToString();
  EXPECT_EQ(spec->ToSql(), spec2->ToSql());
  EXPECT_EQ(spec->ToCompactString(), spec2->ToCompactString());
}

// ---- Golden corpus -----------------------------------------------------
//
// golden/sql_front_end.txt holds 750 statements — the ds_stress grammar's
// stream, the fuzz corpus, the inputs above and edge cases of the grammar
// and of the bind-error order — with what the front end answered for each
// before it became one pass (see the file's header). Every entry point must
// still answer exactly that.

std::string Unescape(std::string_view s) {
  std::string out;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 == s.size()) {
      out += s[i];
      continue;
    }
    switch (s[++i]) {
      case 't': out += '\t'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 'x':
        out += static_cast<char>(std::stoi(std::string(s.substr(i + 1, 2)),
                                           nullptr, 16));
        i += 2;
        break;
      default: out += s[i]; break;
    }
  }
  return out;
}

std::string Literal(const storage::CellValue& v) {
  if (const auto* i = std::get_if<int64_t>(&v)) return "i:" + std::to_string(*i);
  if (const auto* d = std::get_if<double>(&v)) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "d:%.17g", *d);
    return buf;
  }
  return "s:" + storage::CellValueToSql(v);
}

// The golden form of a bind result: the Status text, or the spec with typed
// full-precision literals and the placeholder.
std::string Describe(const Status& status, const sql::BoundQuery& bound) {
  if (!status.ok()) return "error " + status.ToString();
  const workload::QuerySpec& spec = bound.spec;
  std::string out = "spec ";
  for (size_t i = 0; i < spec.tables.size(); ++i) {
    out += (i > 0 ? "," : "") + spec.tables[i];
  }
  out += "|";
  for (size_t i = 0; i < spec.joins.size(); ++i) {
    out += (i > 0 ? "," : "") + spec.joins[i].ToString();
  }
  out += "|";
  for (size_t i = 0; i < spec.predicates.size(); ++i) {
    const workload::ColumnPredicate& p = spec.predicates[i];
    out += (i > 0 ? ";" : "") + p.table + "." + p.column +
           workload::CompareOpToString(p.op) + Literal(p.literal);
  }
  out += "|";
  if (bound.placeholder.has_value()) {
    out += bound.placeholder->table + "." + bound.placeholder->column +
           workload::CompareOpToString(bound.placeholder->op);
  } else {
    out += "-";
  }
  return out;
}

TEST(SqlGoldenTest, EveryEntryPointReplaysTheCorpus) {
  datagen::ImdbOptions options;
  options.num_titles = 500;  // the schema is what binding sees
  const auto imdb = datagen::GenerateImdb(options).value();
  const auto tiny = testutil::MakeTinyCatalog();
  std::ifstream in(DS_SQL_GOLDEN_FILE);
  ASSERT_TRUE(in.good()) << "cannot read " << DS_SQL_GOLDEN_FILE;
  sql::BoundQuery scratch;  // one target for every statement, as a worker's
  size_t replayed = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t tab1 = line.find('\t');
    const size_t tab2 = line.find('\t', tab1 + 1);
    ASSERT_NE(tab2, std::string::npos) << line;
    const storage::Catalog& catalog =
        line.compare(0, tab1, "tiny") == 0 ? *tiny : *imdb;
    const std::string sql = Unescape(line.substr(tab1 + 1, tab2 - tab1 - 1));
    const std::string expected = Unescape(line.substr(tab2 + 1));
    SCOPED_TRACE(line.substr(0, tab2));

    auto parsed = Parse(sql);
    Result<sql::BoundQuery> two_step =
        parsed.ok() ? sql::Bind(catalog, *parsed)
                    : Result<sql::BoundQuery>(parsed.status());
    EXPECT_EQ(two_step.ok() ? Describe(Status::OK(), *two_step)
                            : Describe(two_step.status(), {}),
              expected);

    const Status one_pass = sql::Bind(catalog, sql, &scratch);
    EXPECT_EQ(Describe(one_pass, scratch), expected);
    if (one_pass.ok()) {
      EXPECT_TRUE(scratch.spec.Validate(catalog).ok());
    }

    // ParseAndBind answers the same, except that it refuses placeholders.
    auto spec = sql::ParseAndBind(catalog, sql);
    std::string want = expected;
    if (one_pass.ok() && scratch.placeholder.has_value()) {
      want = "error Invalid argument: query contains a '?' placeholder; use "
             "the template API";
    }
    EXPECT_EQ(spec.ok() ? Describe(Status::OK(), {*spec, std::nullopt})
                        : Describe(spec.status(), {}),
              want);
    ++replayed;
  }
  EXPECT_GE(replayed, 500u);
}

}  // namespace
}  // namespace ds
