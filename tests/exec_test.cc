// Tests for the executor: hand-checked cases, a property sweep comparing the
// hash-join pipeline against brute-force enumeration on random queries, and
// a golden corpus of recorded counts replayed on one thread and on four.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <thread>

#include "ds/datagen/imdb.h"
#include "ds/exec/executor.h"
#include "ds/exec/predicate.h"
#include "ds/sql/binder.h"
#include "ds/util/random.h"
#include "ds/workload/io.h"
#include "test_util.h"

namespace ds {
namespace {

using exec::Executor;
using workload::ColumnPredicate;
using workload::CompareOp;
using workload::JoinEdge;
using workload::QuerySpec;

class ExecTest : public ::testing::Test {
 protected:
  ExecTest() : catalog_(testutil::MakeTinyCatalog()), executor_(catalog_.get()) {}

  uint64_t Count(const std::string& sql) {
    auto spec = sql::ParseAndBind(*catalog_, sql);
    DS_CHECK_OK(spec.status());
    auto n = executor_.Count(*spec);
    DS_CHECK_OK(n.status());
    return *n;
  }

  std::unique_ptr<storage::Catalog> catalog_;
  Executor executor_;
};

TEST_F(ExecTest, SingleTableNoPredicates) {
  EXPECT_EQ(Count("SELECT COUNT(*) FROM movie"), 40u);
  EXPECT_EQ(Count("SELECT COUNT(*) FROM genre"), 5u);
}

TEST_F(ExecTest, SingleTableEquality) {
  // year = 2000 + (id % 10); id 13 is NULL. year=2003 matches ids 3,13,23,33
  // minus the null id 13 => 3 rows.
  EXPECT_EQ(Count("SELECT COUNT(*) FROM movie WHERE year = 2003"), 3u);
}

TEST_F(ExecTest, SingleTableRange) {
  // year > 2007 matches id%10 in {8,9}: ids 8,9,18,19,28,29,38,39 => 8 rows.
  EXPECT_EQ(Count("SELECT COUNT(*) FROM movie WHERE year > 2007"), 8u);
  // NULL year never qualifies even for <.
  EXPECT_EQ(Count("SELECT COUNT(*) FROM movie WHERE year < 2100"), 39u);
}

TEST_F(ExecTest, FloatPredicate) {
  EXPECT_EQ(Count("SELECT COUNT(*) FROM rating WHERE score < 0.25"),
            testutil::BruteForceCount(
                *catalog_, *sql::ParseAndBind(
                               *catalog_,
                               "SELECT COUNT(*) FROM rating WHERE score < 0.25")));
}

TEST_F(ExecTest, CategoricalEquality) {
  EXPECT_EQ(Count("SELECT COUNT(*) FROM genre WHERE name = 'g3'"), 1u);
  // Unknown categorical literal: zero rows, not an error.
  EXPECT_EQ(Count("SELECT COUNT(*) FROM genre WHERE name = 'unknown'"), 0u);
}

TEST_F(ExecTest, PkFkJoinCountsMatchFanOut) {
  // Every movie m has m%3 ratings => total = sum over 1..40 of m%3 = 40
  // (13 full cycles of 1+2+0 plus 40%3 = 1).
  EXPECT_EQ(Count("SELECT COUNT(*) FROM movie m, rating r "
                  "WHERE r.movie_id = m.id"),
            40u);
}

TEST_F(ExecTest, ThreeWayJoin) {
  uint64_t got = Count(
      "SELECT COUNT(*) FROM movie m, rating r, genre g "
      "WHERE r.movie_id = m.id AND m.genre_id = g.id AND g.name = 'g2'");
  auto spec = sql::ParseAndBind(
      *catalog_,
      "SELECT COUNT(*) FROM movie m, rating r, genre g "
      "WHERE r.movie_id = m.id AND m.genre_id = g.id AND g.name = 'g2'");
  EXPECT_EQ(got, testutil::BruteForceCount(*catalog_, *spec));
  EXPECT_GT(got, 0u);
}

TEST_F(ExecTest, EmptyResult) {
  EXPECT_EQ(Count("SELECT COUNT(*) FROM movie WHERE year = 1800"), 0u);
  EXPECT_EQ(Count("SELECT COUNT(*) FROM movie m, rating r "
                  "WHERE r.movie_id = m.id AND m.year = 1800"),
            0u);
}

TEST_F(ExecTest, InvalidSpecRejected) {
  QuerySpec spec;
  spec.tables = {"movie", "rating"};  // no join => cross product
  EXPECT_FALSE(executor_.Count(spec).ok());
}

TEST_F(ExecTest, IntermediateGuardTrips) {
  exec::ExecutorOptions opts;
  opts.max_intermediate_tuples = 5;
  Executor small(catalog_.get(), opts);
  auto spec = sql::ParseAndBind(*catalog_,
                                "SELECT COUNT(*) FROM movie m, rating r "
                                "WHERE r.movie_id = m.id");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(small.Count(*spec).status().code(), StatusCode::kOutOfRange);
}

// ---- Property sweep: random queries vs brute force -------------------------

// The tiny catalog plus review(id 1..60, movie_id, genre_id, votes,
// critic_id) and critic(id 0..79). review's join columns hold NULLs and keys
// nothing else has, so edges on them join some rows to nothing:
//   movie_id  = 1 + (3 * id) % 45 (41..45 dangle), NULL when id % 7 == 0;
//   genre_id  = the movie's genre_id for even ids, 1 + id % 6 for odd ones
//               (6 dangles), NULL when id % 11 == 0;
//   votes     = the movie's rating.votes for even ids, id for odd ones, NULL
//               when id % 10 == 0;
//   critic_id = id % 10, NULL when id % 4 == 0.
// A NULL is stored as 0, and critic.id and critic_id hold a real 0: a NULL
// key that joined as its stored value would match them.
std::unique_ptr<storage::Catalog> MakeCatalogWithNullKeys() {
  auto catalog = testutil::MakeTinyCatalog();
  storage::Table* review = catalog->CreateTable("review").value();
  auto column = [&](storage::Table* t, const char* name) {
    return t->AddColumn(name, storage::ColumnType::kInt64).value();
  };
  storage::Column* id = column(review, "id");
  storage::Column* movie = column(review, "movie_id");
  storage::Column* genre = column(review, "genre_id");
  storage::Column* votes = column(review, "votes");
  storage::Column* critic = column(review, "critic_id");
  auto append = [](storage::Column* c, bool null, int64_t v) {
    if (null) {
      c->AppendNull();
    } else {
      c->AppendInt(v);
    }
  };
  for (int64_t i = 1; i <= 60; ++i) {
    const int64_t movie_id = 1 + (3 * i) % 45;
    const bool even = i % 2 == 0;
    id->AppendInt(i);
    append(movie, i % 7 == 0, movie_id);
    append(genre, i % 11 == 0, even ? 1 + movie_id % 5 : 1 + i % 6);
    append(votes, i % 10 == 0, even ? movie_id * 7 % 100 : i);
    append(critic, i % 4 == 0, i % 10);
  }
  storage::Column* critic_id = column(catalog->CreateTable("critic").value(), "id");
  for (int64_t i = 0; i < 80; ++i) critic_id->AppendInt(i);
  DS_CHECK_OK(catalog->SetPrimaryKey("review", "id"));
  DS_CHECK_OK(catalog->SetPrimaryKey("critic", "id"));
  DS_CHECK_OK(catalog->AddForeignKey("review", "movie_id", "movie", "id"));
  DS_CHECK_OK(catalog->AddForeignKey("review", "genre_id", "genre", "id"));
  DS_CHECK_OK(catalog->AddForeignKey("review", "critic_id", "critic", "id"));
  DS_CHECK_OK(catalog->Validate());
  return catalog;
}

struct Shape {
  std::vector<std::string> tables;
  std::vector<JoinEdge> joins;
};

const JoinEdge kMovieGenre{"movie", "genre_id", "genre", "id"};
const JoinEdge kRatingMovie{"rating", "movie_id", "movie", "id"};
const JoinEdge kReviewMovie{"review", "movie_id", "movie", "id"};
const JoinEdge kReviewGenre{"review", "genre_id", "genre", "id"};
const JoinEdge kReviewCritic{"review", "critic_id", "critic", "id"};

// Connected table subsets with their join edges. The later ones give a join
// step edges beyond its build edge (a second edge between one table pair, a
// cycle closed by an FK or by a non-FK equality), join on keys with NULLs,
// or join a table to itself.
const std::vector<Shape>& Shapes() {
  static const std::vector<Shape> shapes = {
      {{"movie"}, {}},
      {{"genre"}, {}},
      {{"rating"}, {}},
      {{"movie", "genre"}, {kMovieGenre}},
      {{"movie", "rating"}, {kRatingMovie}},
      {{"movie", "genre", "rating"}, {kMovieGenre, kRatingMovie}},
      // NULL and dangling join keys.
      {{"review", "movie"}, {kReviewMovie}},
      {{"genre", "review"}, {kReviewGenre}},
      {{"review", "movie", "rating"}, {kReviewMovie, kRatingMovie}},
      {{"review", "critic"}, {kReviewCritic}},
      {{"critic", "review", "movie"}, {kReviewCritic, kReviewMovie}},
      // Two edges between one pair of tables: a second column pair (twice),
      // and the same edge again with its sides swapped.
      {{"movie", "review"},
       {kReviewMovie, JoinEdge{"movie", "genre_id", "review", "genre_id"}}},
      {{"rating", "movie"},
       {kRatingMovie, JoinEdge{"movie", "id", "rating", "movie_id"}}},
      {{"review", "critic"},
       {kReviewCritic, JoinEdge{"critic", "id", "review", "votes"}}},
      // Triangles: closed by an FK, and by non-FK equalities.
      {{"movie", "genre", "review"}, {kMovieGenre, kReviewMovie, kReviewGenre}},
      {{"movie", "genre", "rating"},
       {kMovieGenre, kRatingMovie, JoinEdge{"rating", "votes", "genre", "id"}}},
      {{"rating", "review", "movie"},
       {kRatingMovie, kReviewMovie,
        JoinEdge{"review", "votes", "rating", "votes"}}},
      // A triangle inside a four-table join. From genre, the table with the
      // fewest rows unless predicates filter another below it, review joins
      // first and movie closes the triangle on the second step, which
      // materializes tuples; rating joins last.
      {{"genre", "movie", "rating", "review"},
       {kReviewGenre, kMovieGenre, kReviewMovie, kRatingMovie}},
      // An edge within one table filters its rows.
      {{"review"}, {JoinEdge{"review", "votes", "review", "id"}}},
      {{"review", "movie"},
       {kReviewMovie, JoinEdge{"review", "critic_id", "review", "votes"}}},
  };
  return shapes;
}

// A random valid query over MakeCatalogWithNullKeys: one of Shapes() plus
// 0-3 random predicates.
QuerySpec RandomSpec(util::Pcg32* rng) {
  const Shape& shape =
      Shapes()[rng->Bounded(static_cast<uint32_t>(Shapes().size()))];
  QuerySpec spec;
  spec.tables = shape.tables;
  spec.joins = shape.joins;
  auto add_pred = [&](const std::string& table, const std::string& column,
                      storage::CellValue literal) {
    ColumnPredicate p;
    p.table = table;
    p.column = column;
    p.op = static_cast<CompareOp>(rng->Bounded(3));
    p.literal = std::move(literal);
    spec.predicates.push_back(std::move(p));
  };
  uint32_t num_preds = rng->Bounded(4);
  for (uint32_t i = 0; i < num_preds; ++i) {
    const std::string& t = spec.tables[rng->Bounded(
        static_cast<uint32_t>(spec.tables.size()))];
    if (t == "movie") {
      if (rng->Chance(0.5)) {
        add_pred("movie", "year", int64_t{2000 + rng->UniformInt(0, 9)});
      } else {
        add_pred("movie", "genre_id", rng->UniformInt(1, 5));
      }
    } else if (t == "genre") {
      add_pred("genre", "name",
               std::string("g") + std::to_string(rng->UniformInt(1, 6)));
    } else if (t == "rating") {
      if (rng->Chance(0.5)) {
        add_pred("rating", "score", rng->UniformDouble(0.0, 5.0));
      } else {
        add_pred("rating", "votes", rng->UniformInt(0, 99));
      }
    } else if (t == "review") {
      if (rng->Chance(0.5)) {
        add_pred("review", "votes", rng->UniformInt(0, 99));
      } else {
        add_pred("review", "movie_id", rng->UniformInt(1, 45));
      }
    } else {
      add_pred("critic", "id", rng->UniformInt(0, 79));
    }
  }
  return spec;
}

TEST(ExecShapeTest, EveryShapeIsValidAndTheEdgeCasesMatchRows) {
  auto catalog = MakeCatalogWithNullKeys();
  Executor executor(catalog.get());
  for (const Shape& shape : Shapes()) {
    QuerySpec spec;
    spec.tables = shape.tables;
    spec.joins = shape.joins;
    SCOPED_TRACE(spec.ToCompactString());
    ASSERT_TRUE(spec.Validate(*catalog).ok());
    auto got = executor.Count(spec);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const uint64_t expected = testutil::BruteForceCount(*catalog, spec);
    EXPECT_EQ(*got, expected);
    // Without predicates the data leaves every shape some result, except
    // the triangle closed by rating.votes = genre.id: no movie's ratings
    // carry its own genre id as votes.
    const bool votes_genre = !spec.joins.empty() &&
                             spec.joins.back().ToString() == "rating.votes=genre.id";
    EXPECT_EQ(expected == 0, votes_genre);
  }
}

class ExecPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecPropertyTest, MatchesBruteForce) {
  auto catalog = MakeCatalogWithNullKeys();
  Executor executor(catalog.get());
  util::Pcg32 rng(GetParam());
  for (int i = 0; i < 60; ++i) {
    QuerySpec spec = RandomSpec(&rng);
    // "g6" does not exist in the genre dictionary; executor must return 0
    // for those rather than erroring, same as brute force which can't
    // match it either. BindPredicates handles this via never_matches.
    auto got = executor.Count(spec);
    ASSERT_TRUE(got.ok()) << got.status().ToString() << " for "
                          << spec.ToCompactString();
    uint64_t expected = testutil::BruteForceCount(*catalog, spec);
    EXPECT_EQ(*got, expected) << spec.ToCompactString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 11, 17, 23));

// ---- Golden counts ----------------------------------------------------------
//
// golden/exec_counts.txt holds 500 generated IMDb queries with the counts an
// earlier executor gave them (see the file's header). Every count must still
// come out the same, on one thread and on several at once.

class ExecGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::ImdbOptions options;
    options.num_titles = 2000;
    catalog_ = datagen::GenerateImdb(options).value();
    std::ifstream in(DS_EXEC_GOLDEN_FILE);
    ASSERT_TRUE(in.good()) << "cannot read " << DS_EXEC_GOLDEN_FILE;
    std::stringstream text;
    text << in.rdbuf();
    auto parsed = workload::ParseWorkloadText(text.str());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    golden_ = std::move(*parsed);
  }

  std::unique_ptr<storage::Catalog> catalog_;
  std::vector<workload::LabeledQuery> golden_;
};

TEST_F(ExecGoldenTest, EveryCountMatchesTheRecording) {
  Executor executor(catalog_.get());
  size_t max_tables = 0;
  for (const auto& lq : golden_) {
    auto got = executor.Count(lq.spec);
    ASSERT_TRUE(got.ok()) << got.status().ToString() << " for "
                          << lq.spec.ToCompactString();
    EXPECT_EQ(*got, lq.cardinality) << lq.spec.ToCompactString();
    max_tables = std::max(max_tables, lq.spec.tables.size());
  }
  EXPECT_EQ(golden_.size(), 500u);
  EXPECT_EQ(max_tables, 5u);
}

// Count keeps its hash tables and tuples in per-thread scratch: four threads
// counting the same specs at once, each starting at a different spec so the
// scratch they reuse differs, must agree with the counts of one thread.
TEST_F(ExecGoldenTest, FourThreadsCountLikeOne) {
  Executor executor(catalog_.get());
  std::vector<uint64_t> one_thread;
  for (const auto& lq : golden_) one_thread.push_back(executor.Count(lq.spec).value());
  constexpr size_t kThreads = 4;
  std::vector<std::vector<uint64_t>> counts(
      kThreads, std::vector<uint64_t>(golden_.size(), 0));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const size_t n = golden_.size();
      for (size_t k = 0; k < n; ++k) {
        const size_t i = (k + t * n / kThreads) % n;
        auto got = executor.Count(golden_[i].spec);
        counts[t][i] = got.ok() ? *got : UINT64_MAX;
      }
    });
  }
  for (auto& th : threads) th.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(counts[t], one_thread) << "thread " << t;
  }
}

}  // namespace
}  // namespace ds
