// Tests for the Deep Sketch public API: end-to-end training, SQL
// estimation, persistence, templates, and the sketch manager.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <span>
#include <thread>

#include <unistd.h>

#include "ds/est/truth.h"
#include "ds/sketch/deep_sketch.h"
#include "ds/sketch/manager.h"
#include "ds/sketch/template.h"
#include "ds/util/alloc.h"
#include "ds/util/stats.h"
#include "test_util.h"

namespace ds {
namespace {

using sketch::DeepSketch;
using sketch::SketchConfig;
using sketch::TemplateOptions;

// One small sketch shared by the whole suite (training is the slow part).
class SketchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = testutil::MakeTinyCatalog().release();
    SketchConfig config;
    config.num_samples = 16;
    config.num_training_queries = 400;
    config.num_epochs = 20;
    config.hidden_units = 16;
    config.batch_size = 32;
    config.max_tables_per_query = 3;
    config.seed = 31;
    sketch_ = new DeepSketch(DeepSketch::Train(*catalog_, config).value());
    // The ablation without sample bitmaps, for the batch/single parity
    // tests (its accuracy is irrelevant there).
    config.use_sample_bitmaps = false;
    config.num_epochs = 4;
    no_bitmaps_ = new DeepSketch(DeepSketch::Train(*catalog_, config).value());
  }

  static void TearDownTestSuite() {
    delete no_bitmaps_;
    delete sketch_;
    delete catalog_;
    no_bitmaps_ = nullptr;
    sketch_ = nullptr;
    catalog_ = nullptr;
  }

  static storage::Catalog* catalog_;
  static DeepSketch* sketch_;
  static DeepSketch* no_bitmaps_;
};

storage::Catalog* SketchTest::catalog_ = nullptr;
DeepSketch* SketchTest::sketch_ = nullptr;
DeepSketch* SketchTest::no_bitmaps_ = nullptr;

TEST_F(SketchTest, EstimatesAreFiniteAndPositive) {
  const char* sqls[] = {
      "SELECT COUNT(*) FROM movie",
      "SELECT COUNT(*) FROM movie WHERE year = 2003",
      "SELECT COUNT(*) FROM movie m, rating r WHERE r.movie_id = m.id",
      "SELECT COUNT(*) FROM movie m, rating r, genre g "
      "WHERE r.movie_id = m.id AND m.genre_id = g.id AND g.name = 'g2'",
  };
  for (const char* sql : sqls) {
    auto est = sketch_->EstimateSql(sql);
    ASSERT_TRUE(est.ok()) << sql << ": " << est.status().ToString();
    EXPECT_GE(*est, 1.0) << sql;
    EXPECT_LT(*est, 1e7) << sql;
  }
}

TEST_F(SketchTest, LearnsTheTinyDistribution) {
  // Aggregate accuracy on in-distribution queries: mean q-error clearly
  // better than a constant guess.
  est::TrueCardinality truth(catalog_);
  const char* sqls[] = {
      "SELECT COUNT(*) FROM movie",
      "SELECT COUNT(*) FROM rating",
      "SELECT COUNT(*) FROM movie WHERE year > 2004",
      "SELECT COUNT(*) FROM movie m, rating r WHERE r.movie_id = m.id",
      "SELECT COUNT(*) FROM movie WHERE genre_id = 2",
      "SELECT COUNT(*) FROM rating WHERE votes > 50",
  };
  std::vector<double> q;
  for (const char* sql : sqls) {
    auto spec = sql::ParseAndBind(*catalog_, sql).value();
    double t = truth.EstimateCardinality(spec).value();
    double e = sketch_->EstimateSql(sql).value();
    q.push_back(util::QError(t, e));
  }
  EXPECT_LT(util::Mean(q), 4.0);
}

TEST_F(SketchTest, UnknownCategoricalStringEstimatesMinimum) {
  auto est = sketch_->EstimateSql(
      "SELECT COUNT(*) FROM genre WHERE name = 'definitely-not-a-genre'");
  ASSERT_TRUE(est.ok());
  EXPECT_DOUBLE_EQ(*est, 1.0);
}

TEST_F(SketchTest, RejectsUnparseableAndUnboundSql) {
  EXPECT_FALSE(sketch_->EstimateSql("SELECT * FROM movie").ok());
  EXPECT_FALSE(sketch_->EstimateSql("SELECT COUNT(*) FROM nope").ok());
  EXPECT_FALSE(
      sketch_->EstimateSql("SELECT COUNT(*) FROM movie WHERE year = ?").ok());
}

TEST_F(SketchTest, EstimatorInterface) {
  EXPECT_EQ(sketch_->name(), "Deep Sketch");
  auto spec = sql::ParseAndBind(*catalog_, "SELECT COUNT(*) FROM movie").value();
  EXPECT_TRUE(sketch_->EstimateCardinality(spec).ok());
}

TEST_F(SketchTest, SaveLoadPreservesEstimates) {
  std::string path = testing::TempDir() + "/ds_sketch_test.sketch";
  ASSERT_TRUE(sketch_->Save(path).ok());
  auto loaded = DeepSketch::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const char* sqls[] = {
      "SELECT COUNT(*) FROM movie WHERE year = 2003",
      "SELECT COUNT(*) FROM movie m, rating r WHERE r.movie_id = m.id "
      "AND r.score < 2.5",
      "SELECT COUNT(*) FROM genre WHERE name = 'g4'",
  };
  for (const char* sql : sqls) {
    EXPECT_DOUBLE_EQ(sketch_->EstimateSql(sql).value(),
                     loaded->EstimateSql(sql).value())
        << sql;
  }
  EXPECT_EQ(loaded->tables().size(), 3u);
  EXPECT_EQ(loaded->SerializedSize(), sketch_->SerializedSize());
  std::remove(path.c_str());
}

TEST_F(SketchTest, LoadRejectsCorruptFiles) {
  std::string path = testing::TempDir() + "/ds_corrupt.sketch";
  util::BinaryWriter w;
  w.WriteU32(0x12345678);
  ASSERT_TRUE(w.WriteToFile(path).ok());
  EXPECT_FALSE(DeepSketch::Load(path).ok());
  // Truncated real sketch.
  util::BinaryWriter full;
  sketch_->Write(&full);
  std::vector<uint8_t> cut(full.buffer().begin(),
                           full.buffer().begin() + full.size() / 2);
  util::BinaryReader r(std::move(cut));
  EXPECT_FALSE(DeepSketch::Read(&r).ok());
  std::remove(path.c_str());
}

TEST_F(SketchTest, SerializedSizeDominatedBySamples) {
  // The footprint claim (§1): samples dominate, the model is small.
  size_t total = sketch_->SerializedSize();
  EXPECT_GT(total, 1000u);
  EXPECT_LT(total, 10u * 1024 * 1024);
}

TEST_F(SketchTest, TrainRejectsBadConfig) {
  SketchConfig config;
  config.num_training_queries = 0;
  EXPECT_FALSE(DeepSketch::Train(*catalog_, config).ok());
  SketchConfig bad_table;
  bad_table.tables = {"nope"};
  bad_table.num_training_queries = 10;
  EXPECT_FALSE(DeepSketch::Train(*catalog_, bad_table).ok());
}

TEST_F(SketchTest, EstimateManyMatchesSingleEstimates) {
  std::vector<workload::QuerySpec> specs;
  for (const char* sql :
       {"SELECT COUNT(*) FROM movie WHERE year = 2003",
        "SELECT COUNT(*) FROM movie m, rating r WHERE r.movie_id = m.id",
        "SELECT COUNT(*) FROM genre WHERE name = 'g1'"}) {
    specs.push_back(sql::ParseAndBind(*catalog_, sql).value());
  }
  // One spec with an unknown literal lands the minimum estimate.
  auto unknown = sql::ParseAndBind(
      *catalog_, "SELECT COUNT(*) FROM genre WHERE name = 'zzz'").value();
  specs.push_back(unknown);

  auto batch = sketch_->EstimateMany(specs);
  ASSERT_EQ(batch.size(), specs.size());
  for (size_t i = 0; i + 1 < specs.size(); ++i) {
    ASSERT_TRUE(batch[i].ok()) << batch[i].status().ToString();
    // Pooling is padding-invariant and the kernels are bit-exact, so a
    // batch returns exactly the single estimate's bits.
    EXPECT_EQ(*batch[i], sketch_->EstimateCardinality(specs[i]).value()) << i;
  }
  ASSERT_TRUE(batch.back().ok());
  EXPECT_DOUBLE_EQ(*batch.back(), 1.0);
}

TEST_F(SketchTest, EstimateManyBadSpecFailsOnlyItsSlot) {
  std::vector<workload::QuerySpec> specs;
  specs.push_back(sql::ParseAndBind(
      *catalog_, "SELECT COUNT(*) FROM movie WHERE year = 2003").value());
  // A string literal on a numeric column cannot featurize; it must fail its
  // own slot without poisoning the healthy queries next to it.
  workload::QuerySpec bogus;
  bogus.tables = {"movie"};
  bogus.predicates.push_back(
      {"movie", "year", workload::CompareOp::kEq, std::string("oops")});
  specs.push_back(bogus);
  specs.push_back(sql::ParseAndBind(
      *catalog_, "SELECT COUNT(*) FROM genre WHERE name = 'g1'").value());
  // A table outside the sketch is an error, not the unknown-literal
  // minimum, in a batch and alone alike.
  workload::QuerySpec foreign;
  foreign.tables = {"nope"};
  specs.push_back(foreign);

  auto batch = sketch_->EstimateMany(specs);
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_TRUE(batch[0].ok());
  EXPECT_FALSE(batch[1].ok());
  EXPECT_TRUE(batch[2].ok());
  EXPECT_FALSE(batch[3].ok());
  EXPECT_NEAR(*batch[0],
              sketch_->EstimateCardinality(specs[0]).value(), 1e-6);
  EXPECT_NEAR(*batch[2],
              sketch_->EstimateCardinality(specs[2]).value(), 1e-6);
  EXPECT_FALSE(sketch_->EstimateCardinality(specs[1]).ok());
  EXPECT_FALSE(sketch_->EstimateCardinality(foreign).ok());
}

TEST_F(SketchTest, EstimateManyEmptyInput) {
  EXPECT_TRUE(sketch_->EstimateMany({}).empty());
}

TEST_F(SketchTest, WarmEstimateSqlAllocatesNothing) {
  if (!util::AllocCountingAvailable()) {
    GTEST_SKIP() << "allocation counting disabled under sanitizers";
  }
  const std::vector<std::string> sqls = {
      "SELECT COUNT(*) FROM movie WHERE year = 2003",
      "SELECT COUNT(*) FROM movie m, rating r WHERE r.movie_id = m.id "
      "AND r.score < 2.5 AND m.year > 2001",
      "SELECT COUNT(*) FROM movie m, genre g WHERE m.genre_id = g.id "
      "AND g.name = 'g4'",
  };
  for (const std::string& sql : sqls) {
    ASSERT_TRUE(sketch_->EstimateSql(sql).ok()) << sql;  // warm the scratch
  }
  const uint64_t before = util::AllocCount();
  for (int round = 0; round < 5; ++round) {
    for (const std::string& sql : sqls) {
      EXPECT_TRUE(sketch_->EstimateSql(sql).ok());
    }
  }
  EXPECT_EQ(util::AllocCount() - before, 0u)
      << "a warm EstimateSql must not allocate";
}

// Resident bytes of this process (second field of /proc/self/statm); 0
// where it cannot be read.
size_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  size_t size_pages = 0;
  size_t resident_pages = 0;
  if (!(statm >> size_pages >> resident_pages)) return 0;
  return resident_pages * static_cast<size_t>(sysconf(_SC_PAGESIZE));
}

TEST_F(SketchTest, FreshThreadEstimateKeepsResidentSetSmall) {
  if (!util::AllocCountingAvailable()) {
    GTEST_SKIP() << "sanitizer runtimes own the allocator and shadow memory";
  }
  const workload::QuerySpec spec =
      sql::ParseAndBind(*catalog_,
                        "SELECT COUNT(*) FROM movie m, rating r "
                        "WHERE r.movie_id = m.id AND m.year > 2001")
          .value();
  size_t before = 0;
  size_t after = 0;
  bool ok = false;
  // A thread's first estimate sets up its whole estimation scratch; for
  // one small query that is kilobytes, not a prefaulted chunk.
  std::thread([&] {
    before = ResidentBytes();
    ok = sketch_->EstimateCardinality(spec).ok();
    after = ResidentBytes();
  }).join();
  ASSERT_TRUE(ok);
  if (before == 0) GTEST_SKIP() << "/proc/self/statm unreadable";
  const size_t grew = after > before ? after - before : 0;
  EXPECT_LT(grew, size_t{2} << 20)
      << "one estimate on a fresh thread grew the resident set by " << grew
      << " bytes";
}

// ---- Templates --------------------------------------------------------------

int64_t YearOf(const sketch::TemplateInstance& inst) {
  return std::get<int64_t>(inst.spec.predicates[0].literal);
}

TEST_F(SketchTest, DistinctTemplateInstantiation) {
  auto bound = sketch_->BindSql(
      "SELECT COUNT(*) FROM movie m, rating r "
      "WHERE r.movie_id = m.id AND m.year = ?");
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  auto instances =
      sketch::InstantiateTemplate(*bound, sketch_->samples()).value();
  ASSERT_GE(instances.size(), 3u);
  ASSERT_LE(instances.size(), 10u);  // at most 10 distinct years
  for (const auto& inst : instances) {
    // Each instance is a complete query with the placeholder filled.
    EXPECT_EQ(inst.spec.predicates.size(), 1u);
    EXPECT_EQ(inst.spec.predicates[0].column, "year");
    EXPECT_FALSE(inst.label.empty());
    EXPECT_TRUE(sketch_->EstimateCardinality(inst.spec).ok());
  }
  // Values ascend (sorted domain).
  EXPECT_LT(YearOf(instances.front()), YearOf(instances.back()));
}

TEST_F(SketchTest, TemplateMaxInstancesCap) {
  auto bound = sketch_->BindSql("SELECT COUNT(*) FROM movie WHERE year = ?");
  ASSERT_TRUE(bound.ok());
  TemplateOptions opts;
  opts.max_instances = 3;
  auto instances =
      sketch::InstantiateTemplate(*bound, sketch_->samples(), opts).value();
  EXPECT_LE(instances.size(), 3u);
}

TEST_F(SketchTest, BucketTemplateInstantiation) {
  auto bound = sketch_->BindSql("SELECT COUNT(*) FROM rating WHERE votes = ?");
  ASSERT_TRUE(bound.ok());
  TemplateOptions opts;
  opts.grouping = TemplateOptions::Grouping::kBuckets;
  opts.num_buckets = 4;
  auto instances =
      sketch::InstantiateTemplate(*bound, sketch_->samples(), opts).value();
  ASSERT_GE(instances.size(), 2u);
  for (const auto& inst : instances) {
    // Bucket instances are two-sided ranges.
    ASSERT_EQ(inst.spec.predicates.size(), 2u);
    EXPECT_EQ(inst.spec.predicates[0].op, workload::CompareOp::kGt);
    EXPECT_EQ(inst.spec.predicates[1].op, workload::CompareOp::kLt);
  }
}

// Reference expansion over a std::set of the sampled values: the values,
// their order, the specs and the labels InstantiateTemplate must produce.
std::vector<sketch::TemplateInstance> SetReferenceInstances(
    const sql::BoundQuery& bound, const est::SampleSet& samples,
    const TemplateOptions& options) {
  const sql::PlaceholderRef& ph = *bound.placeholder;
  const storage::Column* col =
      samples.Get(ph.table).value()->rows->GetColumn(ph.column).value();
  auto label = [&](double v) -> std::string {
    if (col->type() == storage::ColumnType::kCategorical) {
      return col->dict()->Decode(static_cast<int64_t>(v));
    }
    if (col->type() == storage::ColumnType::kInt64) {
      return std::to_string(static_cast<int64_t>(v));
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
  };
  auto literal = [&](double v) -> storage::CellValue {
    switch (col->type()) {
      case storage::ColumnType::kInt64:
        return static_cast<int64_t>(v);
      case storage::ColumnType::kFloat64:
        return v;
      case storage::ColumnType::kCategorical:
        return col->dict()->Decode(static_cast<int64_t>(v));
    }
    return int64_t{0};
  };
  std::set<double> distinct;
  for (size_t r = 0; r < col->size(); ++r) {
    if (!col->IsNull(r)) distinct.insert(col->GetNumeric(r));
  }
  const std::vector<double> values(distinct.begin(), distinct.end());
  std::vector<sketch::TemplateInstance> out;
  if (options.grouping == TemplateOptions::Grouping::kDistinct) {
    std::vector<double> chosen;
    if (options.max_instances <= 1) {
      chosen.push_back(values[values.size() / 2]);
    } else if (values.size() <= options.max_instances) {
      chosen = values;
    } else {
      for (size_t i = 0; i < options.max_instances; ++i) {
        chosen.push_back(
            values[i * (values.size() - 1) / (options.max_instances - 1)]);
      }
      chosen.erase(std::unique(chosen.begin(), chosen.end()), chosen.end());
    }
    for (double v : chosen) {
      sketch::TemplateInstance inst{label(v), bound.spec};
      inst.spec.predicates.push_back({ph.table, ph.column, ph.op, literal(v)});
      out.push_back(std::move(inst));
    }
    return out;
  }
  const size_t buckets =
      std::max<size_t>(1, std::min(options.num_buckets, values.size()));
  for (size_t b = 0; b < buckets; ++b) {
    const size_t begin = b * values.size() / buckets;
    const size_t end = (b + 1) * values.size() / buckets;
    if (begin >= end) continue;
    const double first = values[begin], last = values[end - 1];
    double lo = first - 1, hi = last + 1;
    if (col->type() == storage::ColumnType::kFloat64) {
      const double nudge =
          1e-9 * std::max(1.0, std::abs(last) + std::abs(first));
      lo = first - nudge;
      hi = last + nudge;
    }
    sketch::TemplateInstance inst{
        "[" + label(first) + " .. " + label(last) + "]", bound.spec};
    inst.spec.predicates.push_back(
        {ph.table, ph.column, workload::CompareOp::kGt, literal(lo)});
    inst.spec.predicates.push_back(
        {ph.table, ph.column, workload::CompareOp::kLt, literal(hi)});
    out.push_back(std::move(inst));
  }
  return out;
}

TEST_F(SketchTest, TemplateExpansionMatchesSetReference) {
  // Columns whose samples repeat values (year, votes, score) or are
  // categorical (name); caps below, at and above the distinct count.
  struct Case {
    const char* sql;
    TemplateOptions::Grouping grouping;
  };
  const Case cases[] = {
      {"SELECT COUNT(*) FROM movie WHERE year = ?",
       TemplateOptions::Grouping::kDistinct},
      {"SELECT COUNT(*) FROM movie m, rating r WHERE r.movie_id = m.id "
       "AND r.votes < ?",
       TemplateOptions::Grouping::kDistinct},
      {"SELECT COUNT(*) FROM rating WHERE score > ?",
       TemplateOptions::Grouping::kDistinct},
      {"SELECT COUNT(*) FROM genre WHERE name = ?",
       TemplateOptions::Grouping::kDistinct},
      {"SELECT COUNT(*) FROM movie WHERE genre_id = 2 AND year = ?",
       TemplateOptions::Grouping::kBuckets},
      {"SELECT COUNT(*) FROM rating WHERE score = ?",
       TemplateOptions::Grouping::kBuckets},
  };
  size_t repeated = 0;
  for (const Case& c : cases) {
    const sql::BoundQuery bound = sketch_->BindSql(c.sql).value();
    const auto& ph = *bound.placeholder;
    const storage::Column* col = sketch_->samples()
                                     .Get(ph.table)
                                     .value()
                                     ->rows->GetColumn(ph.column)
                                     .value();
    std::set<double> distinct;
    size_t non_null = 0;
    for (size_t r = 0; r < col->size(); ++r) {
      if (!col->IsNull(r)) {
        distinct.insert(col->GetNumeric(r));
        ++non_null;
      }
    }
    repeated += non_null > distinct.size();
    for (size_t cap : {size_t{0}, size_t{1}, size_t{3}, size_t{5}, size_t{64}}) {
      TemplateOptions opts;
      opts.grouping = c.grouping;
      opts.max_instances = cap;
      opts.num_buckets = cap;
      const auto got =
          sketch::InstantiateTemplate(bound, sketch_->samples(), opts).value();
      const auto want = SetReferenceInstances(bound, sketch_->samples(), opts);
      ASSERT_EQ(got.size(), want.size()) << c.sql << " cap " << cap;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].label, want[i].label) << c.sql << " cap " << cap;
        EXPECT_EQ(got[i].spec, want[i].spec) << c.sql << " cap " << cap;
      }
    }
  }
  EXPECT_GE(repeated, 3u) << "the cases must cover repeated sampled values";
}

// ---- Template batches: neighbour featurization ------------------------------

// Every slot of a batched EstimateManyInto holds the bits (or the error) of
// the one-element EstimateManyInto of its spec — the per-query reference.
void ExpectBatchMatchesSingles(const DeepSketch& sk,
                               const std::vector<workload::QuerySpec>& specs) {
  std::vector<Result<double>> batch, one;
  sk.EstimateManyInto(specs, &batch);
  ASSERT_EQ(batch.size(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    sk.EstimateManyInto(std::span(&specs[i], 1), &one);
    ASSERT_EQ(batch[i].ok(), one[0].ok()) << specs[i].ToCompactString();
    if (batch[i].ok()) {
      EXPECT_EQ(std::bit_cast<uint64_t>(*batch[i]),
                std::bit_cast<uint64_t>(*one[0]))
          << i << ": " << specs[i].ToCompactString();
    } else {
      EXPECT_EQ(batch[i].status().ToString(), one[0].status().ToString());
    }
  }
}

// Instances of templates over the tiny catalog: distinct and bucket
// grouping, a categorical placeholder, placeholders on a joined table, and
// a placeholder table with two other predicates.
std::vector<std::vector<workload::QuerySpec>> TemplateBatches(
    const DeepSketch& sk) {
  struct Case {
    const char* sql;
    TemplateOptions::Grouping grouping;
  };
  const Case cases[] = {
      {"SELECT COUNT(*) FROM movie WHERE year = ?",
       TemplateOptions::Grouping::kDistinct},
      {"SELECT COUNT(*) FROM movie m, genre g WHERE m.genre_id = g.id "
       "AND m.year > 2002 AND g.name = ?",
       TemplateOptions::Grouping::kDistinct},
      {"SELECT COUNT(*) FROM movie m, rating r WHERE r.movie_id = m.id "
       "AND m.year < 2008 AND r.votes < ?",
       TemplateOptions::Grouping::kDistinct},
      {"SELECT COUNT(*) FROM movie m, rating r WHERE r.movie_id = m.id "
       "AND r.score > 0.5 AND r.votes < 90 AND r.votes > ?",
       TemplateOptions::Grouping::kDistinct},
      {"SELECT COUNT(*) FROM rating WHERE votes = ?",
       TemplateOptions::Grouping::kBuckets},
      {"SELECT COUNT(*) FROM movie m, rating r WHERE r.movie_id = m.id "
       "AND m.genre_id = 3 AND r.score > 0.5 AND r.votes < 95 "
       "AND r.score = ?",
       TemplateOptions::Grouping::kBuckets},
  };
  std::vector<std::vector<workload::QuerySpec>> batches;
  for (const Case& c : cases) {
    TemplateOptions opts;
    opts.grouping = c.grouping;
    opts.num_buckets = 5;
    auto instances = sketch::InstantiateTemplate(sk.BindSql(c.sql).value(),
                                                 sk.samples(), opts)
                         .value();
    std::vector<workload::QuerySpec> specs;
    for (auto& inst : instances) specs.push_back(std::move(inst.spec));
    EXPECT_GE(specs.size(), 3u) << c.sql;
    batches.push_back(std::move(specs));
  }
  return batches;
}

TEST_F(SketchTest, EstimateManyTemplateBatchesMatchSingleEstimates) {
  for (const DeepSketch* sk : {sketch_, no_bitmaps_}) {
    const auto batches = TemplateBatches(*sk);
    std::vector<workload::QuerySpec> all;
    for (const auto& specs : batches) {
      ExpectBatchMatchesSingles(*sk, specs);
      all.insert(all.end(), specs.begin(), specs.end());
    }
    // Every template back to back, then failing neighbours in the middle of
    // the categorical template: an unknown category (estimate 1), a float
    // literal on the categorical column (it fails while binding the
    // placeholder's table) and a string on a numeric column (it fails
    // before any row). The instances after each must still match.
    ExpectBatchMatchesSingles(*sk, all);
    const std::vector<workload::QuerySpec>& cat = batches[1];
    ASSERT_GE(cat.size(), 4u);
    workload::QuerySpec unknown = cat[1];
    unknown.predicates.back().literal = std::string("no-such-genre");
    workload::QuerySpec float_on_category = cat[1];
    float_on_category.predicates.back().literal = 2.5;
    workload::QuerySpec string_on_number = batches[2][1];
    string_on_number.predicates.back().literal = std::string("oops");
    std::vector<workload::QuerySpec> broken = {
        cat[0], cat[1], cat[2], unknown,          cat[1],
        cat[2], float_on_category, cat[1], string_on_number};
    broken.insert(broken.end(), cat.begin() + 2, cat.end());
    broken.insert(broken.end(), batches[2].begin(), batches[2].end());
    ExpectBatchMatchesSingles(*sk, broken);
    auto results = sk->EstimateMany(broken);
    ASSERT_TRUE(results[3].ok());
    EXPECT_EQ(*results[3], 1.0);
    if (sk == sketch_) {
      // Without bitmaps no sample is read, so the float literal featurizes.
      EXPECT_FALSE(results[6].ok());
    }
    EXPECT_FALSE(results[8].ok());
  }
}

TEST_F(SketchTest, EstimateManyConcurrentTemplateBatchesMatchOneThread) {
  const auto batches = TemplateBatches(*sketch_);
  std::vector<std::vector<Result<double>>> reference(batches.size());
  for (size_t b = 0; b < batches.size(); ++b) {
    sketch_->EstimateManyInto(batches[b], &reference[b]);
  }
  // Four threads share the sketch; each walks the templates in its own
  // order so neighbouring calls on a thread differ.
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      std::vector<Result<double>> results;
      for (size_t round = 0; round < 25; ++round) {
        const size_t b = (t + round * (t + 1)) % batches.size();
        sketch_->EstimateManyInto(batches[b], &results);
        for (size_t i = 0; i < results.size(); ++i) {
          if (!results[i].ok() ||
              std::bit_cast<uint64_t>(*results[i]) !=
                  std::bit_cast<uint64_t>(*reference[b][i])) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST_F(SketchTest, TemplateErrors) {
  // No placeholder.
  auto no_ph = sketch_->BindSql("SELECT COUNT(*) FROM movie WHERE year = 3");
  ASSERT_TRUE(no_ph.ok());
  EXPECT_FALSE(sketch::InstantiateTemplate(*no_ph, sketch_->samples()).ok());
  // Bucket grouping on a categorical placeholder.
  auto cat = sketch_->BindSql("SELECT COUNT(*) FROM genre WHERE name = ?");
  ASSERT_TRUE(cat.ok());
  TemplateOptions opts;
  opts.grouping = TemplateOptions::Grouping::kBuckets;
  EXPECT_FALSE(
      sketch::InstantiateTemplate(*cat, sketch_->samples(), opts).ok());
}

// ---- Manager -------------------------------------------------------------------

TEST(SketchManagerTest, CreateListGetDrop) {
  auto catalog = testutil::MakeTinyCatalog();
  std::string dir = testing::TempDir() + "/ds_manager_test";
  std::filesystem::create_directories(dir);
  sketch::SketchManager manager(catalog.get(), dir);

  SketchConfig config;
  config.num_samples = 8;
  config.num_training_queries = 100;
  config.num_epochs = 4;
  config.hidden_units = 8;
  config.max_tables_per_query = 2;

  ASSERT_TRUE(manager.CreateSketch("tiny", config).ok());
  EXPECT_FALSE(manager.CreateSketch("tiny", config).ok());  // duplicate
  EXPECT_FALSE(manager.CreateSketch("bad/name", config).ok());

  auto names = manager.ListSketches();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "tiny");

  auto est = manager.Estimate("tiny", "SELECT COUNT(*) FROM movie");
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  EXPECT_GE(*est, 1.0);

  // A second manager sees the persisted sketch (pre-built models, §3).
  sketch::SketchManager other(catalog.get(), dir);
  EXPECT_EQ(other.ListSketches().size(), 1u);
  EXPECT_TRUE(other.Estimate("tiny", "SELECT COUNT(*) FROM genre").ok());

  EXPECT_TRUE(manager.DropSketch("tiny").ok());
  EXPECT_FALSE(manager.GetSketch("tiny").ok());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ds
