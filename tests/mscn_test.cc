// Tests for the MSCN stack: featurization, dataset batching, the model
// (including an end-to-end gradient check), trainer convergence, and golden
// training digests.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>

#include "ds/datagen/imdb.h"
#include "ds/est/sample.h"
#include "ds/mscn/logger.h"
#include "ds/mscn/dataset.h"
#include "ds/mscn/featurizer.h"
#include "ds/mscn/model.h"
#include "ds/mscn/trainer.h"
#include "ds/nn/gradcheck.h"
#include "ds/nn/kernels.h"
#include "ds/sketch/template.h"
#include "ds/sql/binder.h"
#include "ds/stress/grammar.h"
#include "ds/workload/generator.h"
#include "ds/workload/labeler.h"
#include "test_util.h"

namespace ds {
namespace {

using mscn::Batch;
using mscn::Dataset;
using mscn::FeatureSpace;
using mscn::MakeBatch;
using mscn::MscnModel;
using mscn::ModelConfig;
using workload::CompareOp;

class MscnTest : public ::testing::Test {
 protected:
  MscnTest()
      : catalog_(testutil::MakeTinyCatalog()),
        samples_(est::SampleSet::Build(*catalog_, 8, 3).value()),
        space_(FeatureSpace::Create(*catalog_, {}, 8).value()) {}

  workload::QuerySpec Q(const std::string& sql) {
    return sql::ParseAndBind(*catalog_, sql).value();
  }

  // The CSR rows of `sql`, with sample bitmaps (as Dataset::Build gives a
  // labeled query).
  mscn::SparseQueryFeatures Rows(const std::string& sql) {
    mscn::FeaturizeScratch scratch;
    mscn::SparseQueryFeatures out;
    EXPECT_TRUE(space_
                    .FeaturizeSparse(Q(sql), samples_, /*use_bitmaps=*/true,
                                     &scratch, &out)
                    .ok());
    return out;
  }

  // The training batch of every query of `ds`, in order.
  mscn::SparseBatch TrainingBatch(const Dataset& ds) {
    std::vector<size_t> indices(ds.size());
    for (size_t i = 0; i < indices.size(); ++i) indices[i] = i;
    mscn::SparseBatch batch;
    mscn::PackTrainingBatch(ds, indices, space_, &batch);
    return batch;
  }

  MscnModel MakeModel(size_t hidden, uint64_t seed) {
    ModelConfig config;
    config.table_dim = space_.table_dim();
    config.join_dim = space_.join_dim();
    config.pred_dim = space_.pred_dim();
    config.hidden_units = hidden;
    MscnModel model(config);
    util::Pcg32 rng(seed);
    model.Initialize(&rng);
    return model;
  }

  std::unique_ptr<storage::Catalog> catalog_;
  est::SampleSet samples_;
  FeatureSpace space_;
};

void ExpectSameRows(const nn::SparseRows& got, const nn::SparseRows& want,
                    const std::string& what) {
  EXPECT_EQ(got.dim, want.dim) << what;
  EXPECT_EQ(got.row_offsets, want.row_offsets) << what;
  EXPECT_EQ(got.cols, want.cols) << what;
  EXPECT_EQ(got.vals, want.vals) << what;
}

TEST_F(MscnTest, DimensionsAreConsistent) {
  // 3 tables, 2 FK edges, 9 columns total (2 + 3 + 4).
  EXPECT_EQ(space_.table_names().size(), 3u);
  EXPECT_EQ(space_.num_joins(), 2u);
  EXPECT_EQ(space_.num_columns(), 9u);
  EXPECT_EQ(space_.table_dim(), 3u + 8u);
  EXPECT_EQ(space_.join_dim(), 2u);
  EXPECT_EQ(space_.pred_dim(), 9u + 3u + 1u);
}

TEST_F(MscnTest, FeaturizeProducesOneHotsAndBitmap) {
  auto spec = Q("SELECT COUNT(*) FROM movie m, rating r "
                "WHERE r.movie_id = m.id AND m.year > 2004");
  auto qf = space_.FeaturizeWithSamples(spec, samples_).value();
  ASSERT_EQ(qf.tables.size(), 2u);
  ASSERT_EQ(qf.joins.size(), 1u);
  ASSERT_EQ(qf.predicates.size(), 1u);
  // Table element: exactly one one-hot bit among the first 3 entries.
  for (const auto& t : qf.tables) {
    float onehot = t[0] + t[1] + t[2];
    EXPECT_FLOAT_EQ(onehot, 1.0f);
  }
  // The movie element's bitmap has the sample's qualifying pattern; the
  // rating element (no predicate) is all ones.
  auto bm = samples_.Bitmap("movie", spec.predicates).value();
  size_t movie_idx = qf.tables[0][0] > 0 || qf.tables[0][1] > 0 ||
                             qf.tables[0][2] > 0
                         ? 0
                         : 1;
  (void)movie_idx;
  // Join one-hot sums to 1.
  float jsum = 0;
  for (float v : qf.joins[0]) jsum += v;
  EXPECT_FLOAT_EQ(jsum, 1.0f);
  // Predicate: one column bit + one op bit + normalized value in [0,1].
  const auto& p = qf.predicates[0];
  float colsum = 0;
  for (size_t i = 0; i < space_.num_columns(); ++i) colsum += p[i];
  EXPECT_FLOAT_EQ(colsum, 1.0f);
  float opsum = 0;
  for (size_t i = 0; i < 3; ++i) opsum += p[space_.num_columns() + i];
  EXPECT_FLOAT_EQ(opsum, 1.0f);
  float val = p[space_.num_columns() + 3];
  EXPECT_GE(val, 0.0f);
  EXPECT_LE(val, 1.0f);
  // year 2004 in [2000, 2009] -> (2004-2000)/9.
  EXPECT_NEAR(val, 4.0 / 9.0, 1e-5);
}

TEST_F(MscnTest, LiteralNormalizationUsesColumnRange) {
  auto lo = Q("SELECT COUNT(*) FROM movie WHERE year > 2000");
  auto hi = Q("SELECT COUNT(*) FROM movie WHERE year > 2009");
  auto qlo = space_.FeaturizeWithSamples(lo, samples_).value();
  auto qhi = space_.FeaturizeWithSamples(hi, samples_).value();
  const size_t vi = space_.num_columns() + 3;
  EXPECT_FLOAT_EQ(qlo.predicates[0][vi], 0.0f);
  EXPECT_FLOAT_EQ(qhi.predicates[0][vi], 1.0f);
}

TEST_F(MscnTest, UnknownStringLiteralIsNotFound) {
  auto spec = Q("SELECT COUNT(*) FROM genre WHERE name = 'g3'");
  spec.predicates[0].literal = std::string("not-a-genre");
  auto qf = space_.FeaturizeWithSamples(spec, samples_);
  EXPECT_EQ(qf.status().code(), StatusCode::kNotFound);
}

TEST_F(MscnTest, OutOfSpaceQueryRejected) {
  FeatureSpace movie_only =
      FeatureSpace::Create(*catalog_, {"movie"}, 8).value();
  auto spec = Q("SELECT COUNT(*) FROM movie m, rating r "
                "WHERE r.movie_id = m.id");
  auto qf = movie_only.FeaturizeWithSamples(spec, samples_);
  EXPECT_FALSE(qf.ok());
}

TEST(NeighbourFeaturizeTest, TemplateInstancesMatchPerQueryFeatures) {
  // The stress grammar's '?' templates over a 500-title IMDb, expanded with
  // both groupings. Featurized in order next to their predecessor (rows it
  // shares are copied), every instance must get exactly the rows the
  // per-query path gives it.
  datagen::ImdbOptions imdb;
  imdb.num_titles = 500;
  auto catalog = datagen::GenerateImdb(imdb).value();
  const est::SampleSet samples = est::SampleSet::Build(*catalog, 64, 7).value();
  const FeatureSpace space = FeatureSpace::Create(*catalog, {}, 64).value();
  stress::GrammarOptions options;
  options.seed = 20261019;
  options.spec.max_tables = 3;
  options.spec.min_predicates = 1;
  options.spec.max_predicates = 3;
  options.placeholder_fraction = 1.0;
  options.malformed_fraction = 0.0;
  auto grammar = stress::StressGrammar::Create(catalog.get(), options).value();

  mscn::FeaturizeScratch chained, alone;
  mscn::SparseQueryFeatures reference;
  std::vector<mscn::SparseQueryFeatures> features;
  size_t templates = 0, instances = 0, copied = 0;
  for (int attempt = 0; attempt < 2000 && templates < 80; ++attempt) {
    const stress::GeneratedQuery q = grammar.NextQuery();
    if (q.kind != stress::QueryKind::kPlaceholder) continue;
    auto bound = sql::Bind(*catalog, sql::Parse(q.sql).value());
    ASSERT_TRUE(bound.ok()) << q.sql << ": " << bound.status().ToString();
    ASSERT_TRUE(bound->placeholder.has_value()) << q.sql;
    for (auto grouping : {sketch::TemplateOptions::Grouping::kDistinct,
                          sketch::TemplateOptions::Grouping::kBuckets}) {
      sketch::TemplateOptions topts;
      topts.grouping = grouping;
      auto expanded = sketch::InstantiateTemplate(*bound, samples, topts);
      if (!expanded.ok()) continue;  // buckets need '=' on a numeric column
      ++templates;
      features.assign(expanded->size(), {});
      for (size_t i = 0; i < expanded->size(); ++i) {
        const workload::QuerySpec& spec = (*expanded)[i].spec;
        const workload::QuerySpec* prev =
            i > 0 ? &(*expanded)[i - 1].spec : nullptr;
        ASSERT_TRUE(space
                        .FeaturizeSparse(spec, samples, /*use_bitmaps=*/true,
                                         &chained, &features[i], prev,
                                         i > 0 ? &features[i - 1] : nullptr)
                        .ok())
            << spec.ToCompactString();
        ASSERT_TRUE(space
                        .FeaturizeSparse(spec, samples, /*use_bitmaps=*/true,
                                         &alone, &reference)
                        .ok());
        const std::string what = q.sql + " instance " + std::to_string(i);
        ExpectSameRows(features[i].tables, reference.tables, what);
        ExpectSameRows(features[i].joins, reference.joins, what);
        ExpectSameRows(features[i].predicates, reference.predicates, what);
        ++instances;
        // The template's own predicates keep their literals, so every
        // instance after the first copies at least their rows.
        copied += prev != nullptr && !bound->spec.predicates.empty();
      }
    }
  }
  EXPECT_GE(templates, 80u);
  EXPECT_GT(copied, instances / 2) << instances << " instances";
}

TEST_F(MscnTest, NeighbourRowsMatchPerQueryRows) {
  // A scripted batch over every movie row: literals change on one table or
  // both, a neighbour repeats, an operator changes, a spec fails and the
  // tables reorder. Each spec is featurized next to its predecessor when
  // that one featurized (as EstimateManyInto does) and must get the
  // per-query rows.
  const est::SampleSet samples = est::SampleSet::Build(*catalog_, 40, 3).value();
  const FeatureSpace space = FeatureSpace::Create(*catalog_, {}, 40).value();
  auto movie = [&](int64_t genre, CompareOp year_op, int64_t year) {
    workload::QuerySpec spec = Q("SELECT COUNT(*) FROM movie m, rating r "
                                 "WHERE r.movie_id = m.id AND r.votes < 70");
    spec.predicates.push_back({"movie", "genre_id", CompareOp::kEq, genre});
    spec.predicates.push_back({"movie", "year", year_op, year});
    return spec;
  };
  std::vector<workload::QuerySpec> specs = {
      movie(2, CompareOp::kGt, 2001),
      movie(2, CompareOp::kGt, 2003),  // year changes: rating's row copied
      movie(3, CompareOp::kGt, 2003),  // genre changes instead
      movie(4, CompareOp::kGt, 2007),  // both change
      movie(4, CompareOp::kGt, 2007),  // repeat: every row copied
      movie(4, CompareOp::kLt, 2007),  // only an operator changes
  };
  workload::QuerySpec bad = specs.back();
  bad.predicates.back().literal = std::string("oops");
  specs.push_back(bad);  // fails: the next spec has no predecessor
  specs.push_back(movie(1, CompareOp::kGt, 2002));
  workload::QuerySpec reordered = specs.back();
  std::swap(reordered.tables[0], reordered.tables[1]);
  specs.push_back(reordered);  // same predicates, tables at new positions
  specs.push_back(reordered);
  specs.back().predicates[0].literal = int64_t{40};  // rating's literal

  mscn::FeaturizeScratch chained, alone;
  std::vector<mscn::SparseQueryFeatures> features(specs.size());
  mscn::SparseQueryFeatures reference;
  const workload::QuerySpec* prev = nullptr;
  for (size_t i = 0; i < specs.size(); ++i) {
    const Status got = space.FeaturizeSparse(
        specs[i], samples, /*use_bitmaps=*/true, &chained, &features[i], prev,
        prev != nullptr ? &features[i - 1] : nullptr);
    const Status want = space.FeaturizeSparse(
        specs[i], samples, /*use_bitmaps=*/true, &alone, &reference);
    ASSERT_EQ(got.ToString(), want.ToString()) << i;
    prev = got.ok() ? &specs[i] : nullptr;
    if (!got.ok()) continue;
    const std::string what = "spec " + std::to_string(i);
    ExpectSameRows(features[i].tables, reference.tables, what);
    ExpectSameRows(features[i].joins, reference.joins, what);
    ExpectSameRows(features[i].predicates, reference.predicates, what);
  }
  EXPECT_EQ(prev, &specs.back());
}

TEST_F(MscnTest, FeatureSpaceSerializationRoundTrip) {
  util::BinaryWriter w;
  space_.Write(&w);
  util::BinaryReader r(w.buffer());
  auto loaded = FeatureSpace::Read(&r).value();
  EXPECT_EQ(loaded.table_dim(), space_.table_dim());
  EXPECT_EQ(loaded.join_dim(), space_.join_dim());
  EXPECT_EQ(loaded.pred_dim(), space_.pred_dim());
  // Featurization identical before/after.
  auto spec = Q("SELECT COUNT(*) FROM movie WHERE year = 2003");
  auto a = space_.FeaturizeWithSamples(spec, samples_).value();
  auto b = loaded.FeaturizeWithSamples(spec, samples_).value();
  EXPECT_EQ(a.predicates, b.predicates);
  EXPECT_EQ(a.tables, b.tables);
}

TEST_F(MscnTest, BatchPadsAndMasks) {
  // Query 0: 1 table, 0 joins, 0 predicates; query 1: 3 tables, 2 joins,
  // 2 predicates.
  auto q0 = space_.FeaturizeWithSamples(Q("SELECT COUNT(*) FROM movie"),
                                        samples_).value();
  auto q1 = space_.FeaturizeWithSamples(
      Q("SELECT COUNT(*) FROM movie m, rating r, genre g "
        "WHERE r.movie_id = m.id AND m.genre_id = g.id AND m.year > 2003 "
        "AND r.votes < 50"),
      samples_).value();
  Batch batch = MakeBatch({q0, q1}, space_);
  EXPECT_EQ(batch.batch_size(), 2u);
  // Table set padded to 3.
  EXPECT_EQ(batch.table_mask.dim(1), 3u);
  EXPECT_FLOAT_EQ(batch.table_mask.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(batch.table_mask.at(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(batch.table_mask.at(1, 2), 1.0f);
  // Join set: query 0 has no joins -> all-zero mask row.
  EXPECT_FLOAT_EQ(batch.join_mask.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(batch.join_mask.at(1, 0), 1.0f);
}

TEST_F(MscnTest, TrainingBatchPacksOneRowPerElement) {
  // Query 1 repeats query 0, so a serving batch would share its rows; a
  // training batch gives every element its own row, in query order.
  Dataset ds;
  ds.features = {Rows("SELECT COUNT(*) FROM movie m, rating r "
                      "WHERE r.movie_id = m.id AND m.year > 2003"),
                 Rows("SELECT COUNT(*) FROM movie m, rating r "
                      "WHERE r.movie_id = m.id AND m.year > 2003"),
                 Rows("SELECT COUNT(*) FROM genre")};
  ds.labels = {5, 5, 5};
  const mscn::SparseBatch batch = TrainingBatch(ds);
  EXPECT_EQ(batch.tables.offsets, (std::vector<uint32_t>{0, 2, 4, 5}));
  EXPECT_EQ(batch.tables.slots, (std::vector<uint32_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(batch.tables.rows.rows(), 5u);
  EXPECT_EQ(batch.joins.offsets, (std::vector<uint32_t>{0, 1, 2, 2}));
  EXPECT_EQ(batch.joins.rows.rows(), 2u);
  EXPECT_EQ(batch.predicates.slots, (std::vector<uint32_t>{0, 1}));
  nn::SparseRows want;
  want.Clear(space_.table_dim());
  for (const auto& q : ds.features) {
    for (size_t r = 0; r < q.tables.rows(); ++r) {
      want.AppendRowFrom(q.tables, r);
    }
  }
  ExpectSameRows(batch.tables.rows, want, "tables");
}

TEST_F(MscnTest, ModelForwardShapeAndRange) {
  MscnModel model = MakeModel(16, 1);
  Dataset ds;
  ds.features = {Rows("SELECT COUNT(*) FROM movie WHERE year = 2003"),
                 Rows("SELECT COUNT(*) FROM movie m, rating r "
                      "WHERE r.movie_id = m.id")};
  ds.labels = {3, 40};
  const mscn::SparseBatch batch = TrainingBatch(ds);
  const nn::Tensor& y = model.Forward(batch);
  ASSERT_EQ(y.dim(0), 2u);
  ASSERT_EQ(y.dim(1), 1u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_GT(y.at(i), 0.0f);
    EXPECT_LT(y.at(i), 1.0f);
  }
}

TEST_F(MscnTest, ModelInferMatchesForward) {
  // The training forward, the serving forward (rows shared between equal
  // neighbours) and the padded dense reference agree bit for bit.
  MscnModel model = MakeModel(16, 7);
  const char* sqls[] = {
      "SELECT COUNT(*) FROM movie WHERE year = 2003",
      "SELECT COUNT(*) FROM movie m, rating r WHERE r.movie_id = m.id",
      "SELECT COUNT(*) FROM movie m, rating r WHERE r.movie_id = m.id",
      "SELECT COUNT(*) FROM movie m, rating r, genre g WHERE r.movie_id = "
      "m.id AND m.genre_id = g.id AND r.votes < 50 AND g.id > 2"};
  Dataset ds;
  std::vector<mscn::QueryFeatures> dense;
  for (const char* sql : sqls) {
    ds.features.push_back(Rows(sql));
    ds.labels.push_back(1);
    dense.push_back(space_.FeaturizeWithSamples(Q(sql), samples_).value());
  }
  const mscn::SparseBatch batch = TrainingBatch(ds);
  const nn::Tensor trained = model.Forward(batch);
  nn::Workspace ws;
  const nn::Tensor reference = *model.InferInto(MakeBatch(dense, space_), &ws);
  std::vector<const mscn::SparseQueryFeatures*> ptrs;
  for (const auto& f : ds.features) ptrs.push_back(&f);
  mscn::SparseBatch served;
  mscn::PackSparseBatch(ptrs, space_, &served);
  ws.Reset();
  const nn::Tensor* inferred = model.InferSparse(served, &ws);
  ASSERT_EQ(inferred->size(), trained.size());
  ASSERT_EQ(reference.size(), trained.size());
  for (size_t i = 0; i < trained.size(); ++i) {
    EXPECT_EQ(inferred->at(i), trained.at(i)) << i;
    EXPECT_EQ(reference.at(i), trained.at(i)) << i;
  }
}

TEST_F(MscnTest, ModelEndToEndGradientCheck) {
  MscnModel model = MakeModel(6, 2);
  Dataset ds;
  ds.features = {Rows("SELECT COUNT(*) FROM movie m, rating r, genre g "
                      "WHERE r.movie_id = m.id AND m.genre_id = g.id AND "
                      "m.year > 2003"),
                 Rows("SELECT COUNT(*) FROM genre")};
  ds.labels = {10, 5};
  const mscn::SparseBatch batch = TrainingBatch(ds);

  // MSE is used for the finite-difference check because the q-error loss
  // has a kink at est == truth that breaks central differences; the q-error
  // gradient itself is checked analytically in nn_test.
  nn::LogNormalizer norm;
  norm.max_log = std::log(100.0);
  auto loss_fn = [&]() {
    const nn::Tensor& y = model.Forward(batch);
    nn::Tensor dy(y.shape());
    return nn::MseLoss(y, ds.labels, norm, &dy);
  };
  // Analytic gradients.
  {
    const nn::Tensor& y = model.Forward(batch);
    nn::Tensor dy(y.shape());
    nn::MseLoss(y, ds.labels, norm, &dy);
    model.Backward(&dy);
  }
  // Check a subset of parameters end to end (full sweep is slow).
  auto params = model.Parameters();
  ASSERT_FALSE(params.empty());
  size_t checked = 0;
  for (nn::Parameter* p : params) {
    if (p->name.find("bias") == std::string::npos) continue;  // small ones
    auto r = nn::CheckParameterGradient(p, loss_fn, 1e-3);
    // A bias entry sitting within epsilon of a ReLU kink produces a locally
    // wrong finite difference, so the relative bound is loose; the absolute
    // bound stays tight.
    EXPECT_LT(r.max_abs_error, 5e-2) << p->name;
    EXPECT_LT(r.max_rel_error, 0.5) << p->name;
    ++checked;
  }
  EXPECT_GE(checked, 4u);
}

TEST_F(MscnTest, ModelSerializationRoundTrip) {
  MscnModel model = MakeModel(8, 4);
  util::BinaryWriter w;
  model.Write(&w);
  util::BinaryReader r(w.buffer());
  auto loaded = MscnModel::Read(&r);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  Dataset ds;
  ds.features = {Rows("SELECT COUNT(*) FROM movie WHERE year < 2005")};
  ds.labels = {20};
  const mscn::SparseBatch batch = TrainingBatch(ds);
  EXPECT_EQ(model.Forward(batch).at(0), loaded->Forward(batch).at(0));
}

TEST_F(MscnTest, TrainerLearnsTinyWorkload) {
  // Train on 300 queries over the tiny catalog; the mean q-error on the
  // training distribution must drop substantially from its initial value.
  workload::GeneratorOptions gopts;
  gopts.seed = 5;
  gopts.max_tables = 3;
  gopts.min_predicates = 0;
  auto gen = workload::QueryGenerator::Create(catalog_.get(), gopts).value();
  auto labeled =
      workload::LabelQueries(*catalog_, &samples_, gen.GenerateMany(300))
          .value();
  Dataset ds = Dataset::Build(space_, samples_, labeled).value();

  ModelConfig config;
  config.table_dim = space_.table_dim();
  config.join_dim = space_.join_dim();
  config.pred_dim = space_.pred_dim();
  config.hidden_units = 16;
  MscnModel model(config);
  util::Pcg32 rng(6);
  model.Initialize(&rng);

  mscn::TrainerOptions topts;
  topts.epochs = 25;
  topts.batch_size = 32;
  topts.validation_fraction = 0.15;
  size_t epochs_seen = 0;
  topts.on_epoch = [&](const mscn::EpochStats& e) {
    ++epochs_seen;
    EXPECT_EQ(e.epoch, epochs_seen);
  };
  mscn::Trainer trainer(topts);
  auto report = trainer.Train(&model, ds, space_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->epochs.size(), 25u);
  EXPECT_EQ(epochs_seen, 25u);
  // Training loss decreased markedly.
  EXPECT_LT(report->epochs.back().train_loss,
            0.5 * report->epochs.front().train_loss);
  // Final validation q-error is sane for this trivial schema.
  EXPECT_LT(report->epochs.back().validation_median_q, 3.0);
  // The CSV log has one row per epoch plus a header.
  std::string csv = report->ToCsv();
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 26);
}

TEST_F(MscnTest, TrainingLoggerWritesCsv) {
  std::string path = testing::TempDir() + "/ds_training_log.csv";
  {
    auto logger = mscn::TrainingLogger::Open(path);
    ASSERT_TRUE(logger.ok());
    mscn::EpochStats e;
    e.epoch = 1;
    e.train_loss = 2.5;
    e.validation_mean_q = 3.25;
    e.validation_median_q = 1.5;
    e.seconds = 0.125;
    logger->LogEpoch(e);
    e.epoch = 2;
    logger->Callback()(e);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "epoch,train_loss,val_mean_q,val_median_q,seconds");
  size_t rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 2u);
  std::remove(path.c_str());
}

TEST_F(MscnTest, TrainingLoggerOpenFailure) {
  EXPECT_FALSE(mscn::TrainingLogger::Open("/nonexistent/dir/log.csv").ok());
}

TEST_F(MscnTest, DescribeArchitectureCountsParameters) {
  ModelConfig config;
  config.table_dim = 10;
  config.join_dim = 4;
  config.pred_dim = 12;
  config.hidden_units = 8;
  std::string desc = mscn::DescribeArchitecture(config);
  EXPECT_NE(desc.find("table module"), std::string::npos);
  // Total must match the live model.
  MscnModel model(config);
  size_t total = model.NumParameters();
  EXPECT_NE(desc.find(std::to_string(total)), std::string::npos) << desc;
}

// ---- Golden training digests ------------------------------------------------
//
// golden/train_digests.txt pins training bit for bit. Each line names one
// variant (kernel tier, loss, workload, worker threads) and holds the
// per-epoch training loss and validation mean q-error as hex floats (%a)
// and an FNV-1a hash of every parameter's bytes in Parameters() order after
// the last epoch. The lines were recorded by the padded, mask-pooled dense
// trainer that preceded the CSR one; a variant whose tier this process
// cannot run is skipped. On a mismatch the failure prints the line this
// build computed, in the file's format.

class TrainDigestTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::ImdbOptions imdb;
    imdb.num_titles = 1500;
    catalog_ = datagen::GenerateImdb(imdb).value().release();
    const std::vector<std::string> tables = {"title", "movie_keyword",
                                             "keyword"};
    samples_ = new est::SampleSet(
        est::SampleSet::Build(*catalog_, 64, 42, tables).value());
    space_ = new FeatureSpace(
        FeatureSpace::Create(*catalog_, tables, 64).value());
    for (size_t max_tables : {3, 1}) {
      workload::GeneratorOptions gen;
      gen.tables = tables;
      gen.max_tables = max_tables;
      gen.min_predicates = 0;
      gen.seed = 43;
      auto generator =
          workload::QueryGenerator::Create(catalog_, gen).value();
      auto labeled = workload::LabelQueries(*catalog_, samples_,
                                            generator.GenerateMany(300))
                         .value();
      datasets_.push_back(new Dataset(
          Dataset::Build(*space_, *samples_, labeled).value()));
    }
  }
  static void TearDownTestSuite() {
    for (Dataset* d : datasets_) delete d;
    datasets_.clear();
    delete space_;
    delete samples_;
    delete catalog_;
  }

  // The digest line of one variant; `single_table` picks the workload whose
  // queries have one table each (every batch's join set is empty).
  static std::string DigestLine(nn::KernelTier tier, mscn::LossKind loss,
                                bool single_table, size_t threads) {
    ModelConfig config;
    config.table_dim = space_->table_dim();
    config.join_dim = space_->join_dim();
    config.pred_dim = space_->pred_dim();
    config.hidden_units = 16;
    MscnModel model(config);
    util::Pcg32 rng(44);
    model.Initialize(&rng);
    mscn::TrainerOptions options;
    options.epochs = 4;
    options.batch_size = 32;
    options.loss = loss;
    options.seed = 45;
    options.threads = threads;
    auto report = mscn::Trainer(options).Train(
        &model, *datasets_[single_table ? 1 : 0], *space_);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    if (!report.ok()) return "";
    std::string line = std::string(nn::KernelTierName(tier)) +
                       (loss == mscn::LossKind::kQError ? " qerror" : " mse") +
                       (single_table ? " single" : " joins") + " threads=" +
                       std::to_string(threads);
    char buf[64];
    for (const char* what : {" loss=", " val="}) {
      line += what;
      for (const mscn::EpochStats& e : report->epochs) {
        std::snprintf(buf, sizeof(buf), "%a,",
                      what[1] == 'l' ? e.train_loss : e.validation_mean_q);
        line += buf;
      }
      line.pop_back();
    }
    uint64_t hash = 14695981039346656037ull;  // FNV-1a 64
    for (nn::Parameter* p : model.Parameters()) {
      const auto* bytes =
          reinterpret_cast<const unsigned char*>(p->value.data());
      for (size_t i = 0; i < p->value.size() * sizeof(float); ++i) {
        hash = (hash ^ bytes[i]) * 1099511628211ull;
      }
    }
    std::snprintf(buf, sizeof(buf), " params=%016llx",
                  static_cast<unsigned long long>(hash));
    return line + buf;
  }

  static storage::Catalog* catalog_;
  static est::SampleSet* samples_;
  static FeatureSpace* space_;
  static std::vector<Dataset*> datasets_;
};

storage::Catalog* TrainDigestTest::catalog_ = nullptr;
est::SampleSet* TrainDigestTest::samples_ = nullptr;
FeatureSpace* TrainDigestTest::space_ = nullptr;
std::vector<Dataset*> TrainDigestTest::datasets_;

TEST_F(TrainDigestTest, EveryVariantMatchesTheRecording) {
  std::ifstream in(DS_TRAIN_GOLDEN_FILE);
  ASSERT_TRUE(in.good()) << "cannot read " << DS_TRAIN_GOLDEN_FILE;
  std::map<std::string, std::string> golden;  // variant -> whole line
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    golden[line.substr(0, line.find(" loss="))] = line;
  }
  const nn::KernelTier entry = nn::ActiveKernelTier();
  size_t checked = 0;
  for (nn::KernelTier tier :
       {nn::KernelTier::kGeneric, nn::KernelTier::kAvx2}) {
    if (!nn::SetKernelTier(tier)) continue;
    for (mscn::LossKind loss :
         {mscn::LossKind::kQError, mscn::LossKind::kMse}) {
      for (bool single_table : {false, true}) {
        for (size_t threads : {1, 2}) {
          // Data-parallel training is pinned on the paper's loss over the
          // joining workload only.
          if (threads > 1 &&
              (loss != mscn::LossKind::kQError || single_table)) {
            continue;
          }
          const std::string got =
              DigestLine(tier, loss, single_table, threads);
          const std::string name = got.substr(0, got.find(" loss="));
          auto it = golden.find(name);
          EXPECT_TRUE(it != golden.end() && it->second == got)
              << "this build computes:\n"
              << got << "\nthe recording holds:\n"
              << (it == golden.end() ? "(no line)" : it->second);
          ++checked;
        }
      }
    }
  }
  ASSERT_TRUE(nn::SetKernelTier(entry));
  EXPECT_GE(checked, 5u);
}

TEST_F(MscnTest, TrainerRejectsBadInputs) {
  ModelConfig config;
  config.table_dim = space_.table_dim();
  config.join_dim = space_.join_dim();
  config.pred_dim = space_.pred_dim();
  MscnModel model(config);
  mscn::Trainer trainer({});
  Dataset empty;
  EXPECT_FALSE(trainer.Train(&model, empty, space_).ok());
  mscn::TrainerOptions zero;
  zero.epochs = 0;
  Dataset one;
  one.features.push_back(mscn::SparseQueryFeatures{});
  one.labels.push_back(1);
  EXPECT_FALSE(mscn::Trainer(zero).Train(&model, one, space_).ok());
}

}  // namespace
}  // namespace ds
