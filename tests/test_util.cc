#include "test_util.h"

#include <gtest/gtest.h>

#include "ds/exec/predicate.h"
#include "ds/mscn/dataset.h"
#include "ds/nn/workspace.h"
#include "ds/sketch/template.h"
#include "ds/sql/binder.h"
#include "ds/sql/parser.h"
#include "ds/util/logging.h"

namespace ds::testutil {

using storage::Catalog;
using storage::Column;
using storage::ColumnType;
using storage::Table;

std::unique_ptr<Catalog> MakeTinyCatalog() {
  auto catalog = std::make_unique<Catalog>();

  Table* genre = catalog->CreateTable("genre").value();
  Column* gid = genre->AddColumn("id", ColumnType::kInt64).value();
  Column* gname = genre->AddColumn("name", ColumnType::kCategorical).value();
  for (int64_t i = 1; i <= 5; ++i) {
    gid->AppendInt(i);
    std::string genre_name = "g";
    genre_name += std::to_string(i);
    gname->AppendString(genre_name);
  }

  Table* movie = catalog->CreateTable("movie").value();
  Column* mid = movie->AddColumn("id", ColumnType::kInt64).value();
  Column* myear = movie->AddColumn("year", ColumnType::kInt64).value();
  Column* mgenre = movie->AddColumn("genre_id", ColumnType::kInt64).value();
  for (int64_t i = 1; i <= 40; ++i) {
    mid->AppendInt(i);
    if (i == 13) {
      myear->AppendNull();
    } else {
      myear->AppendInt(2000 + (i % 10));
    }
    mgenre->AppendInt(1 + (i % 5));
  }

  Table* rating = catalog->CreateTable("rating").value();
  Column* rid = rating->AddColumn("id", ColumnType::kInt64).value();
  Column* rmovie = rating->AddColumn("movie_id", ColumnType::kInt64).value();
  Column* rscore = rating->AddColumn("score", ColumnType::kFloat64).value();
  Column* rvotes = rating->AddColumn("votes", ColumnType::kInt64).value();
  int64_t next = 1;
  for (int64_t m = 1; m <= 40; ++m) {
    for (int64_t k = 0; k < m % 3; ++k) {
      rid->AppendInt(next++);
      rmovie->AppendInt(m);
      rscore->AppendDouble(static_cast<double>(m % 50) / 10.0);
      rvotes->AppendInt(m * 7 % 100);
    }
  }

  DS_CHECK_OK(catalog->SetPrimaryKey("genre", "id"));
  DS_CHECK_OK(catalog->SetPrimaryKey("movie", "id"));
  DS_CHECK_OK(catalog->SetPrimaryKey("rating", "id"));
  DS_CHECK_OK(catalog->AddForeignKey("movie", "genre_id", "genre", "id"));
  DS_CHECK_OK(catalog->AddForeignKey("rating", "movie_id", "movie", "id"));
  DS_CHECK_OK(catalog->Validate());
  return catalog;
}

uint64_t BruteForceCount(const Catalog& catalog,
                         const workload::QuerySpec& spec) {
  // Bind predicates per table once.
  std::vector<const Table*> tables;
  std::vector<std::vector<exec::BoundPredicate>> preds;
  for (const auto& name : spec.tables) {
    const Table* t = catalog.GetTable(name).value();
    tables.push_back(t);
    preds.push_back(exec::BindPredicates(*t, name, spec.predicates).value());
  }
  auto slot_of = [&](const std::string& name) {
    for (size_t i = 0; i < spec.tables.size(); ++i) {
      if (spec.tables[i] == name) return i;
    }
    DS_CHECK(false);
    return size_t{0};
  };
  struct JoinCols {
    size_t l_slot, r_slot;
    const Column* l_col;
    const Column* r_col;
  };
  std::vector<JoinCols> joins;
  for (const auto& j : spec.joins) {
    JoinCols jc;
    jc.l_slot = slot_of(j.left_table);
    jc.r_slot = slot_of(j.right_table);
    jc.l_col = tables[jc.l_slot]->GetColumn(j.left_column).value();
    jc.r_col = tables[jc.r_slot]->GetColumn(j.right_column).value();
    joins.push_back(jc);
  }

  std::vector<size_t> row(spec.tables.size(), 0);
  uint64_t count = 0;
  // Odometer over the cross product.
  for (;;) {
    bool ok = true;
    for (size_t i = 0; ok && i < tables.size(); ++i) {
      ok = exec::RowMatchesAll(preds[i], row[i]);
    }
    for (size_t i = 0; ok && i < joins.size(); ++i) {
      const auto& jc = joins[i];
      if (jc.l_col->IsNull(row[jc.l_slot]) ||
          jc.r_col->IsNull(row[jc.r_slot])) {
        ok = false;
      } else {
        ok = jc.l_col->GetInt(row[jc.l_slot]) ==
             jc.r_col->GetInt(row[jc.r_slot]);
      }
    }
    if (ok) ++count;
    // Advance odometer.
    size_t d = 0;
    while (d < row.size()) {
      if (++row[d] < tables[d]->num_rows()) break;
      row[d] = 0;
      ++d;
    }
    if (d == row.size()) break;
  }
  return count;
}

std::vector<std::vector<workload::QuerySpec>> SparsePackingBatches(
    const Catalog& catalog, const est::SampleSet& samples) {
  std::vector<std::vector<workload::QuerySpec>> batches(1);
  for (const char* sql :
       {"SELECT COUNT(*) FROM movie",
        "SELECT COUNT(*) FROM movie WHERE year = 2003",
        "SELECT COUNT(*) FROM movie m, rating r WHERE r.movie_id = m.id "
        "AND r.score > 2.5",
        "SELECT COUNT(*) FROM genre WHERE name = 'g1'",
        "SELECT COUNT(*) FROM movie m, rating r, genre g WHERE "
        "r.movie_id = m.id AND m.genre_id = g.id AND g.name = 'g2' "
        "AND m.year > 2004"}) {
    batches[0].push_back(sql::ParseAndBind(catalog, sql).value());
  }
  for (const char* sql :
       {"SELECT COUNT(*) FROM movie m, rating r WHERE r.movie_id = m.id "
        "AND r.votes < 60 AND m.year > ?",
        "SELECT COUNT(*) FROM movie WHERE genre_id = 2 AND year < ?"}) {
    const sql::BoundQuery bound =
        sql::Bind(catalog, sql::Parse(sql).value()).value();
    std::vector<sketch::TemplateInstance> expanded =
        sketch::InstantiateTemplate(bound, samples).value();
    std::vector<workload::QuerySpec> instances;
    for (auto& instance : expanded) {
      instances.push_back(std::move(instance.spec));
    }
    batches.push_back(std::move(instances));
  }
  return batches;
}

size_t ExpectInferSparseMatchesInfer(
    const mscn::MscnModel& model, const mscn::FeatureSpace& space,
    const est::SampleSet& samples,
    const std::vector<workload::QuerySpec>& specs) {
  std::vector<mscn::QueryFeatures> dense;
  mscn::FeaturizeScratch scratch;
  std::vector<mscn::SparseQueryFeatures> sparse(specs.size());
  std::vector<const mscn::SparseQueryFeatures*> ptrs;
  for (size_t i = 0; i < specs.size(); ++i) {
    dense.push_back(space.FeaturizeWithSamples(specs[i], samples).value());
    EXPECT_TRUE(space
                    .FeaturizeSparse(specs[i], samples, /*use_bitmaps=*/true,
                                     &scratch, &sparse[i])
                    .ok());
    ptrs.push_back(&sparse[i]);
  }
  const mscn::Batch batch = mscn::MakeBatch(dense, space);
  mscn::SparseBatch sbatch;
  mscn::PackSparseBatch(ptrs, space, &sbatch);

  nn::Workspace ws;
  const nn::Tensor want = *model.InferInto(batch, &ws);  // copy out
  ws.Reset();
  const nn::Tensor* got = model.InferSparse(sbatch, &ws);
  EXPECT_TRUE(want.SameShape(*got));
  for (size_t i = 0; i < want.size() && i < got->size(); ++i) {
    // Bit-for-bit: exact float equality, no tolerance.
    EXPECT_EQ(want.at(i), got->at(i)) << "InferSparse, query " << i;
  }

  size_t reused = 0;
  for (const mscn::SparseSet* set :
       {&sbatch.tables, &sbatch.joins, &sbatch.predicates}) {
    EXPECT_EQ(set->offsets.size(), specs.size() + 1);
    EXPECT_LE(set->rows.rows(), set->slots.size());
    reused += set->slots.size() - set->rows.rows();
  }
  return reused;
}

}  // namespace ds::testutil
