// Fuzz target: featurization of any query the SQL front end accepts. For
// every input that parses and binds against the synthetic IMDb catalog,
// both featurization paths run; the sparse CSR path is documented to
// reproduce the dense rows bit-for-bit, so the harness enforces
// dense/sparse parity (same success/failure, identical row-by-row values)
// and aborts on divergence — a libFuzzer-visible crash. Inputs with a
// predicate also get two neighbours, that predicate's literal replaced by
// sampled values (as template instances are made); featurized next to
// their predecessor, each must get exactly its per-query rows.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "ds/datagen/imdb.h"
#include "ds/est/sample.h"
#include "ds/mscn/featurizer.h"
#include "ds/nn/tensor.h"
#include "ds/sql/binder.h"
#include "ds/storage/catalog.h"

namespace {

struct Fixture {
  const ds::storage::Catalog* catalog;
  ds::est::SampleSet samples;
  ds::mscn::FeatureSpace space;
};

Fixture* MakeFixture() {
  ds::datagen::ImdbOptions options;
  options.num_titles = 500;
  auto catalog = ds::datagen::GenerateImdb(options).value();
  auto samples = ds::est::SampleSet::Build(*catalog, 64, 7).value();
  auto space = ds::mscn::FeatureSpace::Create(*catalog, {}, 64).value();
  return new Fixture{catalog.release(), std::move(samples), std::move(space)};
}

[[noreturn]] void ParityFailure(const char* what, const std::string& sql) {
  std::fprintf(stderr, "dense/sparse featurization divergence (%s) for: %s\n",
               what, sql.c_str());
  std::abort();
}

void CheckRows(const std::vector<std::vector<float>>& dense,
               const ds::nn::SparseRows& sparse, const char* set,
               const std::string& sql) {
  const ds::nn::Tensor densified = sparse.ToDense();
  if (dense.size() != static_cast<size_t>(densified.dim(0))) {
    ParityFailure(set, sql);
  }
  for (size_t r = 0; r < dense.size(); ++r) {
    if (dense[r].size() != static_cast<size_t>(densified.dim(1))) {
      ParityFailure(set, sql);
    }
    for (size_t c = 0; c < dense[r].size(); ++c) {
      if (dense[r][c] != densified.at(r, c)) ParityFailure(set, sql);
    }
  }
}

void CheckSame(const ds::nn::SparseRows& got, const ds::nn::SparseRows& want,
               const char* set, const std::string& sql) {
  if (got.dim != want.dim || got.row_offsets != want.row_offsets ||
      got.cols != want.cols || got.vals != want.vals) {
    std::fprintf(stderr,
                 "neighbour/per-query featurization divergence (%s) for: %s\n",
                 set, sql.c_str());
    std::abort();
  }
}

// `spec` with predicate `k`'s literal replaced by the value in sampled row
// `row` of its column; false when that row is NULL or there is no sample.
bool SampledNeighbour(const Fixture& fx, const ds::workload::QuerySpec& spec,
                      size_t k, size_t row, ds::workload::QuerySpec* out) {
  const ds::workload::ColumnPredicate& pred = spec.predicates[k];
  auto sample = fx.samples.Get(pred.table);
  if (!sample.ok()) return false;
  auto column = (*sample)->rows->GetColumn(pred.column);
  if (!column.ok() || (*column)->size() == 0) return false;
  const ds::storage::Column& col = **column;
  row %= col.size();
  if (col.IsNull(row)) return false;
  *out = spec;
  const double v = col.GetNumeric(row);
  switch (col.type()) {
    case ds::storage::ColumnType::kInt64:
      out->predicates[k].literal = static_cast<int64_t>(v);
      break;
    case ds::storage::ColumnType::kFloat64:
      out->predicates[k].literal = v;
      break;
    case ds::storage::ColumnType::kCategorical:
      out->predicates[k].literal = col.dict()->Decode(static_cast<int64_t>(v));
      break;
  }
  return true;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  static Fixture* fx = MakeFixture();
  if (size > 4096) return 0;
  const std::string sql(reinterpret_cast<const char*>(data), size);

  auto spec = ds::sql::ParseAndBind(*fx->catalog, sql);
  if (!spec.ok()) return 0;

  auto dense = fx->space.FeaturizeWithSamples(*spec, fx->samples);

  static thread_local ds::mscn::FeaturizeScratch scratch;
  static thread_local ds::mscn::SparseQueryFeatures sparse;
  auto sparse_status = fx->space.FeaturizeSparse(
      *spec, fx->samples, /*use_bitmaps=*/true, &scratch, &sparse);

  if (dense.ok() != sparse_status.ok()) ParityFailure("status", sql);
  if (!dense.ok()) return 0;

  CheckRows(dense->tables, sparse.tables, "tables", sql);
  CheckRows(dense->joins, sparse.joins, "joins", sql);
  CheckRows(dense->predicates, sparse.predicates, "predicates", sql);

  // Neighbour featurization: spec -> first -> second, each next to its
  // predecessor with the same scratch, against the per-query path on its
  // own scratch.
  if (spec->predicates.empty()) return 0;
  size_t hash = size;
  for (size_t i = 0; i < size; ++i) hash = hash * 131 + data[i];
  const size_t k = hash % spec->predicates.size();
  static thread_local ds::workload::QuerySpec first, second;
  if (!SampledNeighbour(*fx, *spec, k, hash / 7, &first) ||
      !SampledNeighbour(*fx, *spec, k, hash / 7 + 1 + hash % 5, &second)) {
    return 0;
  }
  static thread_local ds::mscn::FeaturizeScratch alone_scratch;
  static thread_local ds::mscn::SparseQueryFeatures chained[2], alone;
  const ds::workload::QuerySpec* prev_spec = &*spec;
  const ds::mscn::SparseQueryFeatures* prev = &sparse;
  for (int n = 0; n < 2; ++n) {
    const ds::workload::QuerySpec& next = n == 0 ? first : second;
    const auto chained_status = fx->space.FeaturizeSparse(
        next, fx->samples, /*use_bitmaps=*/true, &scratch, &chained[n],
        prev_spec, prev);
    const auto alone_status = fx->space.FeaturizeSparse(
        next, fx->samples, /*use_bitmaps=*/true, &alone_scratch, &alone);
    if (chained_status.ToString() != alone_status.ToString()) {
      std::fprintf(stderr, "neighbour status %s vs per-query %s for: %s\n",
                   chained_status.ToString().c_str(),
                   alone_status.ToString().c_str(), sql.c_str());
      std::abort();
    }
    if (!alone_status.ok()) return 0;
    CheckSame(chained[n].tables, alone.tables, "tables", sql);
    CheckSame(chained[n].joins, alone.joins, "joins", sql);
    CheckSame(chained[n].predicates, alone.predicates, "predicates", sql);
    prev_spec = &next;
    prev = &chained[n];
  }
  return 0;
}

#include "fuzz_driver.h"
