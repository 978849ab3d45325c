#include "ds/mscn/dataset.h"

#include <algorithm>
#include <cstring>

namespace ds::mscn {

Result<Dataset> Dataset::Build(
    const FeatureSpace& space, const est::SampleSet& samples,
    const std::vector<workload::LabeledQuery>& workload) {
  Dataset ds;
  ds.features.reserve(workload.size());
  ds.labels.reserve(workload.size());
  for (const auto& lq : workload) {
    DS_ASSIGN_OR_RETURN(workload::QuerySpec resolved,
                        ResolveStringLiterals(lq.spec, samples));
    DS_ASSIGN_OR_RETURN(QueryFeatures qf,
                        space.Featurize(resolved, lq.bitmaps));
    ds.features.push_back(std::move(qf));
    ds.labels.push_back(static_cast<double>(lq.cardinality));
  }
  return ds;
}

namespace {

// Fills `flat` [B*S, dim] and `mask` [B, S] from per-query element lists.
void PackSet(const std::vector<const std::vector<std::vector<float>>*>& sets,
             size_t dim, nn::Tensor* flat, nn::Tensor* mask) {
  const size_t b = sets.size();
  size_t s = 1;
  for (const auto* set : sets) s = std::max(s, set->size());
  *flat = nn::Tensor({b * s, dim});
  *mask = nn::Tensor({b, s});
  for (size_t i = 0; i < b; ++i) {
    const auto& elements = *sets[i];
    for (size_t j = 0; j < elements.size(); ++j) {
      DS_CHECK_EQ(elements[j].size(), dim);
      std::copy(elements[j].begin(), elements[j].end(),
                flat->data() + (i * s + j) * dim);
      mask->at(i, j) = 1.0f;
    }
  }
}

}  // namespace

Batch MakeBatch(const Dataset& dataset, const std::vector<size_t>& indices,
                const FeatureSpace& space) {
  Batch batch;
  std::vector<const std::vector<std::vector<float>>*> tables, joins, preds;
  tables.reserve(indices.size());
  joins.reserve(indices.size());
  preds.reserve(indices.size());
  batch.labels.reserve(indices.size());
  for (size_t idx : indices) {
    const QueryFeatures& qf = dataset.features[idx];
    tables.push_back(&qf.tables);
    joins.push_back(&qf.joins);
    preds.push_back(&qf.predicates);
    batch.labels.push_back(dataset.labels[idx]);
  }
  PackSet(tables, space.table_dim(), &batch.tables, &batch.table_mask);
  PackSet(joins, space.join_dim(), &batch.joins, &batch.join_mask);
  PackSet(preds, space.pred_dim(), &batch.predicates, &batch.predicate_mask);
  return batch;
}

namespace {

bool SameRow(const nn::SparseRows& a, size_t ra, const nn::SparseRows& b,
             size_t rb) {
  const uint32_t ab = a.row_offsets[ra], ae = a.row_offsets[ra + 1];
  const uint32_t bb = b.row_offsets[rb], be = b.row_offsets[rb + 1];
  const size_t n = ae - ab;
  return n == be - bb &&
         std::memcmp(a.cols.data() + ab, b.cols.data() + bb,
                     n * sizeof(uint32_t)) == 0 &&
         std::memcmp(a.vals.data() + ab, b.vals.data() + bb,
                     n * sizeof(float)) == 0;
}

void PackSparseSet(const std::vector<const SparseQueryFeatures*>& queries,
                   nn::SparseRows SparseQueryFeatures::* member, size_t dim,
                   SparseSet* out) {
  out->rows.Clear(dim);
  out->offsets.clear();
  out->slots.clear();
  out->offsets.push_back(0);
  for (size_t i = 0; i < queries.size(); ++i) {
    const nn::SparseRows& src = queries[i]->*member;
    const nn::SparseRows* prev = i > 0 ? &(queries[i - 1]->*member) : nullptr;
    for (size_t j = 0; j < src.rows(); ++j) {
      if (prev != nullptr && j < prev->rows() && SameRow(src, j, *prev, j)) {
        out->slots.push_back(out->slots[out->offsets[i - 1] + j]);
      } else {
        out->slots.push_back(static_cast<uint32_t>(out->rows.rows()));
        out->rows.AppendRowFrom(src, j);
      }
    }
    out->offsets.push_back(static_cast<uint32_t>(out->slots.size()));
  }
}

}  // namespace

void PackSparseBatch(const std::vector<const SparseQueryFeatures*>& queries,
                     const FeatureSpace& space, SparseBatch* out) {
  PackSparseSet(queries, &SparseQueryFeatures::tables, space.table_dim(),
                &out->tables);
  PackSparseSet(queries, &SparseQueryFeatures::joins, space.join_dim(),
                &out->joins);
  PackSparseSet(queries, &SparseQueryFeatures::predicates, space.pred_dim(),
                &out->predicates);
}

}  // namespace ds::mscn
