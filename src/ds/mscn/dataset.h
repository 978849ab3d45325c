// Training datasets and mini-batches for the MSCN model.
//
// The three feature sets of a query have variable sizes (1-N tables, 0-N
// joins, 0-N predicates). A dense (training) batch pads each set to the
// batch maximum and carries 0/1 masks so the masked set-average only pools
// real elements; a sparse (serving) batch packs no padding at all and pools
// through an element -> row map instead.

#ifndef DS_MSCN_DATASET_H_
#define DS_MSCN_DATASET_H_

#include <vector>

#include "ds/mscn/featurizer.h"
#include "ds/nn/tensor.h"
#include "ds/workload/labeler.h"

namespace ds::mscn {

/// Featurized queries with their true cardinalities.
struct Dataset {
  std::vector<QueryFeatures> features;
  std::vector<double> labels;  // true cardinalities

  size_t size() const { return features.size(); }

  /// Featurizes a labeled workload. Each query's string literals are
  /// resolved through the samples; its stored bitmaps (computed by the
  /// labeler against the same samples) feed the table features.
  static Result<Dataset> Build(
      const FeatureSpace& space, const est::SampleSet& samples,
      const std::vector<workload::LabeledQuery>& workload);
};

/// A padded mini-batch: flat [B*S, dim] feature tensors plus [B, S] masks.
struct Batch {
  nn::Tensor tables, table_mask;
  nn::Tensor joins, join_mask;
  nn::Tensor predicates, predicate_mask;
  std::vector<double> labels;

  size_t batch_size() const { return table_mask.dim(0); }
};

/// Assembles the batch for `indices` of `dataset`. Set sizes are padded to
/// the per-batch maximum (at least 1 so tensor shapes stay valid).
Batch MakeBatch(const Dataset& dataset, const std::vector<size_t>& indices,
                const FeatureSpace& space);

/// One set of a sparse mini-batch. The set MLP runs on `rows` only: each
/// element's CSR feature row once, except that an element whose row equals
/// the previous query's row at the same position reuses that row. Query i
/// pools the MLP outputs of rows slots[offsets[i]], ...,
/// slots[offsets[i + 1] - 1], in element order.
struct SparseSet {
  nn::SparseRows rows;
  std::vector<uint32_t> offsets;  // one per query, then the end
  std::vector<uint32_t> slots;    // one per element: its row in `rows`
};

/// A mini-batch with CSR feature rows and no padding: a query pools exactly
/// its own elements, so its estimate never depends on the rest of the
/// batch. Designed for reuse — packing into a warm SparseBatch allocates
/// nothing.
struct SparseBatch {
  SparseSet tables, joins, predicates;
};

/// Packs per-query sparse features into `out`: per set, every element's
/// row, mapped onto the previous query's row at the same position when the
/// two are bit-for-bit equal (template instances differ in one literal, so
/// most of their rows repeat). Costs one comparison per element and no
/// second copy of the rows.
void PackSparseBatch(const std::vector<const SparseQueryFeatures*>& queries,
                     const FeatureSpace& space, SparseBatch* out);

}  // namespace ds::mscn

#endif  // DS_MSCN_DATASET_H_
