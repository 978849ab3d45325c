// Training datasets and mini-batches for the MSCN model.
//
// The three feature sets of a query have variable sizes (1-N tables, 0-N
// joins, 0-N predicates). Training and serving batches pack each set's CSR
// rows with no padding and pool through an element -> row map; a serving
// batch also shares a row that repeats the previous query's. A dense batch
// pads each set to the batch maximum and carries 0/1 masks; it is the
// reference the tests hold the padding-free path to.

#ifndef DS_MSCN_DATASET_H_
#define DS_MSCN_DATASET_H_

#include <span>
#include <vector>

#include "ds/mscn/featurizer.h"
#include "ds/nn/tensor.h"
#include "ds/workload/labeler.h"

namespace ds::mscn {

/// Featurized queries with their true cardinalities.
struct Dataset {
  /// Each query's CSR rows, sized exactly to its nonzeros.
  std::vector<SparseQueryFeatures> features;
  std::vector<double> labels;  // true cardinalities

  size_t size() const { return features.size(); }

  /// Featurizes a labeled workload with FeatureSpace::FeaturizeSparse, the
  /// serving featurizer: string literals resolve through `samples`, and a
  /// query labeled with bitmaps gets its table rows' bitmaps evaluated on
  /// `samples` (the sample set the labeler used, so they are the stored
  /// ones).
  static Result<Dataset> Build(
      const FeatureSpace& space, const est::SampleSet& samples,
      const std::vector<workload::LabeledQuery>& workload);
};

/// A padded dense mini-batch: flat [B*S, dim] feature tensors plus [B, S]
/// masks (the reference layout; see the file comment).
struct Batch {
  nn::Tensor tables, table_mask;
  nn::Tensor joins, join_mask;
  nn::Tensor predicates, predicate_mask;

  size_t batch_size() const { return table_mask.dim(0); }
};

/// Assembles the padded batch of `queries`, in order. Set sizes are padded
/// to the per-batch maximum (at least 1 so tensor shapes stay valid).
Batch MakeBatch(const std::vector<QueryFeatures>& queries,
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

/// Packs the queries `indices` of `dataset` for a training step: every
/// element gets its own row, in query order, so the slots are the identity.
/// No row is shared: a shared row's gradient would sum two queries' dy
/// before the product and round differently. Every buffer is reserved to
/// the batch's exact totals before it is filled, so a batch no larger than
/// the last allocates nothing and a larger one grows to its size.
void PackTrainingBatch(const Dataset& dataset,
                       std::span<const size_t> indices,
                       const FeatureSpace& space, SparseBatch* out);

}  // namespace ds::mscn

#endif  // DS_MSCN_DATASET_H_
