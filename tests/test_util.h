// Shared fixtures for deepsketch tests: a tiny hand-built catalog with known
// contents, and a brute-force COUNT(*) reference evaluator used to verify
// the hash-join executor property-style.

#ifndef DS_TESTS_TEST_UTIL_H_
#define DS_TESTS_TEST_UTIL_H_

#include <memory>
#include <vector>

#include "ds/est/sample.h"
#include "ds/mscn/featurizer.h"
#include "ds/mscn/model.h"
#include "ds/storage/catalog.h"
#include "ds/workload/query_spec.h"

namespace ds::testutil {

/// Builds a 3-table mini star schema with deterministic contents:
///
///   movie(id 1..n, year, genre_id)          n = options-independent 40 rows
///   genre(id 1..5, name: "g1".."g5")
///   rating(id, movie_id -> movie.id, score float, votes int)
///
/// year = 2000 + (id % 10); genre_id = 1 + (id % 5); every movie has
/// id % 3 ratings (0, 1 or 2), score = (movie_id % 50) / 10.0,
/// votes = movie_id * 7 % 100. movie with id 13 has NULL year.
std::unique_ptr<storage::Catalog> MakeTinyCatalog();

/// Exact COUNT(*) by exhaustive enumeration over the cross product of all
/// listed tables — O(prod of table sizes); only for tiny catalogs. The spec
/// must already be validated.
uint64_t BruteForceCount(const storage::Catalog& catalog,
                         const workload::QuerySpec& spec);

/// Batches over the tiny catalog for the sparse-inference parity tests:
/// a mixed batch whose sets need padding in the dense layout, and the
/// instances of two '?' templates — one with a join (its rating and join
/// rows repeat between instances), one without (no query has a join, so
/// the packed join set is empty).
std::vector<std::vector<workload::QuerySpec>> SparsePackingBatches(
    const storage::Catalog& catalog, const est::SampleSet& samples);

/// Asserts that MscnModel::InferSparse over PackSparseBatch reproduces
/// MscnModel::Infer over the padded MakeBatch of `specs` bit for bit, in
/// whatever quant mode `model` is packed. Returns the number of set
/// elements whose row the packer reused from the previous query.
size_t ExpectInferSparseMatchesInfer(
    const mscn::MscnModel& model, const mscn::FeatureSpace& space,
    const est::SampleSet& samples,
    const std::vector<workload::QuerySpec>& specs);

}  // namespace ds::testutil

#endif  // DS_TESTS_TEST_UTIL_H_
