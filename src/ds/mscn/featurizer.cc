#include "ds/mscn/featurizer.h"

#include <algorithm>

#include "ds/util/contract.h"

namespace ds::mscn {

std::string FeatureSpace::JoinKey(const workload::JoinEdge& edge) {
  std::string a = edge.left_table + "." + edge.left_column;
  std::string b = edge.right_table + "." + edge.right_column;
  if (b < a) std::swap(a, b);
  return a + "=" + b;
}

Result<FeatureSpace> FeatureSpace::Create(
    const storage::Catalog& catalog, const std::vector<std::string>& tables,
    size_t sample_size) {
  FeatureSpace fs;
  fs.sample_size_ = sample_size;
  std::vector<std::string> names = tables.empty() ? catalog.table_names() : tables;
  for (const auto& name : names) {
    DS_ASSIGN_OR_RETURN(const storage::Table* table, catalog.GetTable(name));
    fs.table_index_.emplace(name, fs.table_names_.size());
    fs.table_names_.push_back(name);
    // Every column is a potential predicate target; record its range.
    for (size_t c = 0; c < table->num_columns(); ++c) {
      const storage::Column& col = table->column(c);
      const std::string key = name + "." + col.name();
      fs.column_index_.emplace(key, fs.column_keys_.size());
      fs.column_keys_.push_back(key);
      fs.column_min_.push_back(col.MinNumeric());
      fs.column_max_.push_back(col.MaxNumeric());
    }
  }
  // Joins: every FK edge fully inside the table subset, canonicalized.
  for (const auto& fk : catalog.foreign_keys()) {
    if (fs.table_index_.count(fk.fk_table) == 0 ||
        fs.table_index_.count(fk.pk_table) == 0) {
      continue;
    }
    workload::JoinEdge edge{fk.fk_table, fk.fk_column, fk.pk_table,
                            fk.pk_column};
    const std::string key = JoinKey(edge);
    if (fs.join_index_.count(key) == 0) {
      fs.join_index_.emplace(key, fs.join_keys_.size());
      fs.join_keys_.push_back(key);
    }
  }
  return fs;
}

Result<size_t> FeatureSpace::TableIndex(const std::string& table) const {
  auto it = table_index_.find(table);
  if (it == table_index_.end()) {
    return Status::InvalidArgument("table '" + table +
                                   "' is outside this sketch's feature space");
  }
  return it->second;
}

Result<QueryFeatures> FeatureSpace::Featurize(
    const workload::QuerySpec& spec,
    const std::vector<std::vector<uint8_t>>& bitmaps) const {
  if (!bitmaps.empty() && bitmaps.size() != spec.tables.size()) {
    return Status::InvalidArgument("bitmap count does not match table count");
  }
  QueryFeatures out;

  // Table set: one-hot + bitmap (zero-padded to sample_size).
  for (size_t i = 0; i < spec.tables.size(); ++i) {
    DS_ASSIGN_OR_RETURN(size_t idx, TableIndex(spec.tables[i]));
    std::vector<float> feat(table_dim(), 0.0f);
    feat[idx] = 1.0f;
    if (!bitmaps.empty()) {
      const auto& bm = bitmaps[i];
      const size_t n = std::min(bm.size(), sample_size_);
      for (size_t j = 0; j < n; ++j) {
        feat[table_names_.size() + j] = bm[j] ? 1.0f : 0.0f;
      }
    }
    out.tables.push_back(std::move(feat));
  }

  // Join set: one-hot per edge.
  for (const auto& join : spec.joins) {
    auto it = join_index_.find(JoinKey(join));
    if (it == join_index_.end()) {
      return Status::InvalidArgument(
          "join " + join.ToString() +
          " is outside this sketch's feature space");
    }
    std::vector<float> feat(join_dim(), 0.0f);
    feat[it->second] = 1.0f;
    out.joins.push_back(std::move(feat));
  }

  // Predicate set: column one-hot ⊕ op one-hot ⊕ normalized literal.
  for (const auto& pred : spec.predicates) {
    const std::string key = pred.table + "." + pred.column;
    auto it = column_index_.find(key);
    if (it == column_index_.end()) {
      return Status::InvalidArgument(
          "column " + key + " is outside this sketch's feature space");
    }
    // The literal must resolve against the sketch's feature space, not the
    // live database, so normalization only uses stored min/max. Categorical
    // strings still need the dictionary; FeaturizeWithSamples and the
    // training path both have access to columns sharing it. Here the literal
    // is expected to be numeric already or resolvable via the predicate's
    // CellValue (int64/double); strings reach us only through
    // ResolvePredicateValue at a higher layer.
    double value = 0;
    if (const auto* i = std::get_if<int64_t>(&pred.literal)) {
      value = static_cast<double>(*i);
    } else if (const auto* d = std::get_if<double>(&pred.literal)) {
      value = *d;
    } else {
      return Status::InvalidArgument(
          "string literal must be resolved to its dictionary code before "
          "featurization: " +
          pred.ToString());
    }
    const size_t c = it->second;
    const double lo = column_min_[c], hi = column_max_[c];
    const double norm =
        hi > lo ? std::clamp((value - lo) / (hi - lo), 0.0, 1.0) : 0.5;
    std::vector<float> feat(pred_dim(), 0.0f);
    feat[c] = 1.0f;
    feat[column_keys_.size() + static_cast<size_t>(pred.op)] = 1.0f;
    feat[column_keys_.size() + 3] = static_cast<float>(norm);
    out.predicates.push_back(std::move(feat));
  }
  return out;
}

bool HasStringLiterals(const workload::QuerySpec& spec) {
  for (const auto& pred : spec.predicates) {
    if (std::holds_alternative<std::string>(pred.literal)) return true;
  }
  return false;
}

Status ResolveStringLiteralsInPlace(workload::QuerySpec* spec,
                                    const est::SampleSet& samples) {
  for (auto& pred : spec->predicates) {
    if (!std::holds_alternative<std::string>(pred.literal)) continue;
    DS_ASSIGN_OR_RETURN(const est::TableSample* ts, samples.Get(pred.table));
    DS_ASSIGN_OR_RETURN(const storage::Column* col,
                        ts->rows->GetColumn(pred.column));
    if (col->dict() == nullptr) {
      return Status::InvalidArgument("string literal on non-categorical " +
                                     pred.ToString());
    }
    DS_ASSIGN_OR_RETURN(
        int64_t code, col->dict()->Lookup(std::get<std::string>(pred.literal)));
    pred.literal = code;
  }
  return Status::OK();
}

Result<workload::QuerySpec> ResolveStringLiterals(
    const workload::QuerySpec& spec, const est::SampleSet& samples) {
  workload::QuerySpec resolved = spec;
  DS_RETURN_NOT_OK(ResolveStringLiteralsInPlace(&resolved, samples));
  return resolved;
}

namespace {

// True when `spec` and its neighbour `prev` hold the same predicates on
// `table`, in the same order: then the table's bitmap row is the same.
bool SameTablePredicates(const std::string& table,
                         const workload::QuerySpec& spec,
                         const workload::QuerySpec& prev) {
  const auto& a = spec.predicates;
  const auto& b = prev.predicates;
  for (size_t i = 0, j = 0;; ++i, ++j) {
    while (i < a.size() && a[i].table != table) ++i;
    while (j < b.size() && b[j].table != table) ++j;
    if (i == a.size() || j == b.size()) return i == a.size() && j == b.size();
    if (!(a[i] == b[j])) return false;
  }
}

// Emits the set bits among the first `width` bytes of `bitmap` as columns
// base + j of the table row being built (base: the first bitmap column,
// above the row's table one-hot at `table_idx`).
void EmitBitmap(const std::vector<uint8_t>& bitmap, size_t width,
                uint32_t base, size_t table_idx, nn::SparseRows* rows) {
  const size_t n = std::min(bitmap.size(), width);
  const uint8_t* bm = bitmap.data();
  size_t count = 0;
  for (size_t j = 0; j < n; ++j) count += bm[j] != 0;
  const size_t start = rows->cols.size();
  // Branch-free emission: every column index is stored and the cursor only
  // moves past set bits, so irregular bitmaps (range predicates) cost no
  // mispredictions. The last store can land one past the row's final
  // entry: one slot of slack, trimmed below.
  rows->cols.resize(start + count + 1);
  rows->vals.resize(start + count, 1.0f);
  uint32_t* cp = rows->cols.data() + start;
  for (size_t j = 0; j < n; ++j) {
    *cp = base + static_cast<uint32_t>(j);
    cp += bm[j] != 0;
  }
  // This path writes cols directly (bypassing Push and its checks), so
  // re-assert the CSR invariants it must uphold: every reserved slot
  // filled, and the first bitmap column above the one-hot index keeps the
  // row strictly increasing (bitmap columns ascend with j).
  DS_DCHECK(cp == rows->cols.data() + start + count,
            "bitmap emission filled %zu of %zu reserved CSR slots",
            static_cast<size_t>(cp - (rows->cols.data() + start)), count);
  DS_DCHECK(base > static_cast<uint32_t>(table_idx),
            "bitmap base %u must lie above table one-hot index %zu", base,
            table_idx);
  rows->cols.pop_back();
}

}  // namespace

Status FeatureSpace::FeaturizeSparse(const workload::QuerySpec& spec,
                                     const est::SampleSet& samples,
                                     bool use_bitmaps,
                                     FeaturizeScratch* scratch,
                                     SparseQueryFeatures* out,
                                     const workload::QuerySpec* prev_spec,
                                     const SparseQueryFeatures* prev) const {
  DS_REQUIRE((prev_spec == nullptr) == (prev == nullptr),
             "a neighbour needs both its spec and its features");
  DS_REQUIRE(prev == nullptr ||
                 (prev->tables.rows() == prev_spec->tables.size() &&
                  prev->joins.rows() == prev_spec->joins.size() &&
                  prev->predicates.rows() == prev_spec->predicates.size()),
             "neighbour features do not match the neighbour's spec");
  // Resolve string literals through a reused scratch copy; the common case
  // (numeric-only predicates) featurizes straight from `spec`. Neighbour
  // comparisons use the unresolved specs: equal literals resolve equally.
  const workload::QuerySpec* q = &spec;
  if (HasStringLiterals(spec)) {
    scratch->resolved = spec;
    DS_RETURN_NOT_OK(ResolveStringLiteralsInPlace(&scratch->resolved, samples));
    q = &scratch->resolved;
  }
  out->Clear(table_dim(), join_dim(), pred_dim());

  // Table set: one-hot at the table index, then bitmap ones. The one-hot
  // index is always below the bitmap base, so columns stay strictly
  // increasing; zero bitmap bytes are simply not emitted (the dense kernel
  // skips zeros, so the accumulation order is identical).
  for (size_t t = 0; t < q->tables.size(); ++t) {
    const std::string& tname = q->tables[t];
    if (use_bitmaps && prev_spec != nullptr &&
        t < prev_spec->tables.size() && prev_spec->tables[t] == tname &&
        SameTablePredicates(tname, spec, *prev_spec)) {
      // Same table, same predicates: the neighbour's row is this row.
      out->tables.AppendRowFrom(prev->tables, t);
      continue;
    }
    DS_ASSIGN_OR_RETURN(size_t idx, TableIndex(tname));
    out->tables.Push(static_cast<uint32_t>(idx), 1.0f);
    if (use_bitmaps) {
      DS_RETURN_NOT_OK(samples.BitmapInto(tname, q->predicates,
                                          &scratch->bound, &scratch->bitmap));
      EmitBitmap(scratch->bitmap, sample_size_,
                 static_cast<uint32_t>(table_names_.size()), idx,
                 &out->tables);
    }
    out->tables.EndRow();
  }

  // Join set: a single one. An unchanged join list copies the neighbour's
  // rows; otherwise the canonical key is rebuilt in scratch strings
  // (JoinKey allocates fresh ones).
  if (prev_spec != nullptr && spec.joins == prev_spec->joins) {
    for (size_t r = 0; r < prev->joins.rows(); ++r) {
      out->joins.AppendRowFrom(prev->joins, r);
    }
  } else {
    for (const auto& join : q->joins) {
      auto assign_side = [](std::string* s, const std::string& t,
                            const std::string& c) {
        s->clear();
        *s += t;
        *s += '.';
        *s += c;
      };
      assign_side(&scratch->side_a, join.left_table, join.left_column);
      assign_side(&scratch->side_b, join.right_table, join.right_column);
      const std::string* a = &scratch->side_a;
      const std::string* b = &scratch->side_b;
      if (*b < *a) std::swap(a, b);
      scratch->key.clear();
      scratch->key += *a;
      scratch->key += '=';
      scratch->key += *b;
      auto it = join_index_.find(scratch->key);
      if (it == join_index_.end()) {
        return Status::InvalidArgument(
            "join " + join.ToString() +
            " is outside this sketch's feature space");
      }
      out->joins.Push(static_cast<uint32_t>(it->second), 1.0f);
      out->joins.EndRow();
    }
  }

  // Predicate set: column one-hot, op one-hot, literal (skipped when it
  // normalizes to exactly zero — the dense path's zero-skip equivalent). A
  // predicate equal to the neighbour's at the same index copies its row.
  for (size_t k = 0; k < q->predicates.size(); ++k) {
    if (prev_spec != nullptr && k < prev_spec->predicates.size() &&
        spec.predicates[k] == prev_spec->predicates[k]) {
      out->predicates.AppendRowFrom(prev->predicates, k);
      continue;
    }
    const workload::ColumnPredicate& pred = q->predicates[k];
    scratch->key.clear();
    scratch->key += pred.table;
    scratch->key += '.';
    scratch->key += pred.column;
    auto it = column_index_.find(scratch->key);
    if (it == column_index_.end()) {
      return Status::InvalidArgument("column " + scratch->key +
                                     " is outside this sketch's feature space");
    }
    double value = 0;
    if (const auto* i = std::get_if<int64_t>(&pred.literal)) {
      value = static_cast<double>(*i);
    } else if (const auto* d = std::get_if<double>(&pred.literal)) {
      value = *d;
    } else {
      return Status::InvalidArgument(
          "string literal must be resolved to its dictionary code before "
          "featurization: " +
          pred.ToString());
    }
    const size_t c = it->second;
    const double lo = column_min_[c], hi = column_max_[c];
    const double norm =
        hi > lo ? std::clamp((value - lo) / (hi - lo), 0.0, 1.0) : 0.5;
    out->predicates.Push(static_cast<uint32_t>(c), 1.0f);
    out->predicates.Push(
        static_cast<uint32_t>(column_keys_.size() + static_cast<size_t>(pred.op)),
        1.0f);
    const float normf = static_cast<float>(norm);
    if (normf != 0.0f) {
      out->predicates.Push(static_cast<uint32_t>(column_keys_.size() + 3),
                           normf);
    }
    out->predicates.EndRow();
  }
  // Featurization postcondition: one CSR row per set element — the batch
  // packer (PackSparseBatch) indexes rows positionally.
  DS_ENSURE(out->tables.rows() == q->tables.size() &&
                out->joins.rows() == q->joins.size() &&
                out->predicates.rows() == q->predicates.size(),
            "featurized %zu/%zu/%zu rows for %zu tables, %zu joins, %zu "
            "predicates",
            out->tables.rows(), out->joins.rows(), out->predicates.rows(),
            q->tables.size(), q->joins.size(), q->predicates.size());
  return Status::OK();
}

Result<QueryFeatures> FeatureSpace::FeaturizeWithSamples(
    const workload::QuerySpec& spec, const est::SampleSet& samples) const {
  DS_ASSIGN_OR_RETURN(workload::QuerySpec resolved,
                      ResolveStringLiterals(spec, samples));
  std::vector<std::vector<uint8_t>> bitmaps;
  bitmaps.reserve(resolved.tables.size());
  for (const auto& table : resolved.tables) {
    DS_ASSIGN_OR_RETURN(auto bitmap,
                        samples.Bitmap(table, resolved.predicates));
    bitmaps.push_back(std::move(bitmap));
  }
  return Featurize(resolved, bitmaps);
}

void FeatureSpace::Write(util::BinaryWriter* w) const {
  w->WriteStringVector(table_names_);
  w->WriteStringVector(join_keys_);
  w->WriteStringVector(column_keys_);
  w->WritePodVector(column_min_);
  w->WritePodVector(column_max_);
  w->WriteU64(sample_size_);
}

Result<FeatureSpace> FeatureSpace::Read(util::BinaryReader* r) {
  FeatureSpace fs;
  DS_RETURN_NOT_OK(r->ReadStringVector(&fs.table_names_));
  DS_RETURN_NOT_OK(r->ReadStringVector(&fs.join_keys_));
  DS_RETURN_NOT_OK(r->ReadStringVector(&fs.column_keys_));
  DS_RETURN_NOT_OK(r->ReadPodVector(&fs.column_min_));
  DS_RETURN_NOT_OK(r->ReadPodVector(&fs.column_max_));
  uint64_t ss = 0;
  DS_RETURN_NOT_OK(r->ReadU64(&ss));
  fs.sample_size_ = ss;
  if (fs.column_min_.size() != fs.column_keys_.size() ||
      fs.column_max_.size() != fs.column_keys_.size()) {
    return Status::ParseError("inconsistent feature space file");
  }
  for (size_t i = 0; i < fs.table_names_.size(); ++i) {
    fs.table_index_.emplace(fs.table_names_[i], i);
  }
  for (size_t i = 0; i < fs.join_keys_.size(); ++i) {
    fs.join_index_.emplace(fs.join_keys_[i], i);
  }
  for (size_t i = 0; i < fs.column_keys_.size(); ++i) {
    fs.column_index_.emplace(fs.column_keys_[i], i);
  }
  return fs;
}

}  // namespace ds::mscn
