#include "ds/exec/executor.h"

#include <algorithm>
#include <bit>
#include <tuple>
#include <vector>

#include "ds/exec/predicate.h"

namespace ds::exec {

namespace {

constexpr uint32_t kNoEntry = UINT32_MAX;

// An equi-join edge resolved to positions in spec.tables.
struct Edge {
  size_t left = 0;
  size_t right = 0;
  const storage::Column* left_col = nullptr;
  const storage::Column* right_col = nullptr;
};

// A join edge as one step applies it: the column of the table the step adds
// and, on the other side, the tuple slot and column it is compared with.
struct StepEdge {
  const storage::Column* next_col;
  const storage::Column* other_col;
  size_t other_slot;
};

// Per-thread executor scratch. Every buffer only grows, so a thread that has
// counted a query at least as large as the current one allocates nothing.
// The counts of valid entries live beside the buffers, not in their sizes.
struct ExecScratch {
  std::vector<BoundPredicate> bound;
  std::vector<uint8_t> bitmap;
  // Indexed by position in spec.tables.
  std::vector<const storage::Table*> tables;
  std::vector<std::vector<uint32_t>> rows;  // qualifying row ids
  std::vector<size_t> num_rows;
  std::vector<size_t> slot;  // tuple slot once joined, else kUnjoined

  std::vector<Edge> edges;  // in spec.joins order
  std::vector<StepEdge> step_edges;

  // Chained hash table over the qualifying rows of the table a step adds:
  // heads[bucket] is the bucket's first entry, chain[entry] the next one.
  std::vector<uint32_t> heads;
  std::vector<uint32_t> chain;
  std::vector<int64_t> keys;
  std::vector<uint32_t> build_rows;

  // Row-id tuples materialized by the steps before the last one.
  std::vector<uint32_t> tuples;
  std::vector<uint32_t> next_tuples;
};

constexpr size_t kUnjoined = SIZE_MAX;

ExecScratch& LocalExecScratch() {
  static thread_local ExecScratch scratch;
  return scratch;
}

// `v` grown to at least `n` elements; never shrinks, so capacity is kept.
template <typename T>
T* Grow(std::vector<T>* v, size_t n) {
  if (v->size() < n) v->resize(n);
  return v->data();
}

inline uint32_t Bucket(int64_t key, int shift) {
  return static_cast<uint32_t>(
      (static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ULL) >> shift);
}

// Position of `name` in spec.tables; Validate() guarantees it is there.
size_t PositionOf(const workload::QuerySpec& spec, const std::string& name) {
  const auto it = std::find(spec.tables.begin(), spec.tables.end(), name);
  DS_CHECK(it != spec.tables.end());
  return static_cast<size_t>(it - spec.tables.begin());
}

// Keeps the first `*n` row ids whose values in `a` and `b` are non-null and
// equal: a join edge between two columns of one table is a row filter.
void FilterEqualColumns(const storage::Column& a, const storage::Column& b,
                        uint32_t* rows, size_t* n) {
  size_t kept = 0;
  for (size_t i = 0; i < *n; ++i) {
    const uint32_t r = rows[i];
    rows[kept] = r;
    kept += !a.IsNull(r) && !b.IsNull(r) && a.ints()[r] == b.ints()[r];
  }
  *n = kept;
}

}  // namespace

Result<uint64_t> Executor::Count(const workload::QuerySpec& spec) const {
  DS_RETURN_NOT_OK(spec.Validate(*catalog_));
  ExecScratch& s = LocalExecScratch();
  const size_t num_tables = spec.tables.size();
  s.tables.resize(num_tables);
  s.num_rows.resize(num_tables);
  if (s.rows.size() < num_tables) s.rows.resize(num_tables);

  // 1. Filter every table a column at a time, then turn its bitmap into the
  // qualifying row ids.
  for (size_t t = 0; t < num_tables; ++t) {
    DS_ASSIGN_OR_RETURN(s.tables[t], catalog_->GetTable(spec.tables[t]));
    const storage::Table& table = *s.tables[t];
    DS_RETURN_NOT_OK(
        BindPredicatesInto(table, spec.tables[t], spec.predicates, &s.bound));
    QualifyingBitmapInto(table, s.bound, &s.bitmap);
    const size_t n = table.num_rows();
    uint32_t* rows = Grow(&s.rows[t], n);
    const uint8_t* bitmap = s.bitmap.data();
    size_t kept = 0;
    for (size_t r = 0; r < n; ++r) {
      rows[kept] = static_cast<uint32_t>(r);
      kept += bitmap[r];
    }
    s.num_rows[t] = kept;
  }

  // 2. Resolve the join edges. Float join columns are rejected; an edge
  // within one table filters that table's rows.
  s.edges.clear();
  for (const auto& j : spec.joins) {
    Edge e;
    e.left = PositionOf(spec, j.left_table);
    e.right = PositionOf(spec, j.right_table);
    DS_ASSIGN_OR_RETURN(e.left_col, s.tables[e.left]->GetColumn(j.left_column));
    DS_ASSIGN_OR_RETURN(e.right_col,
                        s.tables[e.right]->GetColumn(j.right_column));
    for (const auto& [table, column, col] :
         {std::tuple{&j.left_table, &j.left_column, e.left_col},
          std::tuple{&j.right_table, &j.right_column, e.right_col}}) {
      if (col->type() == storage::ColumnType::kFloat64) {
        return Status::InvalidArgument("float join column " + *table + "." +
                                       *column + " is unsupported");
      }
    }
    s.edges.push_back(e);
  }
  for (const Edge& e : s.edges) {
    if (e.left == e.right) {
      FilterEqualColumns(*e.left_col, *e.right_col, s.rows[e.left].data(),
                         &s.num_rows[e.left]);
    }
  }
  if (num_tables == 1) return static_cast<uint64_t>(s.num_rows[0]);

  // 3. Left-deep hash joins, starting from the table with the fewest
  // qualifying rows; each step adds the far end of the first edge (in spec
  // order) that leaves the joined tables. Every step but the last
  // materializes row-id tuples, a table's ids at its slot; the last counts
  // its matches. The start table's row ids are the first materialized step.
  size_t start = 0;
  for (size_t t = 1; t < num_tables; ++t) {
    if (s.num_rows[t] < s.num_rows[start]) start = t;
  }
  if (s.num_rows[start] == 0) return 0;
  const uint64_t max_tuples = options_.max_intermediate_tuples;
  if (s.num_rows[start] > max_tuples) {
    return Status::OutOfRange(
        "intermediate result exceeds max_intermediate_tuples");
  }
  s.slot.assign(num_tables, kUnjoined);
  s.slot[start] = 0;
  const uint32_t* tuples = s.rows[start].data();
  size_t num_tuples = s.num_rows[start];
  for (size_t step = 1;; ++step) {
    size_t next = kUnjoined;
    for (const Edge& e : s.edges) {
      const bool l_in = s.slot[e.left] != kUnjoined;
      if (l_in != (s.slot[e.right] != kUnjoined)) {
        next = l_in ? e.right : e.left;
        break;
      }
    }
    // Validate() guarantees connectivity, so there is always a next table.
    DS_CHECK(next != kUnjoined);
    s.slot[next] = step;

    // Every edge between `next` and a table joined before it, in spec
    // order. The first is the build edge; the others are checked on each
    // match.
    s.step_edges.clear();
    for (const Edge& e : s.edges) {
      if (e.left == e.right) continue;
      const bool next_left = e.left == next;
      if (!next_left && e.right != next) continue;
      const size_t other = next_left ? e.right : e.left;
      if (s.slot[other] >= step) continue;
      s.step_edges.push_back({next_left ? e.left_col : e.right_col,
                              next_left ? e.right_col : e.left_col,
                              s.slot[other]});
    }
    const StepEdge& build_edge = s.step_edges.front();
    const StepEdge* residual_begin = s.step_edges.data() + 1;
    const StepEdge* residual_end = s.step_edges.data() + s.step_edges.size();

    // Build: a chained hash table over next's qualifying rows, keyed on
    // the build edge's column. NULL keys join nothing.
    const storage::Column& build_col = *build_edge.next_col;
    const int64_t* build_keys = build_col.ints().data();
    const uint32_t* next_rows = s.rows[next].data();
    const size_t num_next = s.num_rows[next];
    const int bits = std::max(1, static_cast<int>(std::bit_width(num_next)));
    const int shift = 64 - bits;
    uint32_t* heads = Grow(&s.heads, size_t{1} << bits);
    std::fill(heads, heads + (size_t{1} << bits), kNoEntry);
    uint32_t* chain = Grow(&s.chain, num_next);
    int64_t* keys = Grow(&s.keys, num_next);
    uint32_t* build_rows = Grow(&s.build_rows, num_next);
    uint32_t entries = 0;
    for (size_t i = 0; i < num_next; ++i) {
      const uint32_t r = next_rows[i];
      if (build_col.IsNull(r)) continue;
      const uint32_t b = Bucket(build_keys[r], shift);
      chain[entries] = heads[b];
      keys[entries] = build_keys[r];
      build_rows[entries] = r;
      heads[b] = entries++;
    }

    // Probe with every tuple's key on the build edge's other side. The last
    // step only counts the matches; the others append them as tuples.
    const storage::Column& probe_col = *build_edge.other_col;
    const int64_t* probe_keys = probe_col.ints().data();
    const size_t probe_slot = build_edge.other_slot;
    const size_t stride = step;
    const bool last = step + 1 == num_tables;
    uint64_t matches = 0;
    for (size_t t = 0; t < num_tuples; ++t) {
      const uint32_t* tuple = tuples + t * stride;
      const uint32_t o = tuple[probe_slot];
      if (probe_col.IsNull(o)) continue;
      const int64_t key = probe_keys[o];
      for (uint32_t e = heads[Bucket(key, shift)]; e != kNoEntry;
           e = chain[e]) {
        if (keys[e] != key) continue;
        const uint32_t r = build_rows[e];
        bool pass = true;
        for (const StepEdge* re = residual_begin; pass && re != residual_end;
             ++re) {
          const uint32_t ro = tuple[re->other_slot];
          pass = !re->next_col->IsNull(r) && !re->other_col->IsNull(ro) &&
                 re->next_col->ints()[r] == re->other_col->ints()[ro];
        }
        if (!pass) continue;
        ++matches;
        if (last) continue;
        if (matches > max_tuples) {
          return Status::OutOfRange(
              "intermediate result exceeds max_intermediate_tuples");
        }
        const size_t end = matches * (stride + 1);
        if (end > s.next_tuples.size()) {
          s.next_tuples.resize(std::max(end, 2 * s.next_tuples.size()));
        }
        uint32_t* dst = s.next_tuples.data() + end - (stride + 1);
        std::copy(tuple, tuple + stride, dst);
        dst[stride] = r;
      }
    }
    if (last || matches == 0) return matches;
    s.tuples.swap(s.next_tuples);
    tuples = s.tuples.data();
    num_tuples = matches;
  }
}

}  // namespace ds::exec
