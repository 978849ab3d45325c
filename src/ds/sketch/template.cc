#include "ds/sketch/template.h"

#include <algorithm>
#include <cmath>

namespace ds::sketch {

namespace {

using storage::CellValue;
using storage::Column;
using storage::ColumnType;
using workload::ColumnPredicate;
using workload::CompareOp;
using workload::QuerySpec;

std::string ValueLabel(const Column& col, double v) {
  if (col.type() == ColumnType::kCategorical) {
    return col.dict()->Decode(static_cast<int64_t>(v));
  }
  if (col.type() == ColumnType::kInt64) {
    return std::to_string(static_cast<int64_t>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

CellValue NumericToCell(const Column& col, double v) {
  switch (col.type()) {
    case ColumnType::kInt64:
      return static_cast<int64_t>(v);
    case ColumnType::kFloat64:
      return v;
    case ColumnType::kCategorical:
      return col.dict()->Decode(static_cast<int64_t>(v));
  }
  return int64_t{0};
}

}  // namespace

Result<std::vector<TemplateInstance>> InstantiateTemplate(
    const sql::BoundQuery& bound, const est::SampleSet& samples,
    const TemplateOptions& options) {
  if (!bound.placeholder.has_value()) {
    return Status::InvalidArgument("query has no '?' placeholder");
  }
  const auto& ph = *bound.placeholder;
  DS_ASSIGN_OR_RETURN(const est::TableSample* ts, samples.Get(ph.table));
  DS_ASSIGN_OR_RETURN(const Column* col, ts->rows->GetColumn(ph.column));

  // Distinct sampled values, sorted: "we draw a value from the column sample
  // that is part of the sketch." A stable sort plus unique keeps the first
  // sampled of equal values (as a std::set would), without a node per value.
  std::vector<double> values;
  values.reserve(col->size());
  for (size_t r = 0; r < col->size(); ++r) {
    if (!col->IsNull(r)) values.push_back(col->GetNumeric(r));
  }
  if (values.empty()) {
    return Status::InvalidArgument("placeholder column '" + ph.table + "." +
                                   ph.column +
                                   "' has no non-null sampled values");
  }
  std::stable_sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());

  // Each instance is the bound spec plus one (distinct) or two (bucket)
  // placeholder predicates; room for them is reserved up front.
  auto instance_of = [&](size_t extra) {
    TemplateInstance inst;
    inst.spec.tables = bound.spec.tables;
    inst.spec.joins = bound.spec.joins;
    inst.spec.predicates.reserve(bound.spec.predicates.size() + extra);
    inst.spec.predicates = bound.spec.predicates;
    return inst;
  };
  auto placeholder_predicate = [&](CompareOp op, double v) {
    return ColumnPredicate{ph.table, ph.column, op, NumericToCell(*col, v)};
  };

  std::vector<TemplateInstance> instances;

  if (options.grouping == TemplateOptions::Grouping::kDistinct) {
    // Evenly subsample the sorted domain when over the cap.
    std::vector<double> chosen;
    if (options.max_instances <= 1) {
      chosen.push_back(values[values.size() / 2]);
    } else if (values.size() <= options.max_instances) {
      chosen = std::move(values);
    } else {
      chosen.reserve(options.max_instances);
      for (size_t i = 0; i < options.max_instances; ++i) {
        size_t idx = i * (values.size() - 1) / (options.max_instances - 1);
        chosen.push_back(values[idx]);
      }
      chosen.erase(std::unique(chosen.begin(), chosen.end()), chosen.end());
    }
    instances.reserve(chosen.size());
    for (double v : chosen) {
      TemplateInstance inst = instance_of(1);
      inst.label = ValueLabel(*col, v);
      inst.spec.predicates.push_back(placeholder_predicate(ph.op, v));
      instances.push_back(std::move(inst));
    }
    return instances;
  }

  // Bucket grouping: contiguous ranges over the sorted sampled values.
  if (ph.op != CompareOp::kEq) {
    return Status::InvalidArgument(
        "bucket grouping requires an '=' placeholder");
  }
  if (col->type() == ColumnType::kCategorical) {
    return Status::InvalidArgument(
        "bucket grouping is not defined for categorical columns");
  }
  const size_t num_buckets =
      std::max<size_t>(1, std::min(options.num_buckets, values.size()));
  instances.reserve(num_buckets);
  for (size_t b = 0; b < num_buckets; ++b) {
    const size_t begin = b * values.size() / num_buckets;
    const size_t end = (b + 1) * values.size() / num_buckets;
    if (begin >= end) continue;
    const double first = values[begin];
    const double last = values[end - 1];
    TemplateInstance inst = instance_of(2);
    inst.label = "[";
    inst.label += ValueLabel(*col, first);
    inst.label += " .. ";
    inst.label += ValueLabel(*col, last);
    inst.label += "]";
    // (first, last) inclusive via strict bounds nudged outside the range.
    double lo, hi;
    if (col->type() == ColumnType::kInt64) {
      lo = first - 1;
      hi = last + 1;
    } else {
      const double nudge =
          1e-9 * std::max(1.0, std::abs(last) + std::abs(first));
      lo = first - nudge;
      hi = last + nudge;
    }
    inst.spec.predicates.push_back(placeholder_predicate(CompareOp::kGt, lo));
    inst.spec.predicates.push_back(placeholder_predicate(CompareOp::kLt, hi));
    instances.push_back(std::move(inst));
  }
  return instances;
}

}  // namespace ds::sketch
