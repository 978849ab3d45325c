#include "ds/storage/table.h"

namespace ds::storage {

Result<Column*> Table::AddColumn(std::string name, ColumnType type) {
  if (index_.count(name) > 0) {
    return Status::AlreadyExists("column '" + name + "' already exists in '" +
                                 name_ + "'");
  }
  index_.emplace(name, columns_.size());
  columns_.push_back(std::make_unique<Column>(std::move(name), type));
  return columns_.back().get();
}

Result<Column*> Table::AddCategoricalColumnSharing(
    std::string name, std::shared_ptr<Dictionary> dict) {
  if (index_.count(name) > 0) {
    return Status::AlreadyExists("column '" + name + "' already exists in '" +
                                 name_ + "'");
  }
  index_.emplace(name, columns_.size());
  columns_.push_back(std::make_unique<Column>(std::move(name), std::move(dict)));
  return columns_.back().get();
}

Result<const Column*> Table::GetColumn(std::string_view name) const {
  auto it = index_.find(name);
  if (it == index_.end()) {
    return Status::NotFound("no column '" + std::string(name) +
                            "' in table '" + name_ + "'");
  }
  return static_cast<const Column*>(columns_[it->second].get());
}

Result<Column*> Table::GetMutableColumn(const std::string& name) {
  auto it = index_.find(name);
  if (it == index_.end()) {
    return Status::NotFound("no column '" + name + "' in table '" + name_ +
                            "'");
  }
  return columns_[it->second].get();
}

Result<size_t> Table::ColumnIndex(const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) {
    return Status::NotFound("no column '" + name + "' in table '" + name_ +
                            "'");
  }
  return it->second;
}

Status Table::CheckConsistent() const {
  for (const auto& col : columns_) {
    if (col->size() != num_rows()) {
      return Status::Internal("table '" + name_ + "': column '" + col->name() +
                              "' has " + std::to_string(col->size()) +
                              " rows, expected " + std::to_string(num_rows()));
    }
  }
  return Status::OK();
}

size_t Table::MemoryUsage() const {
  size_t bytes = 0;
  for (const auto& col : columns_) {
    bytes += col->ints().capacity() * sizeof(int64_t);
    bytes += col->doubles().capacity() * sizeof(double);
    if (col->dict() != nullptr) {
      for (const auto& s : col->dict()->values()) bytes += s.size() + 32;
    }
  }
  return bytes;
}

std::unique_ptr<Table> MaterializeRows(const Table& table,
                                       const std::vector<uint32_t>& rows) {
  auto out = std::make_unique<Table>(table.name());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& src = table.column(c);
    Column* dst;
    if (src.type() == ColumnType::kCategorical) {
      dst = out->AddCategoricalColumnSharing(src.name(), src.dict()).value();
    } else {
      dst = out->AddColumn(src.name(), src.type()).value();
    }
    for (uint32_t r : rows) dst->AppendFrom(src, r);
  }
  return out;
}

}  // namespace ds::storage
