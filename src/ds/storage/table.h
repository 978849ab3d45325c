// Tables: named collections of equally sized columns.

#ifndef DS_STORAGE_TABLE_H_
#define DS_STORAGE_TABLE_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ds/storage/column.h"
#include "ds/util/status.h"
#include "ds/util/string_util.h"

namespace ds::storage {

class Table {
 public:
  explicit Table(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Adds an empty column. Fails if the name already exists.
  Result<Column*> AddColumn(std::string name, ColumnType type);

  /// Adds an empty categorical column sharing `dict` (see Column).
  Result<Column*> AddCategoricalColumnSharing(
      std::string name, std::shared_ptr<Dictionary> dict);

  /// Column lookup by name; NotFound if absent.
  Result<const Column*> GetColumn(std::string_view name) const;
  Result<Column*> GetMutableColumn(const std::string& name);

  bool HasColumn(std::string_view name) const {
    return index_.find(name) != index_.end();
  }

  size_t num_columns() const { return columns_.size(); }
  const Column& column(size_t i) const { return *columns_[i]; }
  Column& mutable_column(size_t i) { return *columns_[i]; }

  /// Ordinal position of a column; NotFound if absent.
  Result<size_t> ColumnIndex(const std::string& name) const;

  /// Number of rows. All columns must agree; verified by CheckConsistent().
  size_t num_rows() const {
    return columns_.empty() ? 0 : columns_[0]->size();
  }

  /// Verifies all columns have equal length.
  Status CheckConsistent() const;

  /// Approximate heap footprint of the table data in bytes.
  size_t MemoryUsage() const;

 private:
  std::string name_;
  std::vector<std::unique_ptr<Column>> columns_;
  std::unordered_map<std::string, size_t, util::StringHash, std::equal_to<>>
      index_;
};

/// Copies the given rows of `table` into a new standalone table of the same
/// schema. Categorical columns share the source dictionaries so codes remain
/// comparable with the base table. Used to materialize base-table samples.
std::unique_ptr<Table> MaterializeRows(const Table& table,
                                       const std::vector<uint32_t>& rows);

}  // namespace ds::storage

#endif  // DS_STORAGE_TABLE_H_
