// The catalog: all tables of a database plus key metadata.
//
// PK/FK relationships drive both the demo's automatic join-predicate
// insertion (clicking two tables joins them) and the training-query
// generator, which only generates joins along declared key edges — exactly
// the single PK/FK relationships the paper relies on.

#ifndef DS_STORAGE_CATALOG_H_
#define DS_STORAGE_CATALOG_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ds/storage/table.h"
#include "ds/util/status.h"
#include "ds/util/string_util.h"

namespace ds::storage {

/// fk_table.fk_column references pk_table.pk_column.
struct ForeignKey {
  std::string fk_table;
  std::string fk_column;
  std::string pk_table;
  std::string pk_column;
};

class Catalog {
 public:
  /// Creates an empty table; fails on duplicate names.
  Result<Table*> CreateTable(const std::string& name);

  Result<const Table*> GetTable(std::string_view name) const;
  Result<Table*> GetMutableTable(const std::string& name);
  bool HasTable(const std::string& name) const {
    return index_.count(name) > 0;
  }

  /// Tables in creation order.
  std::vector<const Table*> tables() const;
  std::vector<std::string> table_names() const;

  /// Declares a primary key; the column must exist.
  Status SetPrimaryKey(const std::string& table, const std::string& column);

  /// Returns the PK column name of `table`, or NotFound.
  Result<std::string> GetPrimaryKey(const std::string& table) const;

  /// Declares a foreign key; both endpoints must exist.
  Status AddForeignKey(const std::string& fk_table,
                       const std::string& fk_column,
                       const std::string& pk_table,
                       const std::string& pk_column);

  const std::vector<ForeignKey>& foreign_keys() const { return fks_; }

  /// All FK edges incident to `table` (as either endpoint).
  std::vector<ForeignKey> ForeignKeysOf(const std::string& table) const;

  /// The unique FK edge between two tables (in either direction), or
  /// NotFound. The demo schemas have at most one edge per table pair.
  Result<ForeignKey> FindJoinEdge(const std::string& a,
                                  const std::string& b) const;

  /// Sum of MemoryUsage() over all tables.
  size_t MemoryUsage() const;

  /// Verifies all tables are internally consistent and all key metadata
  /// refers to existing columns.
  Status Validate() const;

 private:
  std::vector<std::unique_ptr<Table>> tables_;
  std::unordered_map<std::string, size_t, util::StringHash, std::equal_to<>>
      index_;
  std::unordered_map<std::string, std::string> primary_keys_;
  std::vector<ForeignKey> fks_;
};

}  // namespace ds::storage

#endif  // DS_STORAGE_CATALOG_H_
