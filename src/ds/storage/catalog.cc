#include "ds/storage/catalog.h"

namespace ds::storage {

Result<Table*> Catalog::CreateTable(const std::string& name) {
  if (index_.count(name) > 0) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  index_.emplace(name, tables_.size());
  tables_.push_back(std::make_unique<Table>(name));
  return tables_.back().get();
}

Result<const Table*> Catalog::GetTable(std::string_view name) const {
  auto it = index_.find(name);
  if (it == index_.end()) {
    return Status::NotFound("no table '" + std::string(name) + "'");
  }
  return static_cast<const Table*>(tables_[it->second].get());
}

Result<Table*> Catalog::GetMutableTable(const std::string& name) {
  auto it = index_.find(name);
  if (it == index_.end()) {
    return Status::NotFound("no table '" + name + "'");
  }
  return tables_[it->second].get();
}

std::vector<const Table*> Catalog::tables() const {
  std::vector<const Table*> out;
  out.reserve(tables_.size());
  for (const auto& t : tables_) out.push_back(t.get());
  return out;
}

std::vector<std::string> Catalog::table_names() const {
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& t : tables_) out.push_back(t->name());
  return out;
}

Status Catalog::SetPrimaryKey(const std::string& table,
                              const std::string& column) {
  DS_ASSIGN_OR_RETURN(const Table* t, GetTable(table));
  DS_RETURN_NOT_OK(t->GetColumn(column).status());
  primary_keys_[table] = column;
  return Status::OK();
}

Result<std::string> Catalog::GetPrimaryKey(const std::string& table) const {
  auto it = primary_keys_.find(table);
  if (it == primary_keys_.end()) {
    return Status::NotFound("no primary key declared for '" + table + "'");
  }
  return it->second;
}

Status Catalog::AddForeignKey(const std::string& fk_table,
                              const std::string& fk_column,
                              const std::string& pk_table,
                              const std::string& pk_column) {
  DS_ASSIGN_OR_RETURN(const Table* ft, GetTable(fk_table));
  DS_RETURN_NOT_OK(ft->GetColumn(fk_column).status());
  DS_ASSIGN_OR_RETURN(const Table* pt, GetTable(pk_table));
  DS_RETURN_NOT_OK(pt->GetColumn(pk_column).status());
  fks_.push_back(ForeignKey{fk_table, fk_column, pk_table, pk_column});
  return Status::OK();
}

std::vector<ForeignKey> Catalog::ForeignKeysOf(const std::string& table) const {
  std::vector<ForeignKey> out;
  for (const auto& fk : fks_) {
    if (fk.fk_table == table || fk.pk_table == table) out.push_back(fk);
  }
  return out;
}

Result<ForeignKey> Catalog::FindJoinEdge(const std::string& a,
                                         const std::string& b) const {
  for (const auto& fk : fks_) {
    if ((fk.fk_table == a && fk.pk_table == b) ||
        (fk.fk_table == b && fk.pk_table == a)) {
      return fk;
    }
  }
  return Status::NotFound("no PK/FK edge between '" + a + "' and '" + b + "'");
}

size_t Catalog::MemoryUsage() const {
  size_t bytes = 0;
  for (const auto& t : tables_) bytes += t->MemoryUsage();
  return bytes;
}

Status Catalog::Validate() const {
  for (const auto& t : tables_) {
    DS_RETURN_NOT_OK(t->CheckConsistent());
  }
  for (const auto& [table, column] : primary_keys_) {
    DS_ASSIGN_OR_RETURN(const Table* t, GetTable(table));
    DS_RETURN_NOT_OK(t->GetColumn(column).status());
  }
  for (const auto& fk : fks_) {
    DS_ASSIGN_OR_RETURN(const Table* ft, GetTable(fk.fk_table));
    DS_RETURN_NOT_OK(ft->GetColumn(fk.fk_column).status());
    DS_ASSIGN_OR_RETURN(const Table* pt, GetTable(fk.pk_table));
    DS_RETURN_NOT_OK(pt->GetColumn(fk.pk_column).status());
  }
  return Status::OK();
}

}  // namespace ds::storage
