#ifndef SQLCLASS_SQL_ROW_SOURCE_H_
#define SQLCLASS_SQL_ROW_SOURCE_H_

#include <memory>
#include <string>

#include "catalog/row.h"
#include "catalog/schema.h"
#include "common/status.h"

namespace sqlclass {

/// Pull-based, single-pass row iterator: the server's heap-file scans feed
/// the SQL executor through it.
class RowSource {
 public:
  virtual ~RowSource() = default;

  /// Fetches the next row; false at end of stream.
  [[nodiscard]] virtual StatusOr<bool> Next(Row* row) = 0;
};

/// Resolves table names to schemas and scans. Implemented by the server
/// (heap-file backed); the executor stays storage-agnostic.
class TableProvider {
 public:
  virtual ~TableProvider() = default;

  [[nodiscard]] virtual StatusOr<const Schema*> GetSchema(const std::string& table) = 0;
  [[nodiscard]] virtual StatusOr<std::unique_ptr<RowSource>> Scan(
      const std::string& table) = 0;
};

}  // namespace sqlclass

#endif  // SQLCLASS_SQL_ROW_SOURCE_H_
