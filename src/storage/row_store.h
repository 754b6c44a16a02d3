#ifndef SQLCLASS_STORAGE_ROW_STORE_H_
#define SQLCLASS_STORAGE_ROW_STORE_H_

#include <cstddef>
#include <vector>

#include "catalog/row.h"

namespace sqlclass {

/// Flat in-memory row container used when the middleware stages a node's
/// data set into memory (§4.1.2). Stores rows contiguously (one vector of
/// values) so the memory footprint is accountable and scanning is cache
/// friendly.
class InMemoryRowStore {
 public:
  explicit InMemoryRowStore(int num_columns) : num_columns_(num_columns) {}

  void Append(const Row& row) {
    values_.insert(values_.end(), row.begin(), row.end());
  }

  /// Appends `num_rows` rows stored contiguously at `rows`.
  void AppendRows(const Value* rows, size_t num_rows) {
    values_.insert(values_.end(), rows, rows + num_rows * num_columns_);
  }

  size_t num_rows() const {
    return num_columns_ == 0 ? 0 : values_.size() / num_columns_;
  }
  int num_columns() const { return num_columns_; }

  /// Pointer to row i's first value (valid until the next Append).
  const Value* RowAt(size_t i) const {
    return values_.data() + i * num_columns_;
  }

  /// Bytes of row payload held (the accounting unit for the middleware's
  /// memory budget).
  size_t MemoryBytes() const { return values_.size() * sizeof(Value); }

  void Clear() {
    values_.clear();
    values_.shrink_to_fit();
  }

 private:
  int num_columns_;
  std::vector<Value> values_;
};

}  // namespace sqlclass

#endif  // SQLCLASS_STORAGE_ROW_STORE_H_
