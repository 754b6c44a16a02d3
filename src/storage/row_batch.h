#ifndef SQLCLASS_STORAGE_ROW_BATCH_H_
#define SQLCLASS_STORAGE_ROW_BATCH_H_

#include <cstddef>
#include <vector>

#include "catalog/row.h"

namespace sqlclass {

/// Reusable buffer of decoded fixed-width rows — the unit a batched page
/// decode fills (HeapFileReader::NextBatch / ReadPageInto). Rows live
/// contiguously in one vector, so refilling a batch never allocates once
/// the buffer has grown to page capacity, unlike a per-row `Row`.
class RowBatch {
 public:
  RowBatch() = default;

  /// Empties the batch for rows of `num_columns` values; capacity is kept.
  void Reset(int num_columns) {
    num_columns_ = num_columns;
    num_rows_ = 0;
    values_.clear();
  }

  /// Makes room for `rows` rows of `num_columns` values, so that filling
  /// the batch up to them does not allocate.
  void Reserve(int num_columns, size_t rows) {
    values_.reserve(rows * static_cast<size_t>(num_columns));
  }

  /// Appends `n` uninitialized rows and returns the pointer to the first
  /// value of the first new row (n * num_columns values, caller fills).
  Value* AppendRows(size_t n) {
    const size_t old_size = values_.size();
    values_.resize(old_size + n * static_cast<size_t>(num_columns_));
    num_rows_ += n;
    return values_.data() + old_size;
  }

  size_t num_rows() const { return num_rows_; }
  int num_columns() const { return num_columns_; }
  bool empty() const { return num_rows_ == 0; }

  /// Pointer to row i's first value (valid until the next AppendRows).
  const Value* RowAt(size_t i) const {
    return values_.data() + i * static_cast<size_t>(num_columns_);
  }

 private:
  int num_columns_ = 0;
  size_t num_rows_ = 0;
  std::vector<Value> values_;
};

}  // namespace sqlclass

#endif  // SQLCLASS_STORAGE_ROW_BATCH_H_
