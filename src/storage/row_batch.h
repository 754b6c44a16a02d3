#ifndef SQLCLASS_STORAGE_ROW_BATCH_H_
#define SQLCLASS_STORAGE_ROW_BATCH_H_

#include <cstddef>
#include <vector>

#include "catalog/row.h"

namespace sqlclass {

/// Reusable buffer of decoded fixed-width rows — the unit a batched page
/// decode fills (HeapFileReader::ReadPageInto). Rows live
/// contiguously in one buffer that only grows, so refilling a batch never
/// allocates or clears once the buffer has reached page capacity, unlike a
/// per-row `Row`.
class RowBatch {
 public:
  RowBatch() = default;

  /// Empties the batch for rows of `num_columns` values; the buffer is kept.
  void Reset(int num_columns) {
    num_columns_ = num_columns;
    num_rows_ = 0;
  }

  /// Sizes the buffer for `rows` rows of `num_columns` values, so that
  /// filling the batch up to them does not allocate.
  void Reserve(int num_columns, size_t rows) {
    Grow(rows * static_cast<size_t>(num_columns));
  }

  /// Appends `n` uninitialized rows and returns the pointer to the first
  /// value of the first new row (n * num_columns values, caller fills).
  /// Rows within the reserved size are not written before the caller
  /// fills them.
  Value* AppendRows(size_t n) {
    const size_t width = static_cast<size_t>(num_columns_);
    const size_t old_size = num_rows_ * width;
    Grow(old_size + n * width);
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
  void Grow(size_t values) {
    if (values_.size() < values) values_.resize(values);
  }

  int num_columns_ = 0;
  size_t num_rows_ = 0;
  std::vector<Value> values_;  // rows past num_rows_ are stale
};

}  // namespace sqlclass

#endif  // SQLCLASS_STORAGE_ROW_BATCH_H_
