#ifndef SQLCLASS_STORAGE_ROW_CODEC_H_
#define SQLCLASS_STORAGE_ROW_CODEC_H_

#include <bit>
#include <cstddef>

#include "catalog/row.h"
#include "catalog/schema.h"

namespace sqlclass {

/// The heap row format is the row's `Value` array in little-endian order,
/// which on a little-endian host is the array's own bytes: heap pages are
/// filled and decoded with one memcpy per page (HeapFileWriter::AppendRows,
/// HeapFileReader::ReadPageInto).
static_assert(std::endian::native == std::endian::little,
              "heap pages copy rows as raw Value bytes");

/// Fixed-width little-endian row codec: 4 bytes per column, schema order,
/// byte-identical to the row's `Value` array. Fixed width keeps pages
/// slot-addressable so a TID maps to a (page, slot) pair with no directory.
class RowCodec {
 public:
  explicit RowCodec(const Schema* schema)
      : num_columns_(schema->num_columns()) {}
  explicit RowCodec(int num_columns) : num_columns_(num_columns) {}

  size_t row_bytes() const { return num_columns_ * sizeof(Value); }
  int num_columns() const { return num_columns_; }

  /// Writes `row` (must have num_columns values) into `dst[0, row_bytes)`.
  void Encode(const Row& row, char* dst) const;

  /// Reads one row from `src[0, row_bytes)` into `*row`. Resize-free when
  /// the row already holds num_columns values (the hoisted-Row scan loops
  /// rely on this to stay allocation-free after the first iteration).
  void Decode(const char* src, Row* row) const;

 private:
  int num_columns_;
};

}  // namespace sqlclass

#endif  // SQLCLASS_STORAGE_ROW_CODEC_H_
