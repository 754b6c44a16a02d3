#ifndef SQLCLASS_STORAGE_ROW_CODEC_H_
#define SQLCLASS_STORAGE_ROW_CODEC_H_

#include <bit>
#include <cstddef>
#include <cstdint>

#include "catalog/row.h"
#include "catalog/schema.h"

namespace sqlclass {

/// A four-byte heap slot is the row's `Value` array in little-endian order,
/// which on a little-endian host is the array's own bytes: wide pages are
/// filled and decoded with one memcpy per page (HeapFileWriter::AppendRows,
/// HeapFileReader::ReadPageInto).
static_assert(std::endian::native == std::endian::little,
              "heap pages copy rows as raw Value bytes");

/// Bytes one value takes in a heap slot. kFour holds any Value; kOne holds
/// a categorical code in [0, 255].
enum class ValueWidth : uint8_t { kOne = 1, kFour = 4 };

/// The narrowest width that holds every value of `schema`'s domain: kOne
/// when every column declares at most 256 values, kFour otherwise.
ValueWidth NarrowestValueWidth(const Schema& schema);

/// Fixed-width row codec: num_columns values in schema order, each stored
/// in `width` bytes. A four-byte row is byte-identical to its `Value`
/// array; a one-byte row holds each value's low byte, and only values in
/// [0, 255] may be encoded (Fits). Fixed width keeps pages slot-addressable
/// so a TID maps to a (page, slot) pair with no directory.
class RowCodec {
 public:
  explicit RowCodec(int num_columns, ValueWidth width = ValueWidth::kFour)
      : num_columns_(num_columns), width_(width) {}

  size_t row_bytes() const {
    return static_cast<size_t>(num_columns_) * static_cast<size_t>(width_);
  }
  int num_columns() const { return num_columns_; }
  ValueWidth width() const { return width_; }

  /// True iff every value of the `num_rows` rows at `rows` can be encoded
  /// at this width (always, at kFour).
  bool Fits(const Value* rows, size_t num_rows) const;

  /// Writes `row` (must have num_columns values that Fit) into
  /// `dst[0, row_bytes)`.
  void Encode(const Row& row, char* dst) const;

  /// Reads one row from `src[0, row_bytes)` into `*row`. Resize-free when
  /// the row already holds num_columns values (the hoisted-Row scan loops
  /// rely on this to stay allocation-free after the first iteration).
  void Decode(const char* src, Row* row) const;

  /// Encodes the `num_rows` rows stored contiguously at `rows` (they must
  /// Fit) into `dst[0, num_rows * row_bytes)`.
  void EncodeRows(const Value* rows, size_t num_rows, char* dst) const;

  /// Decodes `num_rows` rows from `src` into `num_rows * num_columns`
  /// values at `dst`, widening one-byte values.
  void DecodeRows(const char* src, size_t num_rows, Value* dst) const;

 private:
  int num_columns_;
  ValueWidth width_;
};

}  // namespace sqlclass

#endif  // SQLCLASS_STORAGE_ROW_CODEC_H_
