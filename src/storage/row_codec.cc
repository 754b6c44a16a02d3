#include "storage/row_codec.h"

#include <cassert>
#include <cstring>

namespace sqlclass {

ValueWidth NarrowestValueWidth(const Schema& schema) {
  for (const AttributeDef& attr : schema.attributes()) {
    if (attr.cardinality > 256) return ValueWidth::kFour;
  }
  return ValueWidth::kOne;
}

bool RowCodec::Fits(const Value* rows, size_t num_rows) const {
  if (width_ == ValueWidth::kFour) return true;
  // A value fits one byte iff no bit above the low eight is set (negative
  // values set them all): one OR over the rows, no branch per value.
  uint32_t high = 0;
  const size_t n = num_rows * static_cast<size_t>(num_columns_);
  for (size_t i = 0; i < n; ++i) high |= static_cast<uint32_t>(rows[i]);
  return (high & ~uint32_t{0xFF}) == 0;
}

void RowCodec::Encode(const Row& row, char* dst) const {
  assert(static_cast<int>(row.size()) == num_columns_);
  EncodeRows(row.data(), 1, dst);
}

void RowCodec::Decode(const char* src, Row* row) const {
  if (row->size() != static_cast<size_t>(num_columns_)) {
    row->resize(num_columns_);
  }
  DecodeRows(src, 1, row->data());
}

void RowCodec::EncodeRows(const Value* rows, size_t num_rows,
                          char* dst) const {
  assert(Fits(rows, num_rows));
  if (width_ == ValueWidth::kFour) {
    std::memcpy(dst, rows, num_rows * row_bytes());
    return;
  }
  const size_t n = num_rows * static_cast<size_t>(num_columns_);
  auto* out = reinterpret_cast<unsigned char*>(dst);
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<unsigned char>(rows[i]);
}

void RowCodec::DecodeRows(const char* src, size_t num_rows,
                          Value* dst) const {
  if (width_ == ValueWidth::kFour) {
    std::memcpy(dst, src, num_rows * row_bytes());
    return;
  }
  const size_t n = num_rows * static_cast<size_t>(num_columns_);
  const auto* in = reinterpret_cast<const unsigned char*>(src);
  for (size_t i = 0; i < n; ++i) dst[i] = in[i];
}

}  // namespace sqlclass
