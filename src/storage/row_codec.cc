#include "storage/row_codec.h"

#include <cassert>

#include "common/bytes.h"

namespace sqlclass {

void RowCodec::Encode(const Row& row, char* dst) const {
  assert(static_cast<int>(row.size()) == num_columns_);
  EncodeFrom(row.data(), dst);
}

void RowCodec::EncodeFrom(const Value* src, char* dst) const {
  for (int i = 0; i < num_columns_; ++i) {
    EncodeFixed32(dst + i * sizeof(Value), static_cast<uint32_t>(src[i]));
  }
}

void RowCodec::Decode(const char* src, Row* row) const {
  if (row->size() != static_cast<size_t>(num_columns_)) {
    row->resize(num_columns_);
  }
  DecodeInto(src, row->data());
}

void RowCodec::DecodeInto(const char* src, Value* dst) const {
  for (int i = 0; i < num_columns_; ++i) {
    dst[i] = static_cast<Value>(DecodeFixed32(src + i * sizeof(Value)));
  }
}

}  // namespace sqlclass
