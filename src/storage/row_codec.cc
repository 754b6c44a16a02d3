#include "storage/row_codec.h"

#include <cassert>
#include <cstring>

namespace sqlclass {

void RowCodec::Encode(const Row& row, char* dst) const {
  assert(static_cast<int>(row.size()) == num_columns_);
  std::memcpy(dst, row.data(), row_bytes());
}

void RowCodec::Decode(const char* src, Row* row) const {
  if (row->size() != static_cast<size_t>(num_columns_)) {
    row->resize(num_columns_);
  }
  std::memcpy(row->data(), src, row_bytes());
}

}  // namespace sqlclass
