#include "storage/bitmap/bitmap_index.h"

#include <span>

#include "common/bytes.h"
#include "storage/bitmap/bitmap.h"
#include "storage/checksum.h"
#include "storage/heap_file.h"
#include "storage/row_batch.h"

namespace sqlclass {

namespace {

/// Fixed-width prologue before the per-column / per-bitmap arrays.
constexpr size_t kPrologueBytes = 4 * sizeof(uint32_t) + sizeof(uint64_t);

}  // namespace

std::string BitmapIndexPathFor(const std::string& heap_path) {
  return heap_path + ".bmx";
}

// ---------------------------------------------------------------- builder

BitmapIndexBuilder::BitmapIndexBuilder(std::vector<uint32_t> cardinalities)
    : cardinalities_(std::move(cardinalities)) {
  bitmap_base_.reserve(cardinalities_.size());
  for (uint32_t card : cardinalities_) {
    bitmap_base_.push_back(total_bitmaps_);
    total_bitmaps_ += card;
  }
  bits_.resize(total_bitmaps_);
}

Status BitmapIndexBuilder::AddRow(const Value* values, size_t num_values) {
  if (num_values != cardinalities_.size()) {
    return Status::InvalidArgument("bitmap index row width mismatch");
  }
  const uint64_t row_index = num_rows_;
  for (size_t c = 0; c < num_values; ++c) {
    const Value v = values[c];
    if (v < 0 || static_cast<uint32_t>(v) >= cardinalities_[c]) {
      return Status::InvalidArgument(
          "value " + std::to_string(v) + " outside domain of column " +
          std::to_string(c) + " (cardinality " +
          std::to_string(cardinalities_[c]) + ")");
    }
    std::vector<uint64_t>& bitmap = bits_[bitmap_base_[c] + v];
    const uint64_t word = row_index / kBitmapWordBits;
    if (bitmap.size() <= word) bitmap.resize(word + 1, 0);
    SetBit(bitmap.data(), row_index);
  }
  ++num_rows_;
  return Status::OK();
}

Status BitmapIndexBuilder::WriteFile(const std::string& path,
                                     IoCounters* counters) const {
  // Encode every bitmap once, little-endian so the format is stable across
  // host endianness: the encodings feed both the header checksums and the
  // payload writes, one block per bitmap.
  const uint64_t bitmap_bytes = BitmapWordCount(num_rows_) * sizeof(uint64_t);
  std::vector<char> payload(total_bitmaps_ * bitmap_bytes, 0);
  std::vector<std::span<const char>> blocks;
  std::string header;
  PutFixed32(&header, static_cast<uint32_t>(cardinalities_.size()));
  PutFixed32(&header, 0);  // reserved
  PutFixed64(&header, num_rows_);
  for (uint32_t card : cardinalities_) PutFixed32(&header, card);
  for (uint32_t b = 0; b < total_bitmaps_; ++b) {
    char* block = payload.data() + b * bitmap_bytes;
    for (uint64_t w = 0; w < bits_[b].size(); ++w) {
      EncodeFixed64(block + w * sizeof(uint64_t), bits_[b][w]);
    }
    PutFixed32(&header, Checksum32(block, bitmap_bytes));
    blocks.emplace_back(block, bitmap_bytes);
  }
  return WriteArtifactFile(ArtifactKind::kBitmapIndex, path, header, blocks,
                           counters);
}

StatusOr<uint64_t> BitmapIndexBuilder::BuildFromHeapFile(
    const std::string& heap_path, std::vector<uint32_t> cardinalities,
    const std::string& out_path, IoCounters* counters) {
  const int num_columns = static_cast<int>(cardinalities.size());
  BitmapIndexBuilder builder(std::move(cardinalities));
  SQLCLASS_ASSIGN_OR_RETURN(
      std::unique_ptr<HeapFileReader> reader,
      HeapFileReader::Open(heap_path, num_columns, counters));
  RowBatch batch;
  for (uint64_t page = 0; page < reader->num_pages(); ++page) {
    // cost: charged-by-caller(SqlServer::BuildBitmapIndex)
    SQLCLASS_RETURN_IF_ERROR(reader->ReadPageInto(page, &batch));
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      SQLCLASS_RETURN_IF_ERROR(
          builder.AddRow(batch.RowAt(r), static_cast<size_t>(num_columns)));
    }
  }
  SQLCLASS_RETURN_IF_ERROR(builder.WriteFile(out_path, counters));
  return builder.num_rows();
}

// ----------------------------------------------------------------- reader

StatusOr<std::unique_ptr<BitmapIndexReader>> BitmapIndexReader::Open(
    const std::string& path, IoCounters* counters) {
  std::unique_ptr<BitmapIndexReader> reader(new BitmapIndexReader());
  // The header grows in three steps: the prologue, the cardinalities it
  // counts, then one checksum per bitmap they sum to.
  auto header_length = [&](const char* header,
                           uint64_t read) -> StatusOr<uint64_t> {
    if (read < kPrologueBytes) return kPrologueBytes;
    reader->num_columns_ = DecodeFixed32(header + 8);
    reader->num_rows_ = DecodeFixed64(header + 16);
    if (reader->num_columns_ == 0 || reader->num_columns_ > (1u << 20)) {
      return Status::IoError("implausible bitmap index column count in " +
                             path);
    }
    const uint64_t cards_end =
        kPrologueBytes + uint64_t{reader->num_columns_} * sizeof(uint32_t);
    if (read < cards_end) return cards_end;
    reader->cardinalities_.clear();
    reader->bitmap_base_.clear();
    uint64_t total_bitmaps = 0;
    for (uint32_t c = 0; c < reader->num_columns_; ++c) {
      const uint32_t card = DecodeFixed32(header + kPrologueBytes + c * 4);
      reader->cardinalities_.push_back(card);
      reader->bitmap_base_.push_back(total_bitmaps);
      total_bitmaps += card;
    }
    return cards_end + total_bitmaps * sizeof(uint32_t);
  };
  SQLCLASS_RETURN_IF_ERROR(reader->file_.Open(ArtifactKind::kBitmapIndex,
                                              path, header_length, counters));
  reader->words_per_bitmap_ = BitmapWordCount(reader->num_rows_);
  const uint64_t total_bitmaps =
      reader->bitmap_base_.back() + reader->cardinalities_.back();
  reader->cache_.resize(total_bitmaps);
  return reader;
}

StatusOr<const uint64_t*> BitmapIndexReader::BitmapWords(int column,
                                                         Value value) {
  if (column < 0 || static_cast<uint32_t>(column) >= num_columns_) {
    return Status::InvalidArgument("bitmap index has no column " +
                                   std::to_string(column));
  }
  if (value < 0 || static_cast<uint32_t>(value) >= cardinalities_[column]) {
    return Status::InvalidArgument(
        "value " + std::to_string(value) + " outside domain of column " +
        std::to_string(column));
  }
  const uint64_t ordinal = bitmap_base_[column] + static_cast<uint64_t>(value);
  if (cache_[ordinal].has_value()) return cache_[ordinal]->data();

  // The per-bitmap checksums follow the cardinalities in the header.
  const uint32_t checksum = DecodeFixed32(
      file_.header() + kPrologueBytes +
      (num_columns_ + ordinal) * sizeof(uint32_t));
  const uint64_t bytes = words_per_bitmap_ * sizeof(uint64_t);
  SQLCLASS_ASSIGN_OR_RETURN(std::vector<char> raw,
                            file_.ReadBlock(ordinal * bytes, bytes, checksum));
  std::vector<uint64_t>& words = cache_[ordinal].emplace(words_per_bitmap_);
  for (uint64_t w = 0; w < words_per_bitmap_; ++w) {
    words[w] = DecodeFixed64(raw.data() + w * sizeof(uint64_t));
  }
  return words.data();
}

}  // namespace sqlclass
