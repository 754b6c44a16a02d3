#include "storage/sample/sample_file.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>

#include "common/bytes.h"
#include "storage/checksum.h"
#include "storage/heap_file.h"
#include "storage/row_batch.h"

namespace sqlclass {

namespace {

/// Header size without its trailer: prologue, sampling metadata, payload
/// checksum.
constexpr size_t kHeaderBytes =
    4 * sizeof(uint32_t) + 4 * sizeof(uint64_t) + sizeof(uint32_t);

uint64_t RatioBits(double ratio) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(ratio), "double must be 64-bit");
  std::memcpy(&bits, &ratio, sizeof(bits));
  return bits;
}

double RatioFromBits(uint64_t bits) {
  double ratio = 0.0;
  std::memcpy(&ratio, &bits, sizeof(ratio));
  return ratio;
}

uint64_t ReservoirCapacity(uint64_t total_rows, double ratio) {
  if (total_rows == 0) return 0;
  const double want = std::llround(ratio * static_cast<double>(total_rows));
  return static_cast<uint64_t>(
      std::clamp<double>(want, 1.0, static_cast<double>(total_rows)));
}

}  // namespace

std::string SampleFilePathFor(const std::string& heap_path) {
  return heap_path + ".smp";
}

// ---------------------------------------------------------------- builder

SampleFileBuilder::SampleFileBuilder(int num_columns, uint64_t total_rows,
                                     double ratio, uint64_t seed)
    : num_columns_(static_cast<size_t>(num_columns)),
      total_rows_(total_rows),
      ratio_(ratio),
      seed_(seed),
      capacity_(ReservoirCapacity(total_rows, ratio)),
      rng_(seed) {
  reservoir_.reserve(capacity_ * num_columns_);
}

Status SampleFileBuilder::AddRow(const Value* values, size_t num_values) {
  if (num_values != num_columns_) {
    return Status::InvalidArgument("sample row width mismatch");
  }
  // Algorithm R: the first `capacity_` rows fill the reservoir; row t > K
  // replaces a uniformly chosen slot with probability K / t.
  if (sample_rows() < capacity_) {
    reservoir_.insert(reservoir_.end(), values, values + num_values);
  } else if (capacity_ > 0) {
    const uint64_t j = rng_.Uniform(rows_seen_ + 1);
    if (j < capacity_) {
      std::copy(values, values + num_values,
                reservoir_.begin() + j * num_columns_);
    }
  }
  ++rows_seen_;
  return Status::OK();
}

Status SampleFileBuilder::WriteFile(const std::string& path,
                                    IoCounters* counters) {
  // Pre-shuffle (the "scramble"): a seeded Fisher–Yates over whole rows, so
  // any prefix of the stored order is itself a uniform sample and the file
  // is byte-identical for a fixed (seed, ratio, row stream).
  Random shuffle_rng = rng_.Fork(/*salt=*/0x5C7A3B1E);
  const uint64_t rows = sample_rows();
  std::vector<Value> scratch(num_columns_);
  for (uint64_t i = rows; i > 1; --i) {
    const uint64_t j = shuffle_rng.Uniform(i);
    if (j == i - 1) continue;
    Value* a = reservoir_.data() + (i - 1) * num_columns_;
    Value* b = reservoir_.data() + j * num_columns_;
    std::copy(a, a + num_columns_, scratch.data());
    std::copy(b, b + num_columns_, a);
    std::copy(scratch.begin(), scratch.end(), b);
  }

  std::vector<char> payload(reservoir_.size() * sizeof(uint32_t));
  for (size_t i = 0; i < reservoir_.size(); ++i) {
    EncodeFixed32(payload.data() + i * sizeof(uint32_t),
                  static_cast<uint32_t>(reservoir_[i]));
  }
  std::string header;
  PutFixed32(&header, static_cast<uint32_t>(num_columns_));
  PutFixed32(&header, 0);  // reserved
  PutFixed64(&header, rows);
  PutFixed64(&header, rows_seen_);
  PutFixed64(&header, seed_);
  PutFixed64(&header, RatioBits(ratio_));
  PutFixed32(&header, Checksum32(payload.data(), payload.size()));
  const std::span<const char> blocks[] = {payload};
  return WriteArtifactFile(ArtifactKind::kSample, path, header, blocks,
                           counters);
}

StatusOr<uint64_t> SampleFileBuilder::BuildFromHeapFile(
    const std::string& heap_path, int num_columns, double ratio, uint64_t seed,
    const std::string& out_path, IoCounters* counters) {
  SQLCLASS_ASSIGN_OR_RETURN(
      std::unique_ptr<HeapFileReader> reader,
      HeapFileReader::Open(heap_path, num_columns, counters));
  SampleFileBuilder builder(num_columns, reader->num_rows(), ratio, seed);
  RowBatch batch;
  for (uint64_t page = 0; page < reader->num_pages(); ++page) {
    // cost: charged-by-caller(SqlServer::BuildSampleTable)
    SQLCLASS_RETURN_IF_ERROR(reader->ReadPageInto(page, &batch));
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      SQLCLASS_RETURN_IF_ERROR(
          builder.AddRow(batch.RowAt(r), static_cast<size_t>(num_columns)));
    }
  }
  SQLCLASS_RETURN_IF_ERROR(builder.WriteFile(out_path, counters));
  return builder.rows_seen();
}

// ----------------------------------------------------------------- reader

StatusOr<std::unique_ptr<SampleFileReader>> SampleFileReader::Open(
    const std::string& path, IoCounters* counters) {
  std::unique_ptr<SampleFileReader> reader(new SampleFileReader());
  auto header_length = [&](const char* header,
                           uint64_t read) -> StatusOr<uint64_t> {
    if (read < kHeaderBytes) return kHeaderBytes;
    reader->num_columns_ = DecodeFixed32(header + 8);
    reader->sample_rows_ = DecodeFixed64(header + 16);
    reader->total_rows_ = DecodeFixed64(header + 24);
    reader->seed_ = DecodeFixed64(header + 32);
    reader->ratio_ = RatioFromBits(DecodeFixed64(header + 40));
    reader->payload_checksum_ = DecodeFixed32(header + 48);
    if (reader->num_columns_ == 0 || reader->num_columns_ > (1u << 20)) {
      return Status::IoError("implausible sample file column count in " +
                             path);
    }
    // The payload's byte count must not wrap, checksums or not.
    if (reader->sample_rows_ > reader->total_rows_ ||
        reader->sample_rows_ > UINT64_MAX / 4 / reader->num_columns_) {
      return Status::IoError("implausible sample file row counts in " + path);
    }
    return kHeaderBytes;
  };
  SQLCLASS_RETURN_IF_ERROR(reader->file_.Open(ArtifactKind::kSample, path,
                                              header_length, counters));
  return reader;
}

StatusOr<const Value*> SampleFileReader::SampleRows() {
  if (cache_.has_value()) return cache_->data();
  const uint64_t values = sample_rows_ * num_columns_;
  SQLCLASS_ASSIGN_OR_RETURN(
      std::vector<char> raw,
      file_.ReadBlock(0, values * sizeof(uint32_t), payload_checksum_));
  std::vector<Value>& rows = cache_.emplace(values);
  for (uint64_t i = 0; i < values; ++i) {
    rows[i] = static_cast<Value>(DecodeFixed32(raw.data() + i * 4));
  }
  return rows.data();
}

}  // namespace sqlclass
