#include "shard/shard_map.h"

#include <filesystem>
#include <span>

#include "common/bytes.h"
#include "common/fault_injector.h"
#include "storage/checksum.h"
#include "storage/row_batch.h"

namespace sqlclass {

namespace {

/// Header size without its trailer: prologue, partitioning metadata,
/// payload checksum.
constexpr size_t kHeaderBytes =
    6 * sizeof(uint32_t) + sizeof(uint64_t) + sizeof(uint32_t);

/// Bytes of one per-shard entry: [rows: u64][heap checksum: u32].
constexpr size_t kEntryBytes = sizeof(uint64_t) + sizeof(uint32_t);

/// Fibonacci-constant mixing (splitmix64 finalizer): decorrelates the
/// kHashRowId placement from any periodicity in the row stream.
uint64_t MixOrdinal(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Byte-for-byte copy of `src` to `dst` (truncating). Whole-file physical
/// reads and writes are charged to `counters` in the same page unit heap
/// files meter in. Guarded by the storage fault points so injected faults
/// exercise the replica-write failure path.
Status CopyFileContents(const std::string& src, const std::string& dst,
                        IoCounters* counters) {
  SQLCLASS_FAULT_POINT(faults::kStorageOpen);
  std::FILE* in = std::fopen(src.c_str(), "rb");
  if (in == nullptr) {
    return Status::IoError("cannot open replica source: " + src);
  }
  std::FILE* out = std::fopen(dst.c_str(), "wb");
  if (out == nullptr) {
    std::fclose(in);
    return Status::IoError("cannot create replica: " + dst);
  }
  // The copy fault point sits in a lambda so an injected failure still
  // closes both handles on the way out.
  auto copy_all = [&]() -> Status {
    SQLCLASS_FAULT_POINT(faults::kStorageWrite);
    char chunk[kPageSize];
    uint64_t total = 0;
    while (true) {
      const size_t n = std::fread(chunk, 1, sizeof(chunk), in);
      if (n > 0 && std::fwrite(chunk, 1, n, out) != n) {
        return Status::IoError("short write to replica: " + dst);
      }
      total += n;
      if (n < sizeof(chunk)) break;
    }
    if (std::ferror(in) != 0) {
      return Status::IoError("cannot read replica source: " + src);
    }
    if (counters != nullptr) {
      counters->pages_read += PagesFor(total);
      counters->pages_written += PagesFor(total);
    }
    return Status::OK();
  };
  Status result = copy_all();
  std::fclose(in);  // read-only stream: nothing buffered to lose
  auto close_out = [&]() -> Status {
    SQLCLASS_FAULT_POINT(faults::kStorageClose);
    if (std::fclose(out) != 0) {
      return Status::IoError("cannot close replica: " + dst);
    }
    return Status::OK();
  };
  const Status closed = close_out();
  if (result.ok()) result = closed;
  return result;
}

}  // namespace

std::string ShardMapPathFor(const std::string& heap_path) {
  return heap_path + ".shm";
}

std::string ShardHeapPathFor(const std::string& heap_path, uint32_t shard) {
  return heap_path + ".shard" + std::to_string(shard);
}

std::string ShardReplicaPathFor(const std::string& heap_path, uint32_t shard) {
  return heap_path + ".s" + std::to_string(shard) + ".rep";
}

uint32_t ShardForRow(ShardScheme scheme, uint64_t row_ordinal,
                     uint32_t num_shards) {
  if (num_shards <= 1) return 0;
  switch (scheme) {
    case ShardScheme::kRoundRobin:
      return static_cast<uint32_t>(row_ordinal % num_shards);
    case ShardScheme::kHashRowId:
      return static_cast<uint32_t>(MixOrdinal(row_ordinal) % num_shards);
  }
  return 0;
}

StatusOr<uint32_t> ChecksumFileContents(const std::string& path,
                                        IoCounters* counters) {
  SQLCLASS_FAULT_POINT(faults::kStorageOpen);
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IoError("cannot open file for checksum: " + path);
  }
  // One-shot checksum over the whole file: chunked Checksum32 chaining
  // would tie the stored value to the chunk size, so the file is read
  // whole. Shard heap files are a fraction of the table by construction.
  // The read fault point sits in a lambda so an injected failure still
  // closes the handle on the way out.
  auto checksum_all = [&]() -> StatusOr<uint32_t> {
    SQLCLASS_FAULT_POINT(faults::kStorageRead);
    std::vector<char> bytes;
    char chunk[kPageSize];
    while (true) {
      const size_t n = std::fread(chunk, 1, sizeof(chunk), file);
      bytes.insert(bytes.end(), chunk, chunk + n);
      if (n < sizeof(chunk)) break;
    }
    if (std::ferror(file) != 0) {
      return Status::IoError("cannot read file for checksum: " + path);
    }
    if (counters != nullptr) counters->pages_read += PagesFor(bytes.size());
    return Checksum32(bytes.data(), bytes.size());
  };
  StatusOr<uint32_t> checksum = checksum_all();
  std::fclose(file);  // read-only stream: nothing buffered to lose
  return checksum;
}

// ---------------------------------------------------------------- writer

ShardSetWriter::ShardSetWriter(std::string heap_path, int num_columns,
                               uint32_t num_shards, ShardScheme scheme)
    : heap_path_(std::move(heap_path)),
      num_columns_(num_columns),
      num_shards_(num_shards),
      scheme_(scheme) {}

Status ShardSetWriter::Open(IoCounters* counters) {
  if (num_shards_ < 1 || num_shards_ > kMaxShards) {
    return Status::InvalidArgument("shard count out of range [1, " +
                                   std::to_string(kMaxShards) + "]");
  }
  if (!writers_.empty()) {
    return Status::InvalidArgument("shard set writer already open");
  }
  counters_ = counters;
  writers_.reserve(num_shards_);
  for (uint32_t s = 0; s < num_shards_; ++s) {
    StatusOr<std::unique_ptr<HeapFileWriter>> writer = HeapFileWriter::Create(
        ShardHeapPathFor(heap_path_, s), num_columns_, counters_);
    if (!writer.ok()) {
      writers_.clear();
      RemoveShardSet();
      return writer.status();
    }
    writers_.push_back(std::move(writer).value());
  }
  return Status::OK();
}

Status ShardSetWriter::AddRows(const Value* rows, size_t num_rows) {
  if (writers_.empty()) {
    return Status::InvalidArgument("shard set writer not open");
  }
  const size_t width = static_cast<size_t>(num_columns_);
  runs_.resize(num_shards_);
  for (std::vector<Value>& run : runs_) run.clear();
  for (size_t r = 0; r < num_rows; ++r) {
    std::vector<Value>& run =
        runs_[ShardForRow(scheme_, rows_routed_ + r, num_shards_)];
    run.insert(run.end(), rows + r * width, rows + (r + 1) * width);
  }
  for (uint32_t s = 0; s < num_shards_; ++s) {
    if (runs_[s].empty()) continue;
    Status appended =
        writers_[s]->AppendRows(runs_[s].data(), runs_[s].size() / width);
    if (!appended.ok()) {
      writers_.clear();
      RemoveShardSet();
      return appended;
    }
  }
  rows_routed_ += num_rows;
  return Status::OK();
}

Status ShardSetWriter::AddRow(const Row& row) {
  if (row.size() != static_cast<size_t>(num_columns_)) {
    return Status::InvalidArgument("shard row width mismatch");
  }
  return AddRows(row.data(), 1);
}

Status ShardSetWriter::Finish() {
  if (writers_.empty()) {
    return Status::InvalidArgument("shard set writer not open");
  }
  std::vector<ShardInfo> entries(num_shards_);
  Status result = Status::OK();
  for (uint32_t s = 0; s < num_shards_ && result.ok(); ++s) {
    entries[s].rows = writers_[s]->rows_written();
    result = writers_[s]->Finish();
    if (!result.ok()) break;
    StatusOr<uint32_t> checksum =
        ChecksumFileContents(ShardHeapPathFor(heap_path_, s), counters_);
    if (!checksum.ok()) {
      result = checksum.status();
      break;
    }
    entries[s].heap_checksum = checksum.value();
    if (!write_replicas_) continue;
    const std::string replica = ShardReplicaPathFor(heap_path_, s);
    result = CopyFileContents(ShardHeapPathFor(heap_path_, s), replica,
                              counters_);
    if (!result.ok()) break;
    StatusOr<uint32_t> replica_checksum =
        ChecksumFileContents(replica, counters_);
    if (!replica_checksum.ok()) {
      result = replica_checksum.status();
      break;
    }
    if (replica_checksum.value() != entries[s].heap_checksum) {
      result = Status::DataLoss("replica checksum mismatch for shard " +
                                std::to_string(s) + " of " + heap_path_);
      break;
    }
  }
  writers_.clear();

  if (result.ok()) {
    std::vector<char> payload(num_shards_ * kEntryBytes);
    for (uint32_t s = 0; s < num_shards_; ++s) {
      EncodeFixed64(payload.data() + s * kEntryBytes, entries[s].rows);
      EncodeFixed32(payload.data() + s * kEntryBytes + 8,
                    entries[s].heap_checksum);
    }
    std::string header;
    PutFixed32(&header, static_cast<uint32_t>(num_columns_));
    PutFixed32(&header, num_shards_);
    PutFixed32(&header, static_cast<uint32_t>(scheme_));
    PutFixed32(&header, 0);  // reserved
    PutFixed64(&header, rows_routed_);
    PutFixed32(&header, Checksum32(payload.data(), payload.size()));
    const std::span<const char> blocks[] = {payload};
    result = WriteArtifactFile(ArtifactKind::kShardMap,
                               ShardMapPathFor(heap_path_), header, blocks,
                               counters_);
  }
  if (!result.ok()) RemoveShardSet();
  return result;
}

void ShardSetWriter::RemoveShardSet() {
  RemoveShardSetFiles(heap_path_, num_shards_);
}

StatusOr<uint64_t> ShardSetWriter::BuildFromHeapFile(
    const std::string& heap_path, int num_columns, uint32_t num_shards,
    ShardScheme scheme, IoCounters* counters, bool with_replicas) {
  SQLCLASS_ASSIGN_OR_RETURN(
      std::unique_ptr<HeapFileReader> reader,
      HeapFileReader::Open(heap_path, num_columns, counters));
  ShardSetWriter writer(heap_path, num_columns, num_shards, scheme);
  writer.set_write_replicas(with_replicas);
  SQLCLASS_RETURN_IF_ERROR(writer.Open(counters));
  RowBatch batch;
  for (uint64_t page = 0; page < reader->num_pages(); ++page) {
    // cost: charged-by-caller(SqlServer::BuildShardSet)
    Status read = reader->ReadPageInto(page, &batch);
    if (!read.ok()) {
      writer.RemoveShardSet();
      return read;
    }
    if (batch.empty()) continue;
    SQLCLASS_RETURN_IF_ERROR(writer.AddRows(batch.RowAt(0), batch.num_rows()));
  }
  SQLCLASS_RETURN_IF_ERROR(writer.Finish());
  return writer.rows_routed();
}

void RemoveShardSetFiles(const std::string& heap_path, uint32_t num_shards) {
  std::remove(ShardMapPathFor(heap_path).c_str());
  if (num_shards > kMaxShards) num_shards = kMaxShards;
  for (uint32_t s = 0; s < num_shards; ++s) {
    std::remove(ShardHeapPathFor(heap_path, s).c_str());
    std::remove(ShardReplicaPathFor(heap_path, s).c_str());
  }
}

// ----------------------------------------------------------------- reader

StatusOr<std::unique_ptr<ShardMapReader>> ShardMapReader::Open(
    const std::string& path, IoCounters* counters) {
  std::unique_ptr<ShardMapReader> reader(new ShardMapReader());
  auto header_length = [&](const char* header,
                           uint64_t read) -> StatusOr<uint64_t> {
    if (read < kHeaderBytes) return kHeaderBytes;
    reader->num_columns_ = DecodeFixed32(header + 8);
    reader->num_shards_ = DecodeFixed32(header + 12);
    const uint32_t scheme = DecodeFixed32(header + 16);
    reader->total_rows_ = DecodeFixed64(header + 24);
    reader->payload_checksum_ = DecodeFixed32(header + 32);
    if (reader->num_columns_ == 0 || reader->num_columns_ > (1u << 20)) {
      return Status::IoError("implausible shard map column count in " + path);
    }
    if (reader->num_shards_ == 0 || reader->num_shards_ > kMaxShards) {
      return Status::IoError("implausible shard map shard count in " + path);
    }
    if (scheme > static_cast<uint32_t>(ShardScheme::kHashRowId)) {
      return Status::IoError("unknown shard scheme in " + path);
    }
    reader->scheme_ = static_cast<ShardScheme>(scheme);
    return kHeaderBytes;
  };
  SQLCLASS_RETURN_IF_ERROR(reader->file_.Open(ArtifactKind::kShardMap, path,
                                              header_length, counters));
  return reader;
}

StatusOr<const ShardInfo*> ShardMapReader::ShardRows() {
  if (cache_.has_value()) return cache_->data();
  SQLCLASS_ASSIGN_OR_RETURN(
      std::vector<char> raw,
      file_.ReadBlock(0, uint64_t{num_shards_} * kEntryBytes,
                      payload_checksum_));
  std::vector<ShardInfo> entries(num_shards_);
  uint64_t sum = 0;
  for (uint32_t s = 0; s < num_shards_; ++s) {
    entries[s].rows = DecodeFixed64(raw.data() + s * kEntryBytes);
    entries[s].heap_checksum = DecodeFixed32(raw.data() + s * kEntryBytes + 8);
    sum += entries[s].rows;
  }
  if (sum != total_rows_) {
    return Status::DataLoss("shard map row counts do not sum to total in " +
                            file_.path());
  }
  return cache_.emplace(std::move(entries)).data();
}

Status VerifyShardFiles(const std::string& heap_path,
                        const std::string& map_path, IoCounters* counters) {
  // cost: unmetered(verification pass; physical reads metered in callees)
  SQLCLASS_ASSIGN_OR_RETURN(std::unique_ptr<ShardMapReader> map,
                            ShardMapReader::Open(map_path, counters));
  SQLCLASS_ASSIGN_OR_RETURN(const ShardInfo* entries, map->ShardRows());
  for (uint32_t s = 0; s < map->num_shards(); ++s) {
    SQLCLASS_ASSIGN_OR_RETURN(
        uint32_t actual,
        ChecksumFileContents(ShardHeapPathFor(heap_path, s), counters));
    if (actual != entries[s].heap_checksum) {
      return Status::DataLoss("shard heap checksum mismatch for shard " +
                              std::to_string(s) + " of " + heap_path);
    }
    // An absent replica is a legitimate state: the set was built without.
    const std::string replica = ShardReplicaPathFor(heap_path, s);
    std::error_code absent;
    if (!std::filesystem::exists(replica, absent)) continue;
    SQLCLASS_ASSIGN_OR_RETURN(uint32_t replica_actual,
                              ChecksumFileContents(replica, counters));
    if (replica_actual != entries[s].heap_checksum) {
      return Status::DataLoss("shard replica checksum mismatch for shard " +
                              std::to_string(s) + " of " + heap_path);
    }
  }
  return Status::OK();
}

}  // namespace sqlclass
