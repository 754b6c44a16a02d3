#include "shard/shard_map.h"

#include <cstdlib>

#include "common/bytes.h"
#include "common/env.h"
#include "common/fault_injector.h"
#include "storage/checksum.h"
#include "storage/row_batch.h"

namespace sqlclass {

namespace {

/// Full header size: prologue, partitioning metadata, payload checksum,
/// header trailer checksum. Already 8-byte aligned, so the per-shard entry
/// block follows directly.
constexpr size_t kHeaderBytes =
    6 * sizeof(uint32_t) + sizeof(uint64_t) + 2 * sizeof(uint32_t);
static_assert(kHeaderBytes % 8 == 0, "shard map payload must stay aligned");

/// Bytes of one per-shard entry: [rows: u64][heap checksum: u32].
constexpr size_t kEntryBytes = sizeof(uint64_t) + sizeof(uint32_t);

/// Pages a contiguous read/write of `bytes` costs, for IoCounters — the
/// same page unit heap files meter in.
uint64_t PagesFor(uint64_t bytes) {
  return bytes == 0 ? 0 : (bytes + kPageSize - 1) / kPageSize;
}

/// Fibonacci-constant mixing (splitmix64 finalizer): decorrelates the
/// kHashRowId placement from any periodicity in the row stream.
uint64_t MixOrdinal(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Existence probe only — an absent replica is a legitimate state (the set
/// was built without replicas), so no Status and no fault point.
bool FileExists(const std::string& path) {
  // fault: uncovered(existence probe; open failure means "absent")
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  std::fclose(file);
  return true;
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

bool ResolveShardReplicas(bool configured) {
  const char* env = std::getenv("SQLCLASS_SHARDS_REPLICAS");
  return env == nullptr || env[0] == '\0' ? configured : ParseEnvFlag(env);
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

Status ShardSetWriter::AddRow(const Row& row) {
  if (writers_.empty()) {
    return Status::InvalidArgument("shard set writer not open");
  }
  if (row.size() != static_cast<size_t>(num_columns_)) {
    return Status::InvalidArgument("shard row width mismatch");
  }
  const uint32_t shard = ShardForRow(scheme_, rows_routed_, num_shards_);
  Status appended = writers_[shard]->Append(row);
  if (!appended.ok()) {
    writers_.clear();
    RemoveShardSet();
    return appended;
  }
  ++rows_routed_;
  return Status::OK();
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

  const std::string map_path = ShardMapPathFor(heap_path_);
  std::FILE* file = nullptr;
  auto open_map = [&]() -> Status {
    SQLCLASS_FAULT_POINT(faults::kStorageOpen);
    file = std::fopen(map_path.c_str(), "wb");
    if (file == nullptr) {
      return Status::IoError("cannot create shard map: " + map_path);
    }
    return Status::OK();
  };
  if (result.ok()) result = open_map();

  std::vector<char> payload(num_shards_ * kEntryBytes);
  for (uint32_t s = 0; s < num_shards_; ++s) {
    EncodeFixed64(payload.data() + s * kEntryBytes, entries[s].rows);
    EncodeFixed32(payload.data() + s * kEntryBytes + 8,
                  entries[s].heap_checksum);
  }

  std::vector<char> header(kHeaderBytes, 0);
  size_t at = 0;
  EncodeFixed32(header.data() + at, kShardMapMagic), at += 4;
  EncodeFixed32(header.data() + at, kShardMapFormatVersion), at += 4;
  EncodeFixed32(header.data() + at, static_cast<uint32_t>(num_columns_)),
      at += 4;
  EncodeFixed32(header.data() + at, num_shards_), at += 4;
  EncodeFixed32(header.data() + at, static_cast<uint32_t>(scheme_)), at += 4;
  EncodeFixed32(header.data() + at, 0), at += 4;  // reserved
  EncodeFixed64(header.data() + at, rows_routed_), at += 8;
  EncodeFixed32(header.data() + at, Checksum32(payload.data(), payload.size())),
      at += 4;
  EncodeFixed32(header.data() + at, Checksum32(header.data(), at));
  at += 4;

  auto write_all = [&](const char* data, size_t n) -> Status {
    SQLCLASS_FAULT_POINT(faults::kStorageWrite);
    if (n > 0 && std::fwrite(data, 1, n, file) != n) {
      return Status::IoError("short write to shard map: " + map_path);
    }
    return Status::OK();
  };
  if (result.ok()) result = write_all(header.data(), header.size());
  if (result.ok()) result = write_all(payload.data(), payload.size());
  auto close_file = [&]() -> Status {
    SQLCLASS_FAULT_POINT(faults::kStorageClose);
    std::FILE* f = file;
    file = nullptr;
    if (std::fclose(f) != 0) {
      return Status::IoError("cannot close shard map: " + map_path);
    }
    return Status::OK();
  };
  if (result.ok()) result = close_file();
  if (file != nullptr) std::fclose(file);
  if (result.ok() && counters_ != nullptr) {
    counters_->pages_written += PagesFor(header.size() + payload.size());
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
  Row row;
  while (true) {
    // cost: charged-by-caller(HeapFileReader::Next)
    StatusOr<bool> more = reader->Next(&row);
    if (!more.ok()) {
      writer.RemoveShardSet();
      return more.status();
    }
    if (!more.value()) break;
    SQLCLASS_RETURN_IF_ERROR(writer.AddRow(row));
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

ShardMapReader::ShardMapReader(std::string path, std::FILE* file,
                               IoCounters* counters)
    : path_(std::move(path)), file_(file), counters_(counters) {}

ShardMapReader::~ShardMapReader() {
  // fault: uncovered(best-effort close in destructor: read-only stream)
  if (file_ != nullptr) std::fclose(file_);
}

StatusOr<std::unique_ptr<ShardMapReader>> ShardMapReader::Open(
    const std::string& path, IoCounters* counters) {
  SQLCLASS_FAULT_POINT(faults::kShardOpen);
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IoError("cannot open shard map: " + path);
  }
  std::unique_ptr<ShardMapReader> reader(
      new ShardMapReader(path, file, counters));

  char header[kHeaderBytes];
  if (std::fread(header, 1, sizeof(header), file) != sizeof(header)) {
    return Status::IoError("cannot read shard map header: " + path);
  }
  if (DecodeFixed32(header) != kShardMapMagic) {
    return Status::IoError("bad shard map magic in " + path);
  }
  const uint32_t version = DecodeFixed32(header + 4);
  if (version != kShardMapFormatVersion) {
    return Status::IoError("unsupported shard map version " +
                           std::to_string(version) + " in " + path);
  }
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
  if (PageChecksumVerificationEnabled()) {
    const uint32_t stored = DecodeFixed32(header + kHeaderBytes - 4);
    const uint32_t actual = Checksum32(header, kHeaderBytes - 4);
    if (actual != stored) {
      if (counters != nullptr) ++counters->checksum_failures;
      return Status::DataLoss("shard map header checksum mismatch in " + path);
    }
  }
  if (counters != nullptr) counters->pages_read += PagesFor(kHeaderBytes);
  return reader;
}

StatusOr<const ShardInfo*> ShardMapReader::ShardRows() {
  if (loaded_) return cache_.data();

  SQLCLASS_FAULT_POINT(faults::kShardRead);
  const uint64_t bytes = static_cast<uint64_t>(num_shards_) * kEntryBytes;
  if (std::fseek(file_, static_cast<long>(kHeaderBytes), SEEK_SET) != 0) {
    return Status::IoError("cannot seek in shard map: " + path_);
  }
  std::vector<char> raw(bytes);
  if (std::fread(raw.data(), 1, raw.size(), file_) != raw.size()) {
    return Status::IoError("truncated shard map payload in " + path_);
  }
  if (counters_ != nullptr) counters_->pages_read += PagesFor(bytes);
  if (PageChecksumVerificationEnabled() &&
      Checksum32(raw.data(), raw.size()) != payload_checksum_) {
    if (counters_ != nullptr) ++counters_->checksum_failures;
    return Status::DataLoss("shard map payload checksum mismatch in " + path_);
  }
  std::vector<ShardInfo> entries(num_shards_);
  uint64_t sum = 0;
  for (uint32_t s = 0; s < num_shards_; ++s) {
    entries[s].rows = DecodeFixed64(raw.data() + s * kEntryBytes);
    entries[s].heap_checksum = DecodeFixed32(raw.data() + s * kEntryBytes + 8);
    sum += entries[s].rows;
  }
  if (sum != total_rows_) {
    return Status::DataLoss("shard map row counts do not sum to total in " +
                            path_);
  }
  cache_ = std::move(entries);
  loaded_ = true;
  return cache_.data();
}

void ShardMapReader::DropCache() {
  cache_.clear();
  cache_.shrink_to_fit();
  loaded_ = false;
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
    const std::string replica = ShardReplicaPathFor(heap_path, s);
    if (!FileExists(replica)) continue;
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
