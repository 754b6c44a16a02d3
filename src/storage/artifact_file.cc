#include "storage/artifact_file.h"

#include "common/bytes.h"
#include "common/fault_injector.h"
#include "storage/checksum.h"
#include "storage/heap_file.h"

namespace sqlclass {

using enum ArtifactKind;

namespace {

constexpr size_t kTrailerBytes = sizeof(uint32_t);

/// Per-kind framing constants: the error-message noun, the magic and the
/// format version every file of that kind opens with.
struct KindInfo {
  const char* noun;
  uint32_t magic;
  uint32_t version;
};

const KindInfo& Info(ArtifactKind kind) {
  static constexpr KindInfo kInfo[] = {
      {"bitmap index", 0x4D425153, 1},  // "SQBM"
      {"sample file", 0x4D535153, 1},   // "SQSM"
      {"shard map", 0x48535153, 1},     // "SQSH"
  };
  return kInfo[static_cast<int>(kind)];
}

std::string Noun(ArtifactKind kind) { return Info(kind).noun; }

}  // namespace

uint64_t PagesFor(uint64_t bytes) {
  return bytes == 0 ? 0 : (bytes + kPageSize - 1) / kPageSize;
}

Status WriteArtifactFile(ArtifactKind kind, const std::string& path,
                         const std::string& fields,
                         std::span<const std::span<const char>> blocks,
                         IoCounters* counters) {
  std::string header;
  PutFixed32(&header, Info(kind).magic);
  PutFixed32(&header, Info(kind).version);
  header += fields;
  const size_t trailer_at = header.size();
  const uint32_t header_checksum = Checksum32(header.data(), trailer_at);
  header.resize((trailer_at + kTrailerBytes + 7) & ~size_t{7}, '\0');
  EncodeFixed32(header.data() + trailer_at, header_checksum);

  SQLCLASS_FAULT_POINT(faults::kStorageOpen);
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IoError("cannot create " + Noun(kind) + ": " + path);
  }
  uint64_t bytes_written = 0;
  auto write_all = [&](std::span<const char> block) -> Status {
    SQLCLASS_FAULT_POINT(faults::kStorageWrite);
    if (!block.empty() &&
        std::fwrite(block.data(), 1, block.size(), file) != block.size()) {
      return Status::IoError("short write to " + Noun(kind) + ": " + path);
    }
    bytes_written += block.size();
    return Status::OK();
  };
  Status result = write_all(header);
  for (size_t b = 0; result.ok() && b < blocks.size(); ++b) {
    result = write_all(blocks[b]);
  }
  auto close_file = [&]() -> Status {
    SQLCLASS_FAULT_POINT(faults::kStorageClose);
    std::FILE* f = file;
    file = nullptr;
    if (std::fclose(f) != 0) {
      return Status::IoError("cannot close " + Noun(kind) + ": " + path);
    }
    return Status::OK();
  };
  if (result.ok()) result = close_file();
  if (file != nullptr) std::fclose(file);
  if (result.ok() && counters != nullptr) {
    counters->pages_written += PagesFor(bytes_written);
  }
  if (!result.ok()) std::remove(path.c_str());
  return result;
}

ArtifactReader::~ArtifactReader() {
  // fault: uncovered(best-effort close in destructor: read-only stream; open/read paths report errors)
  if (file_ != nullptr) std::fclose(file_);
}

Status ArtifactReader::Open(ArtifactKind kind, const std::string& path,
                            const HeaderLength& header_length,
                            IoCounters* counters) {
  if (kind == kBitmapIndex) SQLCLASS_FAULT_POINT(faults::kBitmapOpen);
  if (kind == kSample) SQLCLASS_FAULT_POINT(faults::kSampleOpen);
  if (kind == kShardMap) SQLCLASS_FAULT_POINT(faults::kShardOpen);
  kind_ = kind;
  path_ = path;
  counters_ = counters;
  const std::string noun = Noun(kind);
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) {
    return Status::IoError("cannot open " + noun + ": " + path);
  }
  const long size =
      std::fseek(file_, 0, SEEK_END) == 0 ? std::ftell(file_) : -1;
  if (size < 0 || std::fseek(file_, 0, SEEK_SET) != 0) {
    return Status::IoError("cannot size " + noun + ": " + path);
  }
  file_size_ = static_cast<uint64_t>(size);

  // Read the header in the steps the format's lengths dictate, bounding
  // each step (trailer included) by the file size before allocating.
  uint64_t need = 2 * sizeof(uint32_t);  // magic + version
  while (need > header_.size()) {
    if (need + kTrailerBytes > file_size_) {
      return Status::IoError("truncated " + noun + " header in " + path);
    }
    const size_t at = header_.size();
    header_.resize(need);
    if (std::fread(header_.data() + at, 1, need - at, file_) != need - at) {
      return Status::IoError("cannot read " + noun + " header: " + path);
    }
    if (at == 0 && (DecodeFixed32(header_.data()) != Info(kind).magic ||
                    DecodeFixed32(header_.data() + 4) != Info(kind).version)) {
      return Status::IoError("bad " + noun + " magic or version in " + path);
    }
    SQLCLASS_ASSIGN_OR_RETURN(need,
                              header_length(header_.data(), header_.size()));
  }
  char trailer[kTrailerBytes];
  if (std::fread(trailer, 1, kTrailerBytes, file_) != kTrailerBytes) {
    return Status::IoError("cannot read " + noun + " header: " + path);
  }
  if (PageChecksumVerificationEnabled() &&
      Checksum32(header_.data(), header_.size()) != DecodeFixed32(trailer)) {
    if (counters_ != nullptr) ++counters_->checksum_failures;
    return Status::DataLoss(noun + " header checksum mismatch in " + path);
  }
  payload_offset_ = (header_.size() + kTrailerBytes + 7) & ~uint64_t{7};
  if (counters_ != nullptr) counters_->pages_read += PagesFor(payload_offset_);
  return Status::OK();
}

StatusOr<std::vector<char>> ArtifactReader::ReadBlock(uint64_t offset,
                                                      uint64_t bytes,
                                                      uint32_t checksum) {
  if (kind_ == kBitmapIndex) SQLCLASS_FAULT_POINT(faults::kBitmapRead);
  if (kind_ == kSample) SQLCLASS_FAULT_POINT(faults::kSampleRead);
  if (kind_ == kShardMap) SQLCLASS_FAULT_POINT(faults::kShardRead);
  const uint64_t payload =
      file_size_ > payload_offset_ ? file_size_ - payload_offset_ : 0;
  if (offset > payload || bytes > payload - offset) {
    return Status::IoError("truncated " + Noun(kind_) + " payload in " +
                           path_);
  }
  if (std::fseek(file_, static_cast<long>(payload_offset_ + offset),
                 SEEK_SET) != 0) {
    return Status::IoError("cannot seek in " + Noun(kind_) + ": " + path_);
  }
  std::vector<char> raw(bytes);
  if (bytes > 0 && std::fread(raw.data(), 1, raw.size(), file_) != raw.size()) {
    return Status::IoError("cannot read " + Noun(kind_) + " payload: " + path_);
  }
  if (counters_ != nullptr) counters_->pages_read += PagesFor(bytes);
  if (PageChecksumVerificationEnabled() &&
      Checksum32(raw.data(), raw.size()) != checksum) {
    if (counters_ != nullptr) ++counters_->checksum_failures;
    return Status::DataLoss(Noun(kind_) + " payload checksum mismatch in " +
                            path_);
  }
  return raw;
}

}  // namespace sqlclass
