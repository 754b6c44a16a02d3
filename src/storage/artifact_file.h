#ifndef SQLCLASS_STORAGE_ARTIFACT_FILE_H_
#define SQLCLASS_STORAGE_ARTIFACT_FILE_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/io_counters.h"

namespace sqlclass {

/// The derived artifact files kept next to a heap file share one framing
/// (DESIGN.md "Derived artifact files"), all integers little-endian:
///
///   [magic: u32][version: u32][the format's header fields]
///   [header checksum: u32]      Checksum32 over every prior byte
///   zero padding to an 8-byte boundary
///   [payload blocks]            each covered by a checksum the format
///                               keeps among its header fields
///
/// The kind fixes the magic and version, the fault points the reader
/// crosses (`bitmap/*`, `sample/*`, `shard/*`) and the noun in errors.
enum class ArtifactKind {
  kBitmapIndex,  // `.bmx`, magic "SQBM"
  kSample,       // `.smp`, magic "SQSM"
  kShardMap,     // `.shm`, magic "SQSH"
};

/// Pages a contiguous read/write of `bytes` costs, for IoCounters — the
/// same page unit heap files meter in.
uint64_t PagesFor(uint64_t bytes);

/// Writes one artifact file at `path` (truncating): the kind's magic and
/// version, `fields`, the header trailer and padding, then `blocks` in
/// order. Crosses `storage/fopen` once, `storage/fwrite` once for the
/// header and once per block, and `storage/fclose` once; charges the pages
/// written to `counters` (nullable). On any failure the path is removed.
[[nodiscard]] Status WriteArtifactFile(
    ArtifactKind kind, const std::string& path, const std::string& fields,
    std::span<const std::span<const char>> blocks, IoCounters* counters);

/// Read-side handle on one artifact file: owns the open stream, its path
/// and the caller's counters (nullable). Not thread-safe.
class ArtifactReader {
 public:
  /// Given the header bytes read so far (at least magic and version),
  /// returns the header's length without its trailer as far as those
  /// bytes tell, or an error for an implausible field. Open reads on until
  /// the answer stops growing, so a header whose length depends on its own
  /// fields answers in steps.
  using HeaderLength =
      std::function<StatusOr<uint64_t>(const char* header, uint64_t read)>;

  ArtifactReader() = default;
  ArtifactReader(const ArtifactReader&) = delete;
  ArtifactReader& operator=(const ArtifactReader&) = delete;
  ~ArtifactReader();

  /// Opens `path`, crossing the kind's open fault point, reads the header
  /// and verifies its trailer, then charges the header's pages. A wrong
  /// magic or version, or a header length the file cannot hold (checked
  /// before anything is sized from it), is kIoError; a trailer mismatch is
  /// kDataLoss plus one `checksum_failures`, unless page checksum
  /// verification is off.
  [[nodiscard]] Status Open(ArtifactKind kind, const std::string& path,
                            const HeaderLength& header_length,
                            IoCounters* counters);

  /// The header bytes from the magic on, trailer excluded.
  const char* header() const { return header_.data(); }
  const std::string& path() const { return path_; }

  /// Reads `bytes` bytes at `offset` into the payload, crossing the kind's
  /// read fault point, and charges their pages. A range past the end of
  /// the file is kIoError; a Checksum32 other than `checksum` is kDataLoss
  /// plus one `checksum_failures`, unless verification is off.
  [[nodiscard]] StatusOr<std::vector<char>> ReadBlock(uint64_t offset,
                                                      uint64_t bytes,
                                                      uint32_t checksum);

 private:
  ArtifactKind kind_ = ArtifactKind::kBitmapIndex;
  std::string path_;
  std::FILE* file_ = nullptr;
  IoCounters* counters_ = nullptr;
  uint64_t file_size_ = 0;
  uint64_t payload_offset_ = 0;
  std::string header_;
};

}  // namespace sqlclass

#endif  // SQLCLASS_STORAGE_ARTIFACT_FILE_H_
