#ifndef SQLCLASS_STORAGE_BITMAP_BITMAP_INDEX_H_
#define SQLCLASS_STORAGE_BITMAP_BITMAP_INDEX_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/row.h"
#include "common/status.h"
#include "storage/artifact_file.h"
#include "storage/io_counters.h"

namespace sqlclass {

/// Per-attribute, per-value dense bitmap index persisted alongside a v2
/// heap file. For every column `c` of the indexed table and every value
/// `v` in [0, cardinality(c)), the file holds one dense bitmap whose bit
/// `r` is set iff row `r` has `row[c] == v`. Node-predicate counts then
/// become bitmap AND + popcount instead of row-at-a-time decode.
///
/// Header fields after the magic "SQBM" and version (little-endian; the
/// framing is storage/artifact_file.h's):
///   [num_columns: u32][reserved: u32][num_rows: u64]
///   [cardinality: u32] x num_columns
///   [bitmap checksum: u32] x total_bitmaps     (sum of cardinalities)
/// The payload is [bitmap words: u64 x words_per_bitmap] x total_bitmaps.
///
/// Bitmaps are laid out column-major: all of column 0's values first, then
/// column 1's, and so on. Every bitmap spans words_per_bitmap =
/// ceil(num_rows / 64) words; bits at or beyond num_rows are zero.

/// Conventional index filename for a heap file at `heap_path`.
std::string BitmapIndexPathFor(const std::string& heap_path);

/// In-memory accumulator for a bitmap index, written out in one shot.
/// BuildFromHeapFile is the one build path: it reads the table's heap
/// pages and folds each row in with AddRow. Not thread-safe.
class BitmapIndexBuilder {
 public:
  /// `cardinalities[c]` is the value-domain size of column `c`; every
  /// column of the table (including the class column) gets bitmaps.
  explicit BitmapIndexBuilder(std::vector<uint32_t> cardinalities);

  /// Folds one row in; values must lie inside each column's domain.
  [[nodiscard]] Status AddRow(const Value* values, size_t num_values);

  uint64_t num_rows() const { return num_rows_; }

  /// Serializes the accumulated bitmaps to `path` (truncating), stamping
  /// per-bitmap and header checksums. `counters` (nullable) accumulates
  /// physical page writes.
  [[nodiscard]] Status WriteFile(const std::string& path, IoCounters* counters) const;

  /// Scans the heap file at `heap_path` and writes the index to
  /// `out_path`. Returns the number of rows read (each one indexed).
  /// Physical reads and writes are charged to `counters` (nullable); the
  /// logical cost is the caller's (SqlServer::BuildBitmapIndex).
  [[nodiscard]] static StatusOr<uint64_t> BuildFromHeapFile(
      const std::string& heap_path, std::vector<uint32_t> cardinalities,
      const std::string& out_path, IoCounters* counters);

 private:
  std::vector<uint32_t> cardinalities_;
  std::vector<uint32_t> bitmap_base_;  // per column: first bitmap ordinal
  uint32_t total_bitmaps_ = 0;
  uint64_t num_rows_ = 0;
  /// One word vector per bitmap, grown as rows arrive.
  std::vector<std::vector<uint64_t>> bits_;
};

/// Read-side handle on a persisted bitmap index. Open() reads and verifies
/// the header; individual bitmaps are loaded lazily on first access and
/// cached for the reader's lifetime. Not thread-safe — callers serialize
/// access the same way they do for SqlServer. Fault-injection points:
/// `bitmap/open` guards Open(), `bitmap/read` guards every physical bitmap
/// load (see common/fault_injector.h).
class BitmapIndexReader {
 public:
  /// `counters` (nullable) accumulates physical page reads and checksum
  /// failures.
  [[nodiscard]] static StatusOr<std::unique_ptr<BitmapIndexReader>> Open(
      const std::string& path, IoCounters* counters);

  uint64_t num_rows() const { return num_rows_; }
  uint32_t num_columns() const { return num_columns_; }
  uint32_t cardinality(int column) const { return cardinalities_[column]; }
  uint64_t words_per_bitmap() const { return words_per_bitmap_; }

  /// The dense bitmap of rows where `column == value`, as
  /// words_per_bitmap() words. First access reads and checksum-verifies the
  /// bitmap from disk; later accesses return the cached copy. Errors on
  /// out-of-domain (column, value).
  [[nodiscard]] StatusOr<const uint64_t*> BitmapWords(int column, Value value);

 private:
  BitmapIndexReader() = default;

  ArtifactReader file_;
  uint32_t num_columns_ = 0;
  uint64_t num_rows_ = 0;
  uint64_t words_per_bitmap_ = 0;
  std::vector<uint32_t> cardinalities_;
  std::vector<uint64_t> bitmap_base_;       // per column: first bitmap ordinal
  /// One slot per bitmap, filled on first access.
  std::vector<std::optional<std::vector<uint64_t>>> cache_;
};

}  // namespace sqlclass

#endif  // SQLCLASS_STORAGE_BITMAP_BITMAP_INDEX_H_
