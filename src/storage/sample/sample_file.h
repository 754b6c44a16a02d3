#ifndef SQLCLASS_STORAGE_SAMPLE_SAMPLE_FILE_H_
#define SQLCLASS_STORAGE_SAMPLE_SAMPLE_FILE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/row.h"
#include "common/random.h"
#include "common/status.h"
#include "storage/artifact_file.h"
#include "storage/io_counters.h"

namespace sqlclass {

/// Persistent "scramble" table (VerdictDB terminology): a uniform random
/// sample of a heap file, pre-shuffled at write time so any prefix of the
/// stored rows is itself a uniform sample. The middleware serves
/// split-selection CC requests from it (scheduler Rule 7) and escalates to
/// an exact scan only when the impurity gap between the top two candidate
/// splits falls inside the confidence interval — see
/// middleware/sample_scan.h and DESIGN.md "Approximate counting".
///
/// Header fields after the magic "SQSM" and version (little-endian; the
/// framing is storage/artifact_file.h's):
///   [num_columns: u32][reserved: u32]
///   [sample_rows: u64][total_rows: u64][seed: u64][ratio bits: u64]
///   [payload checksum: u32]
/// The payload is [value: u32 x num_columns] x sample_rows (row-major).

/// Conventional scramble filename for a heap file at `heap_path`.
std::string SampleFilePathFor(const std::string& heap_path);

/// Streaming scramble builder, written out in one shot. BuildFromHeapFile
/// is the one build path: it reads the table's heap pages and offers each
/// row to AddRow. The total row count must be known up front (the heap
/// file's page count gives it) so the reservoir capacity
/// round(ratio * total_rows) is fixed before the first row arrives;
/// Algorithm R then keeps a uniform sample in one pass. WriteFile shuffles
/// the reservoir with the seeded RNG before serializing, making the stored
/// order independent of heap order. Deterministic for a fixed
/// (seed, total_rows, ratio, row stream). Not thread-safe.
class SampleFileBuilder {
 public:
  /// Samples round(ratio * total_rows) rows (clamped to [1, total_rows];
  /// 0 when the table is empty) of `num_columns` values each.
  SampleFileBuilder(int num_columns, uint64_t total_rows, double ratio,
                    uint64_t seed);

  /// Folds one row into the reservoir.
  [[nodiscard]] Status AddRow(const Value* values, size_t num_values);

  /// Rows offered to the reservoir so far.
  uint64_t rows_seen() const { return rows_seen_; }

  /// Rows currently held (== capacity once rows_seen >= capacity).
  uint64_t sample_rows() const { return reservoir_.size() / num_columns_; }

  /// Shuffles the reservoir and serializes it to `path` (truncating),
  /// stamping payload and header checksums. `counters` (nullable)
  /// accumulates physical page writes.
  [[nodiscard]] Status WriteFile(const std::string& path, IoCounters* counters);

  /// Scans the heap file at `heap_path` and writes the scramble to
  /// `out_path`. Returns the number of rows read (each one offered to the
  /// reservoir). Physical reads and writes are charged to `counters`
  /// (nullable); the logical cost is the caller's
  /// (SqlServer::BuildSampleTable).
  [[nodiscard]] static StatusOr<uint64_t> BuildFromHeapFile(const std::string& heap_path,
                                              int num_columns, double ratio,
                                              uint64_t seed,
                                              const std::string& out_path,
                                              IoCounters* counters);

 private:
  size_t num_columns_;
  uint64_t total_rows_;
  double ratio_;
  uint64_t seed_;
  uint64_t capacity_;   // reservoir size in rows
  uint64_t rows_seen_ = 0;
  Random rng_;
  /// capacity_ rows of num_columns_ values each, row-major, unshuffled.
  std::vector<Value> reservoir_;
};

/// Read-side handle on a persisted scramble. Open() reads and verifies the
/// header; the row payload is loaded and checksum-verified lazily on first
/// access and cached for the reader's lifetime. Not thread-safe — callers
/// serialize access the same way they do for SqlServer. Fault-injection
/// points: `sample/open` guards Open(), `sample/read` guards the physical
/// payload load (see common/fault_injector.h).
class SampleFileReader {
 public:
  /// `counters` (nullable) accumulates physical page reads and checksum
  /// failures.
  [[nodiscard]] static StatusOr<std::unique_ptr<SampleFileReader>> Open(
      const std::string& path, IoCounters* counters);

  uint64_t num_rows() const { return sample_rows_; }
  uint32_t num_columns() const { return num_columns_; }
  /// Rows of the base table at build time (the scale-up denominator).
  uint64_t total_rows() const { return total_rows_; }
  double sampling_ratio() const { return ratio_; }
  uint64_t seed() const { return seed_; }

  /// The sampled rows, row-major (num_rows() x num_columns() values). First
  /// access reads and checksum-verifies the payload from disk; later
  /// accesses return the cached copy.
  [[nodiscard]] StatusOr<const Value*> SampleRows();

 private:
  SampleFileReader() = default;

  ArtifactReader file_;
  uint32_t num_columns_ = 0;
  uint64_t sample_rows_ = 0;
  uint64_t total_rows_ = 0;
  uint64_t seed_ = 0;
  double ratio_ = 0.0;
  uint32_t payload_checksum_ = 0;
  std::optional<std::vector<Value>> cache_;  // the payload, once read
};

}  // namespace sqlclass

#endif  // SQLCLASS_STORAGE_SAMPLE_SAMPLE_FILE_H_
