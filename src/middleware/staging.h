#ifndef SQLCLASS_MIDDLEWARE_STAGING_H_
#define SQLCLASS_MIDDLEWARE_STAGING_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "catalog/row.h"
#include "catalog/schema.h"
#include "common/status.h"
#include "middleware/estimator.h"
#include "server/cost_model.h"
#include "storage/heap_file.h"
#include "storage/io_counters.h"
#include "storage/row_store.h"

namespace sqlclass {

/// Owns the middleware's two staging tiers (§4.1.2): heap files in the
/// middleware file system and in-memory row stores. Rows are appended
/// during counting scans (staging shares the scan with CC construction);
/// stores are freed when the scheduler determines no pending or future
/// request can use them.
///
/// Staged files are written at the narrowest value width `schema`'s domain
/// allows (NarrowestValueWidth): one byte per value when every column
/// declares at most 256 values. Byte accounting stays logical (rows x four
/// bytes per value, whatever the width on disk) so budgets, admission and
/// the simulated cost behave identically across widths and platforms.
class StagingManager {
 public:
  /// `dir` must exist; staged files are created inside it and removed when
  /// freed (or on destruction). Rows hold one value per `schema` column.
  /// Logical work is charged to `cost`.
  StagingManager(std::string dir, const Schema& schema, CostCounters* cost);
  ~StagingManager();

  StagingManager(const StagingManager&) = delete;
  StagingManager& operator=(const StagingManager&) = delete;

  // ------------------------------------------------------------- writing

  /// Starts a new staged file; rows are appended during the current scan.
  [[nodiscard]] StatusOr<uint64_t> BeginFileStore();
  /// Seals a staged file so it can be scanned.
  [[nodiscard]] Status FinishFileStore(uint64_t id);

  /// Starts a new in-memory store.
  uint64_t BeginMemoryStore();

  /// Appends the rows of `runs`, in order, to an open staged file or a
  /// memory store; each run holds whole rows of num_columns values. A file
  /// append crosses the `staging/append` fault point once per call and
  /// charges one mw_file_rows_written per row.
  [[nodiscard]] Status Append(const DataLocation& loc,
                              std::span<const std::span<const Value>> runs);

  /// Appends `num_rows` rows stored contiguously at `rows`: one run.
  [[nodiscard]] Status Append(const DataLocation& loc, const Value* rows,
                              size_t num_rows) {
    const std::span<const Value> run(rows, num_rows * num_columns_);
    return Append(loc, std::span<const std::span<const Value>>(&run, 1));
  }

  // ------------------------------------------------------------- reading

  /// Direct access to an in-memory store (iteration is charged by the
  /// caller as memory reads).
  [[nodiscard]] StatusOr<const InMemoryRowStore*> GetMemoryStore(uint64_t id) const;

  /// Path of a sealed staged file. Scans open their own readers on it and
  /// charge mw_file_rows_read themselves. Errors while the file is still
  /// being written.
  [[nodiscard]] StatusOr<std::string> FileStorePath(uint64_t id) const;

  /// Physical I/O of staged files (not part of the simulated cost model);
  /// scans merge their per-worker counters into this.
  IoCounters& io_counters() { return io_; }

  // ---------------------------------------------------------- accounting

  [[nodiscard]] StatusOr<uint64_t> StoreRows(const DataLocation& loc) const;
  size_t file_bytes_used() const { return file_bytes_used_; }
  size_t memory_bytes_used() const { return memory_bytes_used_; }
  size_t RowBytes() const { return num_columns_ * sizeof(Value); }

  int files_created() const { return files_created_; }
  int memory_stores_created() const { return memory_stores_created_; }

  /// Releases a staged store (deletes the file / frees the memory).
  [[nodiscard]] Status Free(const DataLocation& loc);

  /// Locations of all live staged stores (both tiers), for garbage
  /// collection sweeps.
  std::vector<DataLocation> LiveStores() const;

 private:
  struct FileStore {
    std::string path;
    std::unique_ptr<HeapFileWriter> writer;  // non-null while writing
    uint64_t rows = 0;
  };
  struct MemoryStore {
    explicit MemoryStore(int num_columns) : store(num_columns) {}
    InMemoryRowStore store;
  };

  std::string dir_;
  int num_columns_;
  ValueWidth file_width_;  // of every staged file
  CostCounters* cost_;
  IoCounters io_;  // physical I/O of staged files (not in simulated cost)
  uint64_t next_id_ = 1;
  std::map<uint64_t, FileStore> files_;
  std::map<uint64_t, MemoryStore> memory_;
  size_t file_bytes_used_ = 0;
  size_t memory_bytes_used_ = 0;
  int files_created_ = 0;
  int memory_stores_created_ = 0;
};

}  // namespace sqlclass

#endif  // SQLCLASS_MIDDLEWARE_STAGING_H_
