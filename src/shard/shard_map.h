#ifndef SQLCLASS_SHARD_SHARD_MAP_H_
#define SQLCLASS_SHARD_SHARD_MAP_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/row.h"
#include "common/status.h"
#include "storage/artifact_file.h"
#include "storage/heap_file.h"
#include "storage/io_counters.h"

namespace sqlclass {

/// Shared-nothing partitioning of one heap table (DESIGN.md "Sharded
/// scan-out"): the primary heap file is split into N shard heap files —
/// ordinary paged heap files, scannable by any HeapFileReader — under a
/// persisted distribution map, the `<heap>.shm` file. The middleware's
/// ShardCoordinator (middleware/shard_scan.h) fans CC batches out to
/// per-shard workers and merges their partial tables in fixed shard order,
/// so the result is byte-identical to an unsharded scan at every shard
/// count. The map is the NDB-style distribution state: which scheme routed
/// the rows, how many landed in each shard, and a Checksum32 of every shard
/// heap file so a stale or torn shard set is detected before it is served.
///
/// Map header fields after the magic "SQSH" and version (little-endian;
/// the framing is storage/artifact_file.h's):
///   [num_columns: u32][num_shards: u32]
///   [scheme: u32][reserved: u32][total_rows: u64]
///   [payload checksum: u32]
/// The payload is [rows: u64][heap checksum: u32] x num_shards.

/// Hard cap on the shard count a map may declare. Far above any sane
/// configuration; exists so a corrupt count cannot drive a huge allocation.
inline constexpr uint32_t kMaxShards = 1024;

/// How rows are routed to shards. Both schemes key on the row's ordinal
/// (its Tid in the primary heap — stable in this append-only engine), so
/// the streaming builder and the backfill path route identically and the
/// shard files they produce are byte-identical.
enum class ShardScheme : uint32_t {
  kRoundRobin = 0,  // ordinal % num_shards: perfectly even, cache-friendly
  kHashRowId = 1,   // splitmix64(ordinal) % num_shards: decorrelated
};

/// Conventional distribution-map filename for a heap file at `heap_path`.
std::string ShardMapPathFor(const std::string& heap_path);

/// Conventional heap filename for shard `shard` of the table at
/// `heap_path`.
std::string ShardHeapPathFor(const std::string& heap_path, uint32_t shard);

/// Conventional replica filename (`<heap>.s<i>.rep`) for shard `shard`: a
/// byte-identical copy of the shard heap file, written when the shard set
/// is built with replicas. The coordinator's first recovery rung for a
/// dead shard — cheaper than the primary re-scan and still covered by the
/// map's per-shard checksum.
std::string ShardReplicaPathFor(const std::string& heap_path, uint32_t shard);

/// The shard that owns row ordinal `row_ordinal` under `scheme`.
/// Deterministic, pure; the coordinator uses it to re-scan a dead shard's
/// rows out of the primary heap file.
uint32_t ShardForRow(ShardScheme scheme, uint64_t row_ordinal,
                     uint32_t num_shards);

/// One shard's entry in the distribution map.
struct ShardInfo {
  uint64_t rows = 0;           // rows routed to this shard
  uint32_t heap_checksum = 0;  // Checksum32 over the shard heap file bytes
};

/// Checksum32 over the whole file at `path`, read into memory whole (a
/// chunked checksum would tie the stored value to the chunk size).
/// `counters` (nullable) accumulates the physical page reads.
/// What the map stamps per shard and what VerifyShardFiles recomputes.
[[nodiscard]] StatusOr<uint32_t> ChecksumFileContents(const std::string& path,
                                        IoCounters* counters);

/// Streaming partitioner: routes rows to N shard heap writers as they
/// arrive and writes the distribution map on Finish. BuildFromHeapFile is
/// the one build path: it reads the table's heap file a page at a time and
/// routes each page's rows with AddRows by the ordinal scheme. On any
/// failure the partial shard set (map + every shard file) is removed. Not
/// thread-safe.
class ShardSetWriter {
 public:
  /// Partitions rows of `num_columns` values for the table whose primary
  /// heap file lives at `heap_path`; shard files and the map derive their
  /// paths from it. `num_shards` must be in [1, kMaxShards].
  ShardSetWriter(std::string heap_path, int num_columns, uint32_t num_shards,
                 ShardScheme scheme);

  /// When enabled (before Finish), Finish also writes a byte-identical
  /// replica of every shard heap file at ShardReplicaPathFor and verifies
  /// each copy against the shard's map checksum — the recovery rung the
  /// coordinator climbs before a primary re-scan.
  void set_write_replicas(bool write_replicas) {
    write_replicas_ = write_replicas;
  }

  /// Creates the shard heap files (truncating). Must be called once before
  /// AddRows. `counters` (nullable) accumulates physical writes for the
  /// writer's whole lifetime.
  [[nodiscard]] Status Open(IoCounters* counters);

  /// Routes `num_rows` rows stored contiguously at `rows` (num_columns
  /// values each) to their shards, in order, and appends each shard's rows
  /// with one HeapFileWriter::AppendRows call. The shard files are the
  /// same bytes as routing the rows one by one.
  [[nodiscard]] Status AddRows(const Value* rows, size_t num_rows);

  /// Routes one row to its shard.
  [[nodiscard]] Status AddRow(const Row& row);

  /// Rows routed so far.
  uint64_t rows_routed() const { return rows_routed_; }

  /// Finishes every shard heap file, checksums each one, and writes the
  /// distribution map. After a failed Finish the shard set is removed.
  [[nodiscard]] Status Finish();

  /// Scans the primary heap file at `heap_path` and writes the complete
  /// shard set next to it. Returns the number of rows read (each one
  /// partitioned). Physical reads and writes are charged to `counters`
  /// (nullable); the logical cost is the caller's
  /// (SqlServer::BuildShardSet).
  [[nodiscard]] static StatusOr<uint64_t> BuildFromHeapFile(const std::string& heap_path,
                                              int num_columns,
                                              uint32_t num_shards,
                                              ShardScheme scheme,
                                              IoCounters* counters,
                                              bool with_replicas = false);

 private:
  /// Best-effort removal of the map and every shard heap file.
  void RemoveShardSet();

  std::string heap_path_;
  int num_columns_;
  uint32_t num_shards_;
  ShardScheme scheme_;
  bool write_replicas_ = false;
  IoCounters* counters_ = nullptr;  // may be null
  uint64_t rows_routed_ = 0;
  std::vector<std::unique_ptr<HeapFileWriter>> writers_;
  std::vector<std::vector<Value>> runs_;  // AddRows' per-shard rows
};

/// Removes the distribution map and every shard heap file of the table at
/// `heap_path`, if present. Used by the server when appends or drops
/// invalidate the shard set. `num_shards` bounds the sweep; pass
/// kMaxShards when the original count is unknown.
void RemoveShardSetFiles(const std::string& heap_path, uint32_t num_shards);

/// Read-side handle on a persisted distribution map. Open() reads and
/// verifies the header; the per-shard entry block is loaded and
/// checksum-verified lazily on first access and cached for the reader's
/// lifetime. Not thread-safe. Fault-injection points: `shard/open` guards
/// Open(), `shard/read` guards the physical entry load (see
/// common/fault_injector.h).
class ShardMapReader {
 public:
  /// `counters` (nullable) accumulates physical page reads and checksum
  /// failures.
  [[nodiscard]] static StatusOr<std::unique_ptr<ShardMapReader>> Open(
      const std::string& path, IoCounters* counters);

  uint32_t num_shards() const { return num_shards_; }
  uint32_t num_columns() const { return num_columns_; }
  ShardScheme scheme() const { return scheme_; }
  /// Rows of the base table at partition time (the sum of shard rows).
  uint64_t total_rows() const { return total_rows_; }

  /// The per-shard distribution entries (num_shards() of them). First
  /// access reads and checksum-verifies the entry block from disk; later
  /// accesses return the cached copy.
  [[nodiscard]] StatusOr<const ShardInfo*> ShardRows();

 private:
  ShardMapReader() = default;

  ArtifactReader file_;
  uint32_t num_columns_ = 0;
  uint32_t num_shards_ = 0;
  ShardScheme scheme_ = ShardScheme::kRoundRobin;
  uint64_t total_rows_ = 0;
  uint32_t payload_checksum_ = 0;
  std::optional<std::vector<ShardInfo>> cache_;  // the payload, once read
};

/// Recomputes every shard heap file's checksum and compares it against the
/// map at `map_path`; replica files, where present, must match the same
/// per-shard checksum (they are byte-identical copies). OK when all match;
/// kDataLoss naming the first shard that does not. The partitioner's
/// roundtrip guarantee, exposed for tests and repair tooling.
[[nodiscard]] Status VerifyShardFiles(const std::string& heap_path,
                        const std::string& map_path, IoCounters* counters);

}  // namespace sqlclass

#endif  // SQLCLASS_SHARD_SHARD_MAP_H_
