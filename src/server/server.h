#ifndef SQLCLASS_SERVER_SERVER_H_
#define SQLCLASS_SERVER_SERVER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/row.h"
#include "catalog/schema.h"
#include "common/status.h"
#include "server/cost_model.h"
#include "shard/shard_map.h"
#include "sql/executor.h"
#include "sql/expr.h"
#include "sql/result_set.h"
#include "sql/row_source.h"
#include "storage/heap_file.h"
#include "storage/io_counters.h"

namespace sqlclass {

class SqlServer;

/// A forward-only cursor streaming rows from the server to the middleware.
/// Filters are evaluated *at the server*: non-matching rows cost a cheap
/// server-side evaluation, matching rows additionally pay the (expensive)
/// cursor transfer. The baselines read through it; the middleware's
/// counting scan reads the heap pages itself and charges what this cursor
/// would (§4.1.1), which is why the filter pushdown of §4.3.1 saves time.
class ServerCursor {
 public:
  ServerCursor(const ServerCursor&) = delete;
  ServerCursor& operator=(const ServerCursor&) = delete;
  ~ServerCursor() = default;

  /// Next row that passed the server-side filter; false at end.
  [[nodiscard]] StatusOr<bool> Next(Row* row);

  uint64_t rows_transferred() const { return transferred_; }

 private:
  friend class SqlServer;
  enum class Mode {
    kScan,      // sequential heap scan with filter
    kTidProbe,  // positioned fetches from a TID list / keyset
  };

  ServerCursor(Mode mode, std::unique_ptr<HeapFileReader> reader,
               std::unique_ptr<Expr> filter, std::vector<Tid> tids,
               CostCounters* counters);

  Mode mode_;
  std::unique_ptr<HeapFileReader> reader_;
  std::unique_ptr<Expr> filter_;  // bound; may be null (no filter)
  std::vector<Tid> tids_;         // for kTidProbe
  size_t tid_pos_ = 0;
  CostCounters* counters_;
  uint64_t transferred_ = 0;
  bool scan_charged_ = false;
};

/// Embedded single-threaded relational engine standing in for the paper's
/// Microsoft SQL Server 7.0 backend. Tables are paged heap files under a
/// base directory; queries go through the SQL parser + executor; bulk data
/// flows through cursors. It offers what the middleware and the baselines
/// call: filtered cursor scans, GROUP BY count queries, temp tables, TID
/// joins and keyset cursors, plus the derived artifacts (bitmap index,
/// scramble, shard set) the middleware counts from. Every access is a
/// sequential scan or a positioned fetch from a TID list. All externally
/// visible work is metered into CostCounters so experiments report
/// deterministic simulated seconds.
///
/// Loading data (CreateTable / Loader) is deliberately *not* metered: the
/// paper measures tree-growing time against a pre-existing database.
class SqlServer : public TableProvider {
 public:
  /// `base_dir` must exist and be writable; table files live inside it.
  explicit SqlServer(std::string base_dir, CostModel model = CostModel());
  ~SqlServer() override;

  SqlServer(const SqlServer&) = delete;
  SqlServer& operator=(const SqlServer&) = delete;

  // ------------------------------------------------------------- DDL/DML

  [[nodiscard]] Status CreateTable(const std::string& name, const Schema& schema);
  [[nodiscard]] Status DropTable(const std::string& name);
  bool HasTable(const std::string& name) const;

  /// Streaming bulk loader; call Finish() exactly once.
  class Loader {
   public:
    [[nodiscard]] Status Append(const Row& row);
    [[nodiscard]] Status Finish();
    uint64_t rows() const { return writer_->rows_written(); }

   private:
    friend class SqlServer;
    Loader(SqlServer* server, std::string table,
           std::unique_ptr<HeapFileWriter> writer, const Schema* schema);
    SqlServer* server_;
    std::string table_;
    std::unique_ptr<HeapFileWriter> writer_;
    const Schema* schema_;
  };
  [[nodiscard]] StatusOr<std::unique_ptr<Loader>> OpenLoader(const std::string& name);

  /// Convenience wrapper for small tables.
  [[nodiscard]] Status LoadRows(const std::string& name, const std::vector<Row>& rows);

  /// Appends rows to an already-loaded table (the INSERT path). Every
  /// artifact built over the table (bitmap index, scramble, shard set) is
  /// dropped.
  [[nodiscard]] Status AppendRows(const std::string& name, const std::vector<Row>& rows);

  // ----------------------------------------------------------- metadata

  [[nodiscard]] StatusOr<const Schema*> GetSchema(const std::string& table) override;
  [[nodiscard]] StatusOr<uint64_t> TableRowCount(const std::string& table) const;

  /// Path of a loaded table's heap file, for scanners that open their own
  /// readers (the morsel-parallel counting scan opens one per worker).
  /// Errors while the table is still loading.
  [[nodiscard]] StatusOr<std::string> TableHeapPath(const std::string& table) const;

  /// Physical scan used by the SQL executor; meters physical I/O only (the
  /// executor's ExecStats carry the logical charges).
  [[nodiscard]] StatusOr<std::unique_ptr<RowSource>> Scan(const std::string& table) override;

  // ----------------------------------------------------------- SQL path

  /// Parses and executes any statement (query / CREATE TABLE / DROP TABLE
  /// / INSERT); logical query work is charged to the cost counters. This is
  /// the path the SQL-counting baseline (§2.3) uses.
  [[nodiscard]] StatusOr<ResultSet> Execute(const std::string& sql);

  /// EXPLAIN: a human-readable plan for a query without executing it — one
  /// line per UNION ALL branch naming the sequential scan Execute runs, with
  /// the branch's filter and grouping, then the sort and limit. Charges
  /// nothing.
  [[nodiscard]] StatusOr<std::string> Explain(const std::string& sql);

  // -------------------------------------------------------- cursor path

  /// Opens a filtered forward-only cursor. `filter` may be null (full
  /// table); it is cloned and bound internally.
  [[nodiscard]] StatusOr<std::unique_ptr<ServerCursor>> OpenCursor(const std::string& table,
                                                     const Expr* filter);

  // ------------------------------------------------- derived artifacts

  /// Builds the per-attribute, per-value bitmap index for every column of
  /// `table` (one metered scan plus per-row insertion cost) and persists it
  /// alongside the heap file. The middleware's bitmap routing (scheduler
  /// Rule 0) and the service layer serve conjunctive CC requests from it.
  /// Appending rows invalidates the index — rebuild after bulk INSERTs.
  [[nodiscard]] Status BuildBitmapIndex(const std::string& table);
  bool HasBitmapIndex(const std::string& table) const;

  /// Path of the table's bitmap index file, for scanners that open their
  /// own BitmapIndexReader. Errors when no index exists.
  [[nodiscard]] StatusOr<std::string> BitmapIndexPath(const std::string& table) const;
  [[nodiscard]] Status DropBitmapIndex(const std::string& table);

  /// Builds the table's persistent scramble (uniform pre-shuffled row
  /// sample at `sampling_ratio`, one metered scan plus per-row insertion
  /// cost) and persists it alongside the heap file. The middleware's
  /// approximate counting (scheduler Rule 7) serves split-selection CC
  /// requests from it. Appending rows invalidates the scramble — rebuild
  /// after bulk INSERTs.
  [[nodiscard]] Status BuildSampleTable(const std::string& table, double sampling_ratio,
                          uint64_t seed);
  bool HasSampleTable(const std::string& table) const;

  /// Path of the table's scramble file, for scanners that open their own
  /// SampleFileReader. Errors when no scramble exists.
  [[nodiscard]] StatusOr<std::string> SampleTablePath(const std::string& table) const;
  [[nodiscard]] Status DropSampleTable(const std::string& table);

  /// Partitions the table's heap file into `num_shards` shard heap files
  /// under a persisted, checksummed distribution map (one metered scan plus
  /// per-row insertion cost). The middleware's sharded scan-out (scheduler
  /// Rule 8) fans CC batches out over the shard set. Appending rows
  /// invalidates the shard set — rebuild after bulk INSERTs.
  /// `with_replicas` also writes a byte-identical `.s<i>.rep` replica per
  /// shard — the coordinator's first recovery rung for a dead shard.
  [[nodiscard]] Status BuildShardSet(const std::string& table, uint32_t num_shards,
                       ShardScheme scheme = ShardScheme::kHashRowId,
                       bool with_replicas = false);
  bool HasShardSet(const std::string& table) const;

  /// Path of the table's shard distribution map (`.shm`), for coordinators
  /// that open their own ShardMapReader. Errors when no shard set exists.
  [[nodiscard]] StatusOr<std::string> ShardSetPath(const std::string& table) const;
  [[nodiscard]] Status DropShardSet(const std::string& table);

  // --------------------------------- auxiliary structures (§4.3.3)

  /// (a) Copies the filtered subset of `src` into a new table `temp_name`
  /// (created; fails if it exists). Charges expensive server-side writes.
  [[nodiscard]] Status CopyToTempTable(const std::string& src, const Expr* filter,
                         const std::string& temp_name);

  /// (b) Materializes the TIDs of rows matching `filter` into a named TID
  /// list; returns the number of TIDs captured.
  [[nodiscard]] StatusOr<uint64_t> CreateTidList(const std::string& src, const Expr* filter,
                                   const std::string& list_name);

  /// (b) Scans `src` through the TID list (simulated join on TID), applying
  /// `extra_filter` (may be null) server-side before transfer.
  [[nodiscard]] StatusOr<std::unique_ptr<ServerCursor>> ScanByTidJoin(
      const std::string& src, const std::string& list_name,
      const Expr* extra_filter);

  /// (c) Defines a keyset cursor over the rows of `table` matching
  /// `filter`; returns a keyset id. Cheaper to create than a temp table
  /// (keys stay in server memory).
  [[nodiscard]] StatusOr<uint64_t> CreateKeyset(const std::string& table,
                                  const Expr* filter);

  /// (c) Re-scans the keyset; `proc_filter` models the stored procedure
  /// that filters fetched rows before returning them to the middleware.
  [[nodiscard]] StatusOr<std::unique_ptr<ServerCursor>> ScanKeyset(uint64_t keyset_id,
                                                     const Expr* proc_filter);

  [[nodiscard]] Status ReleaseKeyset(uint64_t keyset_id);

  // ------------------------------------------------------------ metering

  CostCounters& cost_counters() { return cost_counters_; }
  const CostModel& cost_model() const { return cost_model_; }
  double SimulatedSeconds() const {
    return cost_model_.SimulatedSeconds(cost_counters_);
  }
  void ResetCostCounters() { cost_counters_.Reset(); }
  IoCounters& io_counters() { return io_counters_; }

 private:
  /// The derived artifact files built next to a table's heap file. Their
  /// paths derive from the heap path (BitmapIndexPathFor,
  /// SampleFilePathFor, ShardMapPathFor), so only what those cannot give
  /// is kept: which artifacts exist, and the shard count invalidation must
  /// sweep.
  struct Artifacts {
    bool bitmap_index = false;
    bool sample = false;
    uint32_t num_shards = 0;  // 0 = no shard set
  };

  struct TableState {
    Schema schema;
    std::string path;
    uint64_t row_count = 0;
    bool loading = false;
    Artifacts artifacts;
  };

  struct Keyset {
    std::string table;
    std::vector<Tid> tids;
  };

  [[nodiscard]] StatusOr<TableState*> GetState(const std::string& table);
  [[nodiscard]] StatusOr<const TableState*> GetState(const std::string& table) const;
  std::string TablePath(const std::string& name) const;

  /// Removes every artifact file of the table and forgets them — appends
  /// and drops leave no stale artifact to be served.
  static void RemoveArtifacts(TableState* state);

  /// A table's heap reader with a clone of a caller's filter (null = none)
  /// bound to its schema.
  struct BoundScan {
    std::unique_ptr<HeapFileReader> reader;
    std::unique_ptr<Expr> filter;
  };

  /// Opens a BoundScan over `table`, charging one server scan.
  [[nodiscard]] StatusOr<BoundScan> OpenScan(const std::string& table,
                                             const Expr* filter);

  /// Charges a Build* of a derived artifact that read `rows` rows and wrote
  /// `copies` copies of each: one scan, one evaluation per row read and one
  /// insert per row written.
  void ChargeBuild(uint64_t rows, uint64_t copies);

  /// Scans `src` at the server, charging one scan + per-row evaluation, and
  /// invokes `fn(tid, row)` for rows matching `filter` (null = all rows).
  [[nodiscard]] Status ServerSideScan(const std::string& src, const Expr* filter,
                        const std::function<Status(Tid, const Row&)>& fn);

  std::string base_dir_;
  CostModel cost_model_;
  CostCounters cost_counters_;
  IoCounters io_counters_;
  std::map<std::string, TableState> tables_;
  std::map<std::string, std::vector<Tid>> tid_lists_;
  std::map<uint64_t, Keyset> keysets_;
  uint64_t next_keyset_id_ = 1;
};

}  // namespace sqlclass

#endif  // SQLCLASS_SERVER_SERVER_H_
