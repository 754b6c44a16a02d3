#ifndef SQLCLASS_MIDDLEWARE_SHARD_SCAN_H_
#define SQLCLASS_MIDDLEWARE_SHARD_SCAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "middleware/batch_matcher.h"
#include "middleware/config.h"
#include "middleware/parallel_scan.h"
#include "mining/cc_table.h"
#include "server/cost_model.h"
#include "shard/shard_map.h"
#include "sql/expr.h"
#include "storage/io_counters.h"

namespace sqlclass {

/// The work order one shard worker executes: count the shard heap file
/// into a partial CC table per batch node. Everything a worker touches is
/// either owned by it (`partials`, `rows_scanned`, `io`) or read-only and
/// shared (`matcher`, `node_attrs`), so tasks for distinct shards run
/// concurrently without synchronization.
struct ShardTask {
  uint32_t shard = 0;
  std::string shard_heap_path;
  uint64_t expected_rows = 0;  // from the distribution map; mismatch = stale
  int num_columns = 0;
  int class_column = 0;
  int num_classes = 0;
  const BatchMatcher* matcher = nullptr;
  const std::vector<const std::vector<int>*>* node_attrs = nullptr;
  /// Per-node bound predicates (null entry = TRUE), parallel to
  /// `node_attrs`. The in-process transport ignores these (the matcher
  /// already encodes them); the subprocess transport serializes them so
  /// the worker process can build its own matcher.
  const std::vector<const Expr*>* predicates = nullptr;
  /// Domain size of every column. The subprocess transport rejects a reply
  /// whose CC cells fall outside it.
  const std::vector<int>* cardinalities = nullptr;
  std::vector<CcTable>* partials = nullptr;  // out: set by a good scan
  uint64_t* rows_scanned = nullptr;          // out
  IoCounters* io = nullptr;                  // out: worker-private physical IO
};

/// How the coordinator reaches a shard's scan executor. The in-process
/// implementation below runs the scan on the calling (pool) thread; a
/// subprocess implementation would serialize the task over a pipe or
/// socketpair to a per-shard worker process and deserialize the partial CC
/// tables back — the seam is this interface, nothing in the coordinator
/// assumes shared memory beyond the ShardTask out-fields it owns.
/// Implementations must be safe to call concurrently from multiple worker
/// threads.
class ShardTransport {
 public:
  virtual ~ShardTransport() = default;

  /// Executes `task`'s shard scan, filling its out-fields. A non-OK status
  /// marks the shard dead; the coordinator then recovers that shard from
  /// its replica file when one exists, else re-scans its rows from the
  /// primary heap file (replica-style exclusion).
  [[nodiscard]] virtual Status RunShard(const ShardTask& task) = 0;

  /// Cumulative RPC deadline expiries across the transport's lifetime.
  /// Zero for transports without an RPC path.
  virtual uint64_t rpc_timeouts() const { return 0; }

  /// Cumulative worker-process respawns after a kill or crash (the
  /// pre-fork of a healthy pool is not a restart). Zero for transports
  /// without worker processes.
  virtual uint64_t worker_restarts() const { return 0; }
};

/// Counts the shard heap (or replica, or primary heap under a row-ordinal
/// filter) at `path` through ParallelCountScan on the calling thread, with
/// no charges and no fault point, and checks the rows scanned against the
/// distribution map's `expected_rows` (kDataLoss when they differ). Every
/// shard scan — in-process, worker process, replica and primary rescan —
/// counts through it. Physical reads land on `io` (nullable).
[[nodiscard]] StatusOr<ParallelScanResult> CountShardHeap(
    const std::string& path, int num_columns, uint64_t expected_rows,
    const ParallelScanOptions& options, IoCounters* io);

/// Builds the transport `config` asks for (after SQLCLASS_SHARDS_TRANSPORT
/// resolution); subprocess options — deadline, retry policy, worker binary
/// — come from the config plus their env overrides. The result is safe to
/// share across batches and (like all transports) across pool threads.
std::unique_ptr<ShardTransport> MakeShardTransport(
    const ShardingConfig& config);

/// Runs the shard scan in the calling thread — the shared-nothing layout
/// without the process boundary. The `shard/worker` fault point guards the
/// task entry, `shard/read` the shard heap scan itself.
class InProcessShardTransport : public ShardTransport {
 public:
  [[nodiscard]] Status RunShard(const ShardTask& task) override;
};

/// Fans one CC batch out across the table's shard set (scheduler Rule 8)
/// and merges the partial tables in fixed shard order, so the result is
/// byte-identical to the unsharded row-scan path at every shard count and
/// worker-thread count. A dead shard — worker fault, shard-file fault, or
/// a row count disagreeing with the distribution map — is re-scanned from
/// the primary heap file, restricted to the rows the scheme routed to that
/// shard; the pass fails only when the primary re-scan fails too.
class ShardCoordinator {
 public:
  /// One CC request inside a sharded batch.
  struct Node {
    const Expr* predicate = nullptr;  // bound; null means TRUE
    const std::vector<int>* active_attrs = nullptr;
    CcTable* cc = nullptr;  // out: populated by Run
  };

  struct Result {
    uint64_t rows_scanned = 0;  // base rows counted across all shards
    int rescans = 0;            // dead shards recovered from the primary
    int replica_rescans = 0;    // dead shards recovered from their replica
  };

  /// Opens and validates the distribution map for the table whose primary
  /// heap file is at `heap_path`. Physical reads land on `io` (nullable).
  [[nodiscard]] static StatusOr<std::unique_ptr<ShardCoordinator>> Open(
      const std::string& heap_path, const Schema& schema, IoCounters* io);

  uint32_t num_shards() const { return map_->num_shards(); }
  uint64_t total_rows() const { return map_->total_rows(); }

  /// Builds every node's CC table. Per-shard tasks run over `pool` via
  /// `transport` (both serial when pool is null or single-threaded).
  /// `cost` (nullable) takes the logical mw_shard_* charges — per base row
  /// per node and per final merged cell, so simulated cost is invariant
  /// across shard and worker counts; physical reads land on per-worker
  /// counters folded into the Open-time `io`.
  [[nodiscard]] Status Run(ThreadPool* pool, ShardTransport* transport,
             std::vector<Node>* nodes, CostCounters* cost, Result* result);

 private:
  ShardCoordinator(std::string heap_path, const Schema* schema,
                   std::unique_ptr<ShardMapReader> map, IoCounters* io);

  /// Serial re-scan of dead shard `shard`'s rows out of the primary heap
  /// file: a CountShardHeap whose row-ordinal filter keeps row r iff
  /// ShardForRow(scheme, r, N) says it belongs to the shard.
  [[nodiscard]] Status RescanFromPrimary(uint32_t shard, const ShardTask& task);

  std::string heap_path_;
  const Schema* schema_;
  std::unique_ptr<ShardMapReader> map_;
  IoCounters* io_;  // may be null
};

}  // namespace sqlclass

#endif  // SQLCLASS_MIDDLEWARE_SHARD_SCAN_H_
