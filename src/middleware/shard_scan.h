#ifndef SQLCLASS_MIDDLEWARE_SHARD_SCAN_H_
#define SQLCLASS_MIDDLEWARE_SHARD_SCAN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "middleware/config.h"
#include "mining/cc_table.h"
#include "server/cost_model.h"
#include "shard/shard_map.h"
#include "shard/wire.h"
#include "sql/expr.h"
#include "storage/io_counters.h"

namespace sqlclass {

/// How the coordinator reaches a shard's scan executor: in process, or
/// over a pipe to a `sqlclass_shard_worker` process. Either way the task
/// goes in by const reference and the partial CC tables come back by
/// value. Implementations must be safe to call concurrently from multiple
/// worker threads.
class ShardTransport {
 public:
  virtual ~ShardTransport() = default;

  /// Counts `task`'s shard. A non-OK status marks the shard dead; the
  /// coordinator then recovers that shard from its replica file when one
  /// exists, else re-scans its rows from the primary heap file.
  [[nodiscard]] virtual StatusOr<WireShardResult> RunShard(
      const WireShardTask& task) = 0;

  /// Cumulative RPC deadline expiries across the transport's lifetime.
  /// Zero for transports without an RPC path.
  virtual uint64_t rpc_timeouts() const { return 0; }

  /// Cumulative worker-process respawns after a kill or crash (the
  /// pre-fork of a healthy pool is not a restart). Zero for transports
  /// without worker processes.
  virtual uint64_t worker_restarts() const { return 0; }
};

/// Counts `task`'s nodes over the heap file at `path` through
/// ParallelCountScan on the calling thread, with no charges, and checks
/// the rows scanned against the distribution map's `expected_rows`
/// (kDataLoss when they differ). `path` is the shard heap, its replica, or
/// the primary heap under a `row_filter` that keeps the shard's rows. Every
/// shard scan counts through it: both transports, the replica rung and the
/// primary rescan. The `shard/read` fault point guards the scan of a shard
/// file (no `row_filter`); the primary rescan crosses none. Physical reads
/// land on the result's `io`.
[[nodiscard]] StatusOr<WireShardResult> CountShardTask(
    const WireShardTask& task, const std::string& path,
    const std::function<bool(uint64_t row_ordinal)>& row_filter = {});

/// Builds the transport `config` asks for (after SQLCLASS_SHARDS_TRANSPORT
/// resolution); subprocess options — deadline, retry policy, worker binary
/// — come from the config plus their env overrides, and the worker-process
/// pool holds `pool_size` processes. The result is safe to share across
/// batches and (like all transports) across pool threads.
std::unique_ptr<ShardTransport> MakeShardTransport(
    const ShardingConfig& config, int pool_size);

/// Runs the shard scan in the calling thread — the shared-nothing layout
/// without the process boundary. The `shard/worker` fault point guards the
/// task entry, `shard/read` the shard heap scan itself.
class InProcessShardTransport : public ShardTransport {
 public:
  [[nodiscard]] StatusOr<WireShardResult> RunShard(
      const WireShardTask& task) override;
};

/// Fans one CC batch out across the table's shard set (scheduler Rule 8)
/// and merges the partial tables in fixed shard order, so the result is
/// byte-identical to the unsharded row-scan path at every shard count and
/// worker-thread count. A dead shard — worker fault, shard-file fault, or
/// a row count disagreeing with the distribution map — is re-scanned from
/// its replica file when one exists, else from the primary heap file
/// restricted to the rows the scheme routed to that shard; the pass fails
/// only when the primary re-scan fails too.
class ShardCoordinator {
 public:
  /// One CC request inside a sharded batch.
  struct Node {
    const Expr* predicate = nullptr;  // bound; null means TRUE
    /// The attributes the shards count and ship, possibly none (a derived
    /// child's residual attributes; its class totals are always counted).
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

  /// Builds every node's CC table. The batch's predicates are lowered to
  /// one WireShardTask per shard, and the tasks run over `pool` via
  /// `transport` (serially when pool is null or single-threaded).
  /// `cost` (nullable) takes the logical mw_shard_* charges — per base row
  /// per node and per final merged cell, so simulated cost is invariant
  /// across shard and worker counts; the physical reads of every shard's
  /// successful scan are folded into the Open-time `io`.
  [[nodiscard]] Status Run(ThreadPool* pool, ShardTransport* transport,
             std::vector<Node>* nodes, CostCounters* cost, Result* result);

 private:
  ShardCoordinator(std::string heap_path, const Schema* schema,
                   std::unique_ptr<ShardMapReader> map, IoCounters* io);

  std::string heap_path_;
  const Schema* schema_;
  std::unique_ptr<ShardMapReader> map_;
  IoCounters* io_;  // may be null
};

}  // namespace sqlclass

#endif  // SQLCLASS_MIDDLEWARE_SHARD_SCAN_H_
