#ifndef SQLCLASS_MIDDLEWARE_BATCH_EXECUTOR_H_
#define SQLCLASS_MIDDLEWARE_BATCH_EXECUTOR_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "middleware/config.h"
#include "middleware/estimator.h"
#include "middleware/parallel_scan.h"
#include "middleware/scheduler.h"
#include "middleware/shard_scan.h"
#include "middleware/staging.h"
#include "mining/cc_provider.h"
#include "mining/cc_table.h"
#include "server/server.h"
#include "storage/bitmap/bitmap_index.h"
#include "storage/sample/sample_file.h"

namespace sqlclass {

/// Rejects counting knobs no path can honour (a negative thread count, a
/// shard RPC retry policy with no attempt).
/// ClassificationMiddleware::Create and ClassificationService::Create both
/// call it, so the two entry points accept exactly the same configs.
[[nodiscard]] Status Validate(const CountingConfig& config);

/// Binds `request`'s predicate (TRUE when null) against `schema` and checks
/// its attribute columns; a root request (no parent) counts all
/// `table_rows`. Both request queues — the middleware's and the service's —
/// admit requests through it.
[[nodiscard]] Status PrepareRequest(const Schema& schema, uint64_t table_rows,
                                    CcRequest* request);

/// The counters BatchExecutor::Run reports per batch, listed once; the
/// middleware's Stats and BatchTrace and the service's ScanMetrics fold them.
#define SQLCLASS_SCAN_COUNTS(X)                                             \
  X(scan_retries)          /* failed server passes retried in place */      \
  X(checksum_failures)     /* kDataLoss passes observed */                  \
  X(staging_aborts)        /* staging given up or a store left unsealed */  \
  X(sample_fallbacks)      /* sample passes degraded to exact scans */      \
  X(bitmap_fallbacks)      /* bitmap passes degraded to row scans */        \
  X(shard_fallbacks)       /* shard passes degraded to row scans */         \
  X(shard_rescans)         /* dead shards recovered from the primary */     \
  X(shard_replica_rescans) /* dead shards recovered from replicas */        \
  X(shard_rpc_timeouts)    /* RPC deadline expiries (subprocess) */         \
  X(shard_worker_restarts) /* workers respawned after a kill or crash */    \
  X(derived_nodes)         /* exact CCs derived as parent - siblings */     \
  X(bitmap_scans)          /* batches served from the bitmap index */       \
  X(shard_scans)           /* batches served by the sharded fan-out */

struct ScanCounts {
#define SQLCLASS_SCAN_COUNT_DECLARE(name) uint64_t name = 0;
  SQLCLASS_SCAN_COUNTS(SQLCLASS_SCAN_COUNT_DECLARE)
#undef SQLCLASS_SCAN_COUNT_DECLARE

  ScanCounts& operator+=(const ScanCounts& other) {
#define SQLCLASS_SCAN_COUNT_ADD(name) name += other.name;
    SQLCLASS_SCAN_COUNTS(SQLCLASS_SCAN_COUNT_ADD)
#undef SQLCLASS_SCAN_COUNT_ADD
    return *this;
  }
};

/// The execution module of §4.1.1: counts one batch of CC requests in a
/// single pass over one source, for both ClassificationMiddleware (one
/// client's frontier) and SharedScanBatcher (a cross-session batch).
///
/// A pass runs on one of four paths — the table's scramble (Rule 7), its
/// bitmap index (Rule 0), its shard set (Rule 8), or a row scan of the
/// batch's source that also feeds staging (ParallelCountScan, on one
/// worker or many) — and a failed pass walks one recovery ladder
/// (DESIGN.md "Fault tolerance & degraded modes"). Each attempt rebuilds
/// every CC table from scratch, so the pass that succeeds alone determines
/// the delivered counts: a recovered batch is byte-identical to a
/// fault-free one. Charges of failed passes stay on the server's cost
/// counters.
///
/// Routing policy stays with the callers: they decide which of the sample,
/// bitmap and shard paths a batch may try; the executor decides only how
/// many workers a row scan gets. Not thread-safe — the middleware drives
/// it from its single thread, the service under its server mutex.
class BatchExecutor {
 public:
  /// The pass that served a batch.
  enum class Path { kSample, kBitmap, kShards, kRowScan };

  struct Batch {
    std::string table;
    const Schema* schema = nullptr;
    /// The nodes, as requests PrepareRequest admitted (predicates bound).
    std::vector<const CcRequest*> requests;
    /// The route: the source (Rule 2), the artifact paths allowed — tried
    /// as sample, bitmap, shards before the row scan — and the nodes whose
    /// rows the row scan also stages (Rules 4-6; `idx` is a position
    /// in `requests`, and staging needs a StagingManager). `admitted` and
    /// `file_split` are the scheduler's, unused here.
    BatchPlan plan;
    /// Memory shared by staged data and this batch's CC tables. When the
    /// CC tables outgrow what staging leaves of it, the largest is evicted
    /// (§4.1.1). The default is unbounded: no overflow checks at all.
    size_t memory_budget = std::numeric_limits<size_t>::max();
    uint64_t overflow_check_interval = 1024;  // rows between checks
    uint64_t ordinal = 0;  // names the batch in log lines
  };

  struct Report {
    /// Per node, from the surviving pass; an evicted node's table is empty.
    std::vector<CcTable> ccs;
    Path path = Path::kRowScan;
    DataLocation source;        // where the surviving pass read from
    uint64_t rows_scanned = 0;  // rows that pass delivered (0 for bitmap)
    std::vector<uint64_t> sample_rows;  // kSample: matching sample rows
    /// Per node, eviction under memory pressure (§4.1.1). `observed_bytes`
    /// is its table's size at eviction.
    using Eviction = CcEviction;
    std::vector<Eviction> evicted;
    std::vector<size_t> observed_bytes;
    /// Per node, the sealed staging store holding its rows, if any.
    std::vector<std::optional<DataLocation>> staged;
    /// The staged source failed and was freed; the server re-served it.
    std::optional<DataLocation> invalidated;
    /// Valid when Run fails too: recovery is counted, and what only a
    /// served pass reports (its path, rescans, derived nodes) stays 0.
    ScanCounts counts;
  };

  /// `server` must outlive the executor; so must `staging` (nullable),
  /// which batches that stage or read staged stores require. `config` is
  /// taken as resolved (ApplyEnvOverrides); a 0 row-scan worker count
  /// means hardware concurrency.
  BatchExecutor(SqlServer* server, const CountingConfig& config,
                StagingManager* staging);

  /// Workers a row scan gets.
  int scan_threads() const { return scan_threads_; }

  /// Counts `batch` into `report`, walking the recovery ladder on failure.
  /// A non-OK result names the code, table and attempt count.
  [[nodiscard]] Status Run(const Batch& batch, Report* report);

  /// Drops the cached bitmap, sample and shard-map readers so the next
  /// pass reopens them (an artifact may have been rebuilt meanwhile). The
  /// readers belong to the table they were opened for: a caller that
  /// alternates tables drops them between batches.
  void DropArtifactReaders();

 private:
  struct State;  // one Run's ladder position and per-attempt scan state

  [[nodiscard]] Status RunPass(State* st);
  [[nodiscard]] Status SamplePass(State* st);
  [[nodiscard]] Status BitmapPass(State* st);
  [[nodiscard]] Status ShardPass(State* st);
  [[nodiscard]] Status ScanPass(State* st);
  [[nodiscard]] Status DeriveTables(State* st);
  [[nodiscard]] StatusOr<size_t> BeginStaging(State* st);
  void AbortStaging(State* st);
  void SealStaging(State* st);
  void CheckOverflow(State* st);
  /// Frees a staged store, logging (not failing) when that fails too.
  void FreeStore(const DataLocation& loc, const char* what);

  /// The pool of scan_threads_ workers every row-scan, bitmap and shard
  /// pass shares, built on first use; null when scan_threads_ is 1.
  ThreadPool* ScanPool();

  SqlServer* server_;
  const CountingConfig config_;
  const int scan_threads_;
  StagingManager* staging_;
  std::unique_ptr<ThreadPool> scan_pool_;
  /// Built from config_.sharding on first use and kept, so a subprocess
  /// worker pool survives between passes.
  std::unique_ptr<ShardTransport> shard_transport_;
  /// Readers over one table's artifacts, opened lazily and dropped after a
  /// failed pass so the next one reopens from scratch.
  std::unique_ptr<BitmapIndexReader> bitmap_reader_;
  std::unique_ptr<SampleFileReader> sample_reader_;
  std::unique_ptr<ShardCoordinator> shard_coordinator_;
};

}  // namespace sqlclass

#endif  // SQLCLASS_MIDDLEWARE_BATCH_EXECUTOR_H_
