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
    uint64_t table_rows = 0;
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
    /// Row scan: nodes whose table was derived as their parent's minus
    /// their siblings' (CcRequest::parent_cc) instead of counted.
    int derived_nodes = 0;

    // Recovery activity, accumulated over every attempt; valid even when
    // Run fails.
    int scan_retries = 0;       // failed server passes retried in place
    int checksum_failures = 0;  // kDataLoss passes observed
    int staging_aborts = 0;     // staging given up or a store left unsealed
    bool sample_fallback = false;
    bool bitmap_fallback = false;
    bool shard_fallback = false;
    /// The staged source failed and was freed; the server re-served it.
    std::optional<DataLocation> invalidated;
    int shard_rescans = 0;
    int shard_replica_rescans = 0;
    int shard_rpc_timeouts = 0;
    int shard_worker_restarts = 0;
  };

  /// `server` must outlive the executor; so must `staging` (nullable),
  /// which batches that stage or read staged stores require. `config` is
  /// taken as resolved (ApplyEnvOverrides); a 0 row-scan worker count
  /// means hardware concurrency.
  BatchExecutor(SqlServer* server, const CountingConfig& config,
                StagingManager* staging);

  /// Workers a row scan of at least `parallel_scan_min_rows` rows gets.
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

/// Adds one batch's path and recovery counts to `out`, whose fields of
/// these names both ClassificationMiddleware::Stats and the service's
/// ScanMetrics carry. `served`: Run succeeded, so `report.path` is valid.
template <typename Counters>
void AddScanCounts(const BatchExecutor::Report& report, bool served,
                   Counters* out) {
  out->scan_retries += report.scan_retries;
  out->bitmap_fallbacks += report.bitmap_fallback;
  out->shard_fallbacks += report.shard_fallback;
  out->shard_rpc_timeouts += report.shard_rpc_timeouts;
  out->shard_worker_restarts += report.shard_worker_restarts;
  if (!served) return;
  out->bitmap_scans += report.path == BatchExecutor::Path::kBitmap;
  out->shard_scans += report.path == BatchExecutor::Path::kShards;
  out->shard_rescans += report.shard_rescans;
  out->shard_replica_rescans += report.shard_replica_rescans;
  out->derived_nodes += report.derived_nodes;
}

}  // namespace sqlclass

#endif  // SQLCLASS_MIDDLEWARE_BATCH_EXECUTOR_H_
