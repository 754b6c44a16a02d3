#ifndef SQLCLASS_MIDDLEWARE_CONFIG_H_
#define SQLCLASS_MIDDLEWARE_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/retry.h"
#include "mining/split.h"

namespace sqlclass {

/// Knobs of the approximate counting path (scheduler Rule 7, DESIGN.md
/// "Approximate counting"): split-selection CC requests are served from the
/// table's persistent scramble (SqlServer::BuildSampleTable) and escalated
/// to the exact path only when the impurity gap between the two best
/// candidate splits does not clear its sampling confidence interval.
struct ApproxConfig {
  /// Master switch. Off (the default) leaves every path byte-identical to
  /// the exact middleware. Overridable via SQLCLASS_APPROX=0/1.
  bool enable = false;

  /// Confidence level of the split-selection gate: a sampled answer is
  /// accepted when P(best split really is best) >= confidence under the
  /// delta-method normal approximation. Overridable via
  /// SQLCLASS_APPROX_CONFIDENCE.
  double confidence = 0.95;

  /// Dial from "trust the sample" (0.0) to "exact only" (1.0): the gate's
  /// acceptance threshold is divided by (1 - exactness), so larger values
  /// escalate more nodes; >= 1.0 disables Rule 7 entirely and the run is
  /// byte-identical to an exact one. Overridable via
  /// SQLCLASS_APPROX_EXACTNESS.
  double exactness = 0.0;

  /// Nodes with fewer (estimated) rows than this never route to the
  /// scramble: their exact scan is already cheap and their sample slice is
  /// too thin to gate on.
  uint64_t min_node_rows = 5000;

  /// Impurity criterion the gate mirrors. Must match the client's split
  /// criterion for the gate's "best split" to be the client's best split;
  /// kGainRatio is gated as kEntropy (the gate compares impurity gaps, not
  /// ratios).
  SplitCriterion gate_criterion = SplitCriterion::kEntropy;
};

/// How the shard coordinator reaches its per-shard scan executors
/// (DESIGN.md "Distributed scan-out").
enum class ShardTransportKind {
  /// Scan on the coordinator's own pool threads (the default).
  kInProcess = 0,
  /// Pre-forked `sqlclass_shard_worker` processes reached over pipes with
  /// Checksum32-framed messages, per-shard RPC deadlines, and
  /// SIGKILL-plus-respawn recovery.
  kSubprocess = 1,
};

/// Knobs of the sharded scan-out path (scheduler Rule 8, DESIGN.md "Sharded
/// scan-out"): server-located CC batches are fanned out to per-shard
/// workers over the table's partitioned heap shards
/// (SqlServer::BuildShardSet) and the partial CC tables merged in fixed
/// shard order, so trees are byte-identical to the unsharded path at every
/// shard count.
struct ShardingConfig {
  /// Master switch. Off (the default) leaves every path byte-identical to
  /// the unsharded middleware. Overridable via SQLCLASS_SHARDS=0/1.
  bool enable = false;

  /// Nodes with fewer (estimated) rows than this never route to the shard
  /// set: the fan-out's per-shard startup outweighs the scan. Overridable
  /// via SQLCLASS_SHARDS_MIN_ROWS.
  uint64_t min_node_rows = 4096;

  /// How shard scans execute. Transport choice never changes trees or
  /// simulated cost — only the failure domain (and wall time). Overridable
  /// via SQLCLASS_SHARDS_TRANSPORT=inproc|subprocess.
  ShardTransportKind transport = ShardTransportKind::kInProcess;

  /// Per-shard RPC deadline for the subprocess transport: a worker that
  /// has not replied within this budget is SIGKILLed and respawned, and
  /// the shard task retried under `rpc_retry`. Overridable via
  /// SQLCLASS_SHARDS_RPC_DEADLINE_MS.
  int rpc_deadline_ms = 10000;

  /// Backoff schedule for failed shard RPCs (timeouts, torn or corrupt
  /// frames, dead workers). A worker-*reported* scan failure is never
  /// retried here — that is a deterministic shard fault, handled by the
  /// coordinator's replica / primary-rescan ladder. `max_attempts` must be
  /// at least 1 (Validate).
  RetryPolicy rpc_retry;

  /// Path of the `sqlclass_shard_worker` binary. SQLCLASS_SHARD_WORKER_BIN
  /// fills an empty path; still empty, it resolves to well-known locations
  /// next to the running binary (its directory, then ../tools).
  std::string worker_binary;
};

/// Knobs of one counting pass (§4.1.1), shared by MiddlewareConfig and
/// ServiceConfig and consumed by BatchExecutor (middleware/batch_executor.h),
/// so the middleware and the service count with the same paths, the same
/// fallback ladder and the same validation (Validate in batch_executor.h).
struct CountingConfig {
  /// §4.3.1: push the disjunction of node predicates into the server-side
  /// cursor so only rows some node matches are transmitted. Off only for
  /// ablation A2, where every row is delivered.
  bool enable_filter_pushdown = true;

  /// Serve conjunctive node predicates from the table's bitmap index by
  /// AND + popcount (scheduler Rule 0) whenever the server has one
  /// (SqlServer::BuildBitmapIndex). Produces byte-identical CC tables at
  /// per-bitmap-word cost instead of per-row cursor cost; a bitmap read
  /// fault falls back transparently to the row-scan path. Overridable via
  /// SQLCLASS_BITMAP_INDEX=0/1.
  bool use_bitmap_index = true;

  /// Worker threads for the morsel-parallel row scan every row-scan batch
  /// runs on, staged and memory-bounded ones included; for the bitmap
  /// pass, which counts a batch's nodes in parallel; and for the shard
  /// fan-out, which also sizes the subprocess transport's worker-process
  /// pool. 0 = resolve to hardware concurrency (overridable via
  /// SQLCLASS_PARALLEL_SCAN_THREADS, which fills only a 0); 1 = one worker
  /// (the shards are scanned serially in shard order). CC tables,
  /// evictions, staged stores and logical costs are thread-count-invariant;
  /// only wall time changes.
  int parallel_scan_threads = 0;

  /// Backoff schedule for transient scan faults against the *server* source
  /// (I/O errors, checksum failures). Staged-source failures are never
  /// retried in place — the store is invalidated and the batch degrades to
  /// the server, which is where this policy then applies.
  RetryPolicy scan_retry;

  /// Sharded scan-out over the table's shard set (scheduler Rule 8).
  ShardingConfig sharding;
};

/// Ordering policy for eligible nodes within a scheduled batch. The paper's
/// Rule 3 is smallest-estimated-CC-first; the alternatives exist for the
/// scheduling ablation (DESIGN.md A1).
enum class OrderPolicy {
  kSmallestCcFirst,  // Rule 3 (default)
  kFifo,
  kLargestCcFirst,
};

/// Knobs of the scalable classification middleware (§4). Defaults match the
/// paper's default experimental configuration: hybrid file staging at a 50%
/// threshold with memory staging enabled.
struct MiddlewareConfig : CountingConfig {
  /// Total middleware memory: CC tables under construction plus staged
  /// in-memory data sets share this budget (§5.2.1's "memory (MB)" axis).
  size_t memory_budget_bytes = 64ull << 20;

  /// Middleware file-system space for staged files. 0 disables file staging
  /// entirely ("system environments that do not support a local disk").
  size_t file_budget_bytes = 1ull << 40;

  /// Master switches for the two staging tiers (§4.1.2: staging "can be
  /// completely disabled or restricted to only file or only memory").
  bool enable_file_staging = true;
  bool enable_memory_staging = true;

  /// Fraction of the memory budget that staging may never consume — kept
  /// free for CC tables so data staging cannot corner later frontiers into
  /// the (expensive) SQL fallback. When pressure still arises, the
  /// middleware evicts staged memory stores (largest first) and those
  /// subtrees fall back to server scans.
  double cc_memory_reserve = 0.15;

  /// File-splitting threshold (§4.3.2): while servicing a batch from a
  /// staged file, if the batch's rows are less than this fraction of the
  /// file, each batch node gets its own new (smaller) file.
  ///   1.0  => a new file per node (Fig 6 config 1)
  ///   0.0  => never split; one singleton file per lineage (Fig 6 config 2)
  ///   0.5  => hybrid (Fig 6 configs 3/4, the default)
  double file_split_threshold = 0.5;

  OrderPolicy order_policy = OrderPolicy::kSmallestCcFirst;

  /// Directory for staged middleware files. Must exist and be writable.
  std::string staging_dir = ".";

  /// Rows between CC-memory overflow checks during a counting scan.
  uint64_t overflow_check_interval = 1024;

  /// Approximate counting via the table's scramble (scheduler Rule 7).
  ApproxConfig approx;
};

/// Applies the SQLCLASS_* environment overrides of the knobs above to
/// `config`, from the one table in config.cc (documented in README.md
/// "Robustness knobs"). ClassificationMiddleware::Create and
/// ClassificationService::Create call it once, before validating; every
/// consumer reads the result, so changing the environment later changes
/// nothing. An unset, empty or out-of-domain value keeps the field.
void ApplyEnvOverrides(CountingConfig* config);
void ApplyEnvOverrides(MiddlewareConfig* config);  // also the approx knobs

}  // namespace sqlclass

#endif  // SQLCLASS_MIDDLEWARE_CONFIG_H_
