#ifndef SQLCLASS_MIDDLEWARE_MIDDLEWARE_H_
#define SQLCLASS_MIDDLEWARE_MIDDLEWARE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "middleware/batch_executor.h"
#include "middleware/config.h"
#include "middleware/estimator.h"
#include "middleware/scheduler.h"
#include "middleware/staging.h"
#include "mining/cc_provider.h"
#include "server/server.h"

namespace sqlclass {

/// The counters of ClassificationMiddleware::Stats, its own and then the
/// executor's, listed once so declarations and copies cannot drift apart.
#define SQLCLASS_MIDDLEWARE_STATS(X)                                        \
  X(batches)                                                                \
  X(nodes_fulfilled)                                                        \
  X(server_scans)                                                           \
  X(file_scans)                                                             \
  X(memory_scans)                                                           \
  X(sql_fallbacks)                                                          \
  X(stores_freed)                                                           \
  X(stores_evicted)        /* memory stores evicted under CC pressure */    \
  X(file_splits)           /* batches that triggered file splitting */      \
  X(degraded_scans)        /* staged sources re-serviced from the server */ \
  X(stores_invalidated)    /* stores dropped after a read fault */          \
  X(sample_served_nodes)   /* nodes whose CC the gate accepted */           \
  X(sample_escalations)    /* gate rejections requeued exact */             \
  SQLCLASS_SCAN_COUNTS(X)

/// The scalable classification middleware (§4) — the paper's primary
/// contribution. Sits between a sufficient-statistics-driven client
/// (decision tree, Naive Bayes, ...) and the SQL backend and fulfills CC
/// requests by:
///
///  * batching many nodes' counting into a single scan of the data
///    (execution module, §4.1.1: BatchExecutor, shared with the service),
///    pushing the disjunction of their predicates into the server cursor
///    (§4.3.1);
///  * staging shrinking data sets from the server into middleware files
///    and middleware memory, splitting files as relevance drops
///    (§4.1.2, §4.3.2);
///  * choosing what to service from where with the priority scheduler
///    (Rules 1-6, §4.2);
///  * falling back to server-side SQL counting when a CC table outgrows
///    its memory estimate at runtime (§4.1.1).
///
/// Single-threaded; drive it from one thread like the client loop of §3.
class ClassificationMiddleware : public CcProvider {
 public:
  /// Observable behaviour of a run, for tests and benches. Fields are
  /// atomics so an observer thread may read them while a grow is in flight
  /// (e.g. through middleware/async_provider.h); the middleware itself
  /// mutates them from the single thread that drives it.
  struct Stats {
#define SQLCLASS_STATS_DECLARE(name) std::atomic<uint64_t> name{0};
    SQLCLASS_MIDDLEWARE_STATS(SQLCLASS_STATS_DECLARE)
#undef SQLCLASS_STATS_DECLARE

    Stats() = default;
    Stats(const Stats& other) { *this = other; }
    Stats& operator=(const Stats& other) {
#define SQLCLASS_STATS_COPY(name)                        \
  name.store(other.name.load(std::memory_order_relaxed), \
             std::memory_order_relaxed);
      SQLCLASS_MIDDLEWARE_STATS(SQLCLASS_STATS_COPY)
#undef SQLCLASS_STATS_COPY
      return *this;
    }
  };

  /// One entry per executed batch: what was scanned, from where, and what
  /// staging / fallback activity it triggered. Cheap to record; drives the
  /// scheduling-invariant tests and post-mortem analysis of runs.
  struct BatchTrace {
    uint64_t batch = 0;           // 1-based batch ordinal
    DataLocation source;
    int nodes = 0;                // admitted requests
    int staged_to_file = 0;
    int staged_to_memory = 0;
    int requeued = 0;
    int sql_fallbacks = 0;
    bool file_split = false;
    uint64_t rows_scanned = 0;    // rows delivered by the source
    bool degraded_to_server = false;  // staged source invalidated mid-batch
    bool served_from_bitmap = false;  // Rule 0: counts came from the index
    bool served_from_sample = false;  // Rule 7: counts came from the scramble
    int escalated = 0;                // gate rejections requeued as exact
    bool served_from_shards = false;  // Rule 8: counts merged from shards
    ScanCounts counts;                // the executor's report for the batch
  };

  /// One gate verdict per sample-served request, in delivery order — the
  /// raw material for per-level escalation-rate analysis (bench_paper's
  /// ext-approx cells map node ids back to tree depths).
  struct SampleDecision {
    int node_id = -1;
    bool accepted = false;
    double gap = 0.0;        // impurity gap between the two best splits
    double threshold = 0.0;  // confidence bound the gap had to clear
  };

  /// `server` and the named table must outlive the middleware. The table's
  /// schema must have a class column. `config.staging_dir` must exist.
  [[nodiscard]] static StatusOr<std::unique_ptr<ClassificationMiddleware>> Create(
      SqlServer* server, const std::string& table, MiddlewareConfig config);

  // CcProvider:
  [[nodiscard]] Status QueueRequest(CcRequest request) override;
  [[nodiscard]] StatusOr<std::vector<CcResult>> FulfillSome() override;
  /// Marks a delivered node as fully consumed; until then the staged store
  /// holding its data is pinned (its future children may still need it).
  /// This makes store reclamation independent of when, relative to the
  /// next batch, the client queues follow-ups — which is what allows the
  /// asynchronous driver of Fig. 3 (middleware/async_provider.h).
  void ReleaseNode(int node_id) override;
  size_t PendingRequests() const override { return pending_.size(); }

  const Stats& stats() const { return stats_; }
  const std::vector<BatchTrace>& trace() const { return trace_; }
  const std::vector<SampleDecision>& sample_decisions() const {
    return sample_decisions_;
  }
  const StagingManager& staging() const { return *staging_; }
  const Estimator& estimator() const { return estimator_; }
  /// The configuration as Create resolved it, environment overrides
  /// applied (ApplyEnvOverrides).
  const MiddlewareConfig& config() const { return config_; }

 private:
  struct Pending {
    CcRequest request;  // predicate bound against the table schema
    uint64_t seq = 0;
    size_t est_cc_bytes = 0;
    DataLocation location;
    /// Escalated by the Rule 7 gate (or riding a batch that was): the
    /// request must be answered by the exact path and never routes back to
    /// the scramble.
    bool no_sample = false;
  };

  ClassificationMiddleware(SqlServer* server, std::string table,
                           Schema schema, uint64_t table_rows,
                           MiddlewareConfig config);

  /// Frees staged stores no pending request can reach (§4.2.2's "flushing
  /// D out of memory"). Runs at the start of each batch, after the client
  /// has queued all follow-up requests.
  [[nodiscard]] Status GarbageCollectStores();

  /// When staged memory leaves too little room for even the smallest
  /// pending CC estimate, evicts memory stores (largest first) and points
  /// the affected subtrees back at the server. Keeps estimation errors
  /// from cascading into SQL fallbacks.
  [[nodiscard]] Status EvictMemoryStoresUnderPressure();

  /// Runs one planned batch: counts (and stages) it through the executor,
  /// applies the Rule 7 gate, requeues evicted nodes or counts the last one
  /// by the SQL fallback, and updates the estimator.
  [[nodiscard]] StatusOr<std::vector<CcResult>> ExecuteBatch(const BatchPlan& plan,
                                               std::vector<Pending> batch);

  /// Builds the node's CC table entirely at the server (§4.1.1 fallback).
  [[nodiscard]] StatusOr<CcTable> SqlFallback(const Pending& pending);

  /// Points the estimator's subtree and every pending request that read
  /// the (already freed) store `loc` back at the server.
  void RelocateToServer(const DataLocation& loc);

  /// Plans and executes one batch against the current queue. Factored out
  /// of FulfillSome so an escalation-only batch (every sampled node
  /// rejected by the gate) can be followed by another round in the same
  /// call — the CcProvider contract promises progress whenever requests
  /// are pending.
  [[nodiscard]] StatusOr<std::vector<CcResult>> PlanAndExecuteOne();

  SqlServer* server_;
  std::string table_;
  Schema schema_;
  int num_classes_;
  uint64_t table_rows_;
  MiddlewareConfig config_;
  Scheduler scheduler_;
  Estimator estimator_;
  std::unique_ptr<StagingManager> staging_;
  std::vector<Pending> pending_;
  std::set<int> unreleased_;  // delivered nodes the client still holds
  uint64_t next_seq_ = 0;
  Stats stats_;
  std::vector<BatchTrace> trace_;
  BatchExecutor executor_;  // caches artifact readers across batches
  std::vector<SampleDecision> sample_decisions_;
};

}  // namespace sqlclass

#endif  // SQLCLASS_MIDDLEWARE_MIDDLEWARE_H_
