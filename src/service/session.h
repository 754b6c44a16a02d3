#ifndef SQLCLASS_SERVICE_SESSION_H_
#define SQLCLASS_SERVICE_SESSION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/status.h"
#include "middleware/batch_executor.h"
#include "middleware/config.h"
#include "mining/naive_bayes.h"
#include "mining/tree.h"
#include "mining/tree_client.h"
#include "server/cost_model.h"

namespace sqlclass {

/// Identifier of one classification session, assigned at submission.
using SessionId = uint64_t;

/// One client's request to grow a classifier over a registered table.
struct SessionSpec {
  enum class Task {
    kDecisionTree,  // DecisionTreeClient::Grow
    kNaiveBayes,    // NaiveBayesModel::TrainWith (one root CC request)
  };

  std::string table;
  Task task = Task::kDecisionTree;
  TreeClientConfig tree_config;

  /// Middleware-memory quota this session may use for CC tables under
  /// construction. 0 = ServiceConfig::default_session_quota_bytes. Admission
  /// control keeps the sum of active sessions' quotas within the service
  /// memory budget; a session whose in-flight CC tables exceed its own
  /// quota fails with ResourceExhausted (the scan itself survives).
  size_t memory_quota_bytes = 0;
};

/// Outcome of one session, returned by ClassificationService::Wait. Models
/// are shared_ptrs so results are cheap to copy out of the service.
struct SessionResult {
  SessionId id = 0;
  Status status = Status::OK();

  std::shared_ptr<const DecisionTree> tree;       // Task::kDecisionTree
  std::shared_ptr<const NaiveBayesModel> model;   // Task::kNaiveBayes

  /// This session's credited share of the work its scans performed (shared
  /// scans are split proportionally to each rider's request count, except
  /// CC updates, which are exact per session).
  CostCounters cost;
  double simulated_seconds = 0;  // cost model applied to `cost`

  double queue_wait_ms = 0;  // admission-queue wait
  double run_ms = 0;         // wall time from claim to completion
  uint64_t requests_issued = 0;
  uint64_t scans_participated = 0;  // shared scans that served this session
};

/// Knobs of the concurrent classification service. The counting knobs
/// (CountingConfig) apply to every shared scan exactly as they apply to a
/// middleware batch: both run through the same BatchExecutor. A shared scan
/// uses the bitmap index only when every rider's predicate is servable, and
/// the shard set only when the table has at least `sharding.min_node_rows`
/// rows; it never stages and never serves from the table's scramble — riders
/// with different accuracy contracts can only all be satisfied by exact
/// counts.
struct ServiceConfig : CountingConfig {
  /// Worker threads driving admitted sessions. Each runs one session's
  /// client loop at a time, so this also bounds the active sessions.
  int worker_threads = 4;

  /// Bounded admission queue; submissions beyond this are rejected
  /// immediately with ResourceExhausted.
  size_t queue_capacity = 64;

  /// A session still queued after this long completes with a
  /// ResourceExhausted timeout instead of running. 0 = wait forever.
  uint64_t admission_timeout_ms = 30'000;

  /// Total CC-memory budget shared by active sessions; admission keeps
  /// Sum(active quotas) <= budget.
  size_t memory_budget_bytes = 256ull << 20;

  /// Quota for sessions that do not set SessionSpec::memory_quota_bytes.
  size_t default_session_quota_bytes = 32ull << 20;

  /// Merge CC requests from different sessions over the same table into one
  /// shared scan (the paper's §4.1.1 batching lifted across sessions). Off:
  /// each scan serves only the requesting session (still batched per
  /// session).
  bool enable_scan_sharing = true;

  CostModel cost_model;
};

/// The shared-scan slice of ServiceMetrics, kept by SharedScanBatcher: its
/// own counters plus the executor's, summed over every scan.
struct ScanMetrics : ScanCounts {
  uint64_t scans_executed = 0;       // data scans the batcher ran
  uint64_t requests_fulfilled = 0;   // CC requests served by those scans
  uint64_t scan_session_slots = 0;   // Sum over scans of sessions served
  uint64_t rows_scanned = 0;
  uint64_t scan_failures = 0;  // scans that failed after exhausting retries
  std::map<std::string, uint64_t> scans_by_table;  // per-location scan counts
};

/// Point-in-time view of service health, safe to take while sessions run.
struct ServiceMetrics : ScanMetrics {
  // --- admission ---
  uint64_t sessions_submitted = 0;
  uint64_t sessions_admitted = 0;
  uint64_t sessions_rejected = 0;   // queue full or quota > budget
  uint64_t sessions_timed_out = 0;  // expired in the admission queue
  uint64_t sessions_completed = 0;  // ran and returned OK
  uint64_t sessions_failed = 0;     // ran and returned an error
  double max_queue_wait_ms = 0;
  uint64_t peak_active_sessions = 0;

  /// Average CC requests served per scan. With N sessions growing identical
  /// trees this approaches N; 1.0 means no cross-request batching happened.
  double MergeRatio() const {
    return scans_executed == 0 ? 0.0
                               : static_cast<double>(requests_fulfilled) /
                                     static_cast<double>(scans_executed);
  }

  /// Average sessions riding one scan (cross-session sharing only).
  double SessionsPerScan() const {
    return scans_executed == 0 ? 0.0
                               : static_cast<double>(scan_session_slots) /
                                     static_cast<double>(scans_executed);
  }
};

}  // namespace sqlclass

#endif  // SQLCLASS_SERVICE_SESSION_H_
