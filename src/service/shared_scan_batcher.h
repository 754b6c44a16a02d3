#ifndef SQLCLASS_SERVICE_SHARED_SCAN_BATCHER_H_
#define SQLCLASS_SERVICE_SHARED_SCAN_BATCHER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "middleware/batch_executor.h"
#include "mining/cc_provider.h"
#include "server/server.h"
#include "service/session.h"

namespace sqlclass {

/// Extends the paper's §4.1.1 batching *across sessions*: CC requests from
/// every session growing over the same table are collected into one scan
/// window and fulfilled in a single pass over the data. The 1999 middleware
/// merges one client's frontier into one scan; with many concurrent clients
/// the same wave structure appears across sessions — N clients at similar
/// depths would otherwise each scan the table once per level.
///
/// Scan-start rule (correctness never depends on it — CC tables are exact
/// counts, so the classifiers are identical however requests get grouped
/// into scans):
///   * A session blocks in Fulfill while it has undelivered requests.
///   * A table's scan starts when no scan of it is in flight, requests are
///     pending, and every registered session of the table is blocked in
///     Fulfill. At that point nobody can add to the current wave without
///     first consuming results, so the scan carries every session's wave.
///     A session counts as blocked from when it waits in Fulfill until a
///     scan deposits its results or error, not until its thread wakes.
///   * No clock is involved. Liveness: every registered session runs on a
///     service worker that either returns to Fulfill or, once its client
///     returns (error paths included), unregisters. The session whose wait
///     completes the rule leads the scan itself; UnregisterSession drops
///     the session's pending requests and wakes the waiters to re-check.
///   * The first waiter to observe the condition becomes the scan leader;
///     `scan_in_progress` keeps the scan per table single-flight.
///
/// Each rider is credited a proportional share (by request count) of the
/// scan's metered cost; CC-update work is credited exactly. Per-session
/// quotas bound the CC memory one session's wave may hold: exceeding the
/// quota fails that session with ResourceExhausted without disturbing the
/// scan's other riders.
///
/// Lock order (see DESIGN.md "Service layer"): `mu_` (batcher state) and
/// `server_mu_` (serializes all SqlServer access) are never held together —
/// the leader drops `mu_` before scanning.
class SharedScanBatcher {
 public:
  /// `server` and `server_mu` outlive the batcher; every server access goes
  /// through `server_mu`.
  SharedScanBatcher(SqlServer* server, Mutex* server_mu,
                    const ServiceConfig& config);

  /// Caches schema and row count; the table must exist on the server and
  /// have a class column. Registering a table again refreshes only its row
  /// count: running scans and sessions read the cached schema without
  /// `mu_`, so a changed server schema is AlreadyExists.
  [[nodiscard]] Status RegisterTable(const std::string& table) EXCLUDES(mu_, *server_mu_);

  const Schema* GetSchema(const std::string& table) const EXCLUDES(mu_);

  /// Row count cached at RegisterTable; 0 for unknown tables.
  uint64_t TableRows(const std::string& table) const EXCLUDES(mu_);

  /// Declares an active session over `table` (must be registered). The
  /// session participates in scan gathering until UnregisterSession.
  [[nodiscard]] Status RegisterSession(SessionId id, const std::string& table,
                         size_t quota_bytes) EXCLUDES(mu_);

  /// Removes the session; leftover pending requests (aborted grow) are
  /// dropped so other sessions' scans never wait on a dead rider.
  void UnregisterSession(SessionId id) EXCLUDES(mu_);

  /// Queues one CC request (binds and validates the predicate).
  [[nodiscard]] Status Enqueue(SessionId id, CcRequest request) EXCLUDES(mu_);

  /// Blocks until some of the session's requests are fulfilled. Empty
  /// result only when the session has nothing outstanding. A session error
  /// (quota exceeded, scan failure) is sticky.
  [[nodiscard]] StatusOr<std::vector<CcResult>> Fulfill(SessionId id)
      EXCLUDES(mu_, *server_mu_);

  /// Queued-but-undelivered request count for one session.
  size_t Outstanding(SessionId id) const EXCLUDES(mu_);

  /// This session's credited cost share and scan participation so far.
  CostCounters CreditedCost(SessionId id) const EXCLUDES(mu_);
  uint64_t ScansParticipated(SessionId id) const EXCLUDES(mu_);

  /// Scan-side slice of ServiceMetrics.
  void FillMetrics(ServiceMetrics* out) const EXCLUDES(mu_);

 private:
  struct PendingReq {
    SessionId session = 0;
    CcRequest request;  // predicate bound against the table schema
  };

  struct TableState {
    Schema schema;
    uint64_t rows = 0;
    std::vector<PendingReq> pending;
    int sessions_registered = 0;
    int sessions_waiting = 0;
    bool scan_in_progress = false;
  };

  struct SessionState {
    std::string table;
    size_t quota_bytes = 0;
    size_t outstanding = 0;  // queued or fulfilled-but-undelivered
    bool waiting = false;  // blocked in Fulfill; the serving scan clears it
    std::vector<CcResult> outbox;
    Status error = Status::OK();
    CostCounters credited;
    uint64_t scans = 0;
  };

  /// Extracts this scan's requests, runs it with mu_ released (re-acquired
  /// before returning), deposits results/errors, and wakes waiters.
  void RunScan(const std::string& table, std::optional<SessionId> only_session)
      REQUIRES(mu_) EXCLUDES(*server_mu_);

  /// Counts `batch` through the executor (takes server_mu_; mu_ must not
  /// be held). Routing is the service's: the bitmap index only when every
  /// rider's predicate is servable, the shard set only when the table has
  /// enough rows, never staging, the scramble, or a CC memory bound.
  /// `delta` receives the cost of the whole run, failed passes included.
  [[nodiscard]] Status CountBatch(const std::string& table,
                                  const Schema& schema, uint64_t table_rows,
                                  const std::vector<PendingReq>& batch,
                                  uint64_t ordinal,
                                  BatchExecutor::Report* report,
                                  CostCounters* delta)
      EXCLUDES(mu_, *server_mu_);

  SqlServer* const server_ PT_GUARDED_BY(server_mu_);
  Mutex* const server_mu_;
  const ServiceConfig config_;

  /// One executor for every table: its scan pool and shard transport
  /// serve the whole service, and its artifact readers are dropped at the
  /// start of each shared scan.
  BatchExecutor executor_ GUARDED_BY(server_mu_);

  mutable Mutex mu_;
  CondVar cv_;
  std::map<std::string, TableState> tables_ GUARDED_BY(mu_);
  std::map<SessionId, SessionState> sessions_ GUARDED_BY(mu_);

  ScanMetrics metrics_ GUARDED_BY(mu_);
};

}  // namespace sqlclass

#endif  // SQLCLASS_SERVICE_SHARED_SCAN_BATCHER_H_
