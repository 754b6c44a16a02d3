#ifndef SQLCLASS_SERVICE_SESSION_MANAGER_H_
#define SQLCLASS_SERVICE_SESSION_MANAGER_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "service/session.h"

namespace sqlclass {

/// Session lifecycle and admission control for the classification service:
/// a bounded FIFO admission queue, at most `worker_threads` active sessions
/// (a worker runs one at a time), and a shared memory budget that the sum
/// of active sessions' quotas may not exceed.
///
/// Sessions that cannot even be queued (queue full, quota larger than the
/// whole budget) are rejected at Submit. Queued sessions that are not
/// admitted before their deadline complete with a ResourceExhausted timeout
/// — a graceful Status, never a crash. Admission is strict FIFO: the queue
/// head blocks later arrivals even if those would fit, so no session
/// starves.
///
/// Thread-safe. Lock order (see DESIGN.md "Service layer"): this manager's
/// mutex is self-contained — no method calls out while holding it.
class SessionManager {
 public:
  explicit SessionManager(const ServiceConfig& config);

  /// A session handed to a worker: admission succeeded, slot and memory are
  /// committed until Complete(id).
  struct Claim {
    SessionId id = 0;
    SessionSpec spec;
    size_t quota_bytes = 0;
    double queue_wait_ms = 0;
  };

  /// Enqueues a session, or rejects it outright (queue closed or full,
  /// quota > total budget).
  [[nodiscard]] StatusOr<SessionId> Submit(SessionSpec spec) EXCLUDES(mu_);

  /// Blocks until the queue head is admissible (claims it), or the manager
  /// is stopped (returns nullopt). Expired queue entries encountered while
  /// waiting are completed with a timeout error.
  std::optional<Claim> ClaimNext() EXCLUDES(mu_);

  /// Marks a claimed session finished, releasing its slot and memory.
  void Complete(SessionId id, SessionResult result) EXCLUDES(mu_);

  /// Blocks until the session has a result (run finished, timed out, or
  /// rejected id -> InvalidArgument result). Enforces the caller's queue
  /// deadline even when no worker is polling. The result is handed over
  /// once: the session is then forgotten, and a later Wait on its id is an
  /// unknown-session InvalidArgument.
  SessionResult Wait(SessionId id) EXCLUDES(mu_);

  /// Stops accepting new sessions; queued-but-unclaimed work keeps its
  /// admission semantics (it may still be claimed or time out).
  void CloseQueue() EXCLUDES(mu_);

  /// Blocks until nothing is queued or running.
  void Drain() EXCLUDES(mu_);

  /// Wakes every ClaimNext with nullopt. Call after Drain for a clean stop.
  void Stop() EXCLUDES(mu_);

  /// Admission-side slice of ServiceMetrics.
  void FillMetrics(ServiceMetrics* out) const EXCLUDES(mu_);

 private:
  enum class State { kQueued, kRunning, kDone };
  using Clock = std::chrono::steady_clock;

  struct Session {
    SessionSpec spec;
    size_t quota_bytes = 0;
    State state = State::kQueued;
    Clock::time_point enqueued_at;
    std::optional<Clock::time_point> deadline;
    std::optional<SessionResult> result;
  };

  /// True when the queue head may start now.
  bool HeadAdmissible() const REQUIRES(mu_);

  /// Completes `id` (must be queued) with a timeout error.
  void ExpireLocked(SessionId id) REQUIRES(mu_);

  /// Drops expired entries from the queue front/middle.
  void SweepExpiredLocked() REQUIRES(mu_);

  const ServiceConfig config_;

  mutable Mutex mu_;
  CondVar worker_cv_;   // queue / capacity changes
  CondVar waiter_cv_;   // results ready
  std::map<SessionId, Session> sessions_ GUARDED_BY(mu_);
  std::deque<SessionId> queue_ GUARDED_BY(mu_);
  SessionId next_id_ GUARDED_BY(mu_) = 1;
  int active_ GUARDED_BY(mu_) = 0;
  size_t memory_committed_ GUARDED_BY(mu_) = 0;
  bool closed_ GUARDED_BY(mu_) = false;
  bool stopped_ GUARDED_BY(mu_) = false;

  // Metrics.
  uint64_t submitted_ GUARDED_BY(mu_) = 0;
  uint64_t admitted_ GUARDED_BY(mu_) = 0;
  uint64_t rejected_ GUARDED_BY(mu_) = 0;
  uint64_t timed_out_ GUARDED_BY(mu_) = 0;
  uint64_t completed_ok_ GUARDED_BY(mu_) = 0;
  uint64_t failed_ GUARDED_BY(mu_) = 0;
  double queue_wait_ms_max_ GUARDED_BY(mu_) = 0;
  uint64_t peak_active_ GUARDED_BY(mu_) = 0;
};

}  // namespace sqlclass

#endif  // SQLCLASS_SERVICE_SESSION_MANAGER_H_
