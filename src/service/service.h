#ifndef SQLCLASS_SERVICE_SERVICE_H_
#define SQLCLASS_SERVICE_SERVICE_H_

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "server/server.h"
#include "service/session.h"
#include "service/session_manager.h"
#include "service/shared_scan_batcher.h"

namespace sqlclass {

/// The concurrent classification service: one embedded SqlServer shared by
/// many classification sessions. Clients Submit a SessionSpec (grow a
/// decision tree or a Naive Bayes model over a registered table) and Wait
/// for the SessionResult; a fixed worker pool drives admitted sessions'
/// client loops, and the SharedScanBatcher merges CC requests from sessions
/// over the same table into shared data scans.
///
/// Model equivalence carries over from the single-session middleware: CC
/// tables are exact counts, so every session's classifier is byte-identical
/// to what a dedicated single-session run would produce, regardless of how
/// many sessions share its scans or in what order waves interleave.
///
/// Thread-safety: all public methods may be called from any thread.
/// Lock order (see DESIGN.md "Service layer"):
///   SessionManager::mu_  — self-contained, never calls out while held;
///   SharedScanBatcher::mu_ — released before the scan body runs;
///   server_mu_ — serializes every SqlServer access; innermost, never
///                held while acquiring either of the above.
class ClassificationService {
 public:
  /// `base_dir` must exist and be writable (the embedded server's heap
  /// files live there). Workers start immediately.
  [[nodiscard]] static StatusOr<std::unique_ptr<ClassificationService>> Create(
      const std::string& base_dir, ServiceConfig config = ServiceConfig());

  ~ClassificationService();

  ClassificationService(const ClassificationService&) = delete;
  ClassificationService& operator=(const ClassificationService&) = delete;

  /// Creates and bulk-loads a table, then registers it for classification.
  /// Loading is unmetered (the paper measures against a pre-existing
  /// database); cost counters are reset afterwards.
  [[nodiscard]] Status CreateAndLoadTable(const std::string& name, const Schema& schema,
                            const std::vector<Row>& rows);

  /// Registers a table that already exists on the embedded server.
  [[nodiscard]] Status RegisterTable(const std::string& name);

  /// Enqueues a session for admission. Fails fast (ResourceExhausted) when
  /// the admission queue is full or the quota exceeds the service budget.
  [[nodiscard]] StatusOr<SessionId> Submit(SessionSpec spec);

  /// Blocks until the session completes (or times out in the queue). Each
  /// id can be waited for once; the service keeps no result after that.
  SessionResult Wait(SessionId id);

  /// Submit + Wait.
  SessionResult Run(SessionSpec spec);

  /// Stops admission, drains queued and running sessions, and joins the
  /// workers. Idempotent; the destructor calls it.
  void Shutdown();

  /// Point-in-time service health; safe while sessions run.
  ServiceMetrics Metrics() const;

  /// The configuration as Create resolved it, environment overrides
  /// applied (ApplyEnvOverrides).
  const ServiceConfig& config() const { return config_; }

  /// The embedded server and the mutex serializing access to it — for
  /// tests and benchmarks that inspect global counters or prepare data
  /// out-of-band. Hold the mutex across any server call.
  SqlServer* server() { return server_.get(); }
  Mutex* server_mutex() RETURN_CAPABILITY(server_mu_) { return &server_mu_; }

 private:
  ClassificationService(const std::string& base_dir, ServiceConfig config);

  void WorkerLoop();
  SessionResult RunSession(const SessionManager::Claim& claim);

  const ServiceConfig config_;
  std::unique_ptr<SqlServer> server_ PT_GUARDED_BY(server_mu_);
  Mutex server_mu_;
  SharedScanBatcher batcher_;
  SessionManager manager_;

  Mutex shutdown_mu_;
  bool shutdown_ GUARDED_BY(shutdown_mu_) = false;

  std::vector<std::thread> workers_;  // last members: start after state
};

}  // namespace sqlclass

#endif  // SQLCLASS_SERVICE_SERVICE_H_
