#ifndef SQLCLASS_MIDDLEWARE_SUBPROCESS_SHARD_TRANSPORT_H_
#define SQLCLASS_MIDDLEWARE_SUBPROCESS_SHARD_TRANSPORT_H_

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/retry.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "middleware/shard_scan.h"

namespace sqlclass {

/// Resolves the worker binary path: `configured` when non-empty, else
/// well-known locations relative to the running binary (its own directory,
/// then ../tools — where the build tree puts it relative to tests and
/// benches). Empty when nothing executable is found.
std::string ResolveShardWorkerBinary(const std::string& configured);

/// ShardTransport over a pool of pre-forked `sqlclass_shard_worker`
/// processes (DESIGN.md "Distributed scan-out"). Each RunShard leases one
/// worker, ships the task as a Checksum32-framed message down its pipe,
/// and decodes the partial CC tables + IoCounters framed back. The RPC
/// path is hardened end to end:
///
///   - per-shard deadlines: a worker that has not replied in
///     `rpc_deadline_ms` is SIGKILLed, reaped, and respawned
///     (`rpc_timeouts` / `worker_restarts` meter both);
///   - EPIPE, short reads, torn or corrupt frames, and nonzero worker
///     exits all kill the lease's worker and retry the task under the
///     RetryPolicy's backoff;
///   - a worker-*reported* scan failure (kShardError frame) is
///     deterministic and is returned to the coordinator unretried — that
///     is what the replica / primary-rescan ladder is for.
///
/// Workers inherit the environment, so SQLCLASS_FAULTS and
/// SQLCLASS_CRASH_AT reach them — crash injection exercises these paths
/// for real. Thread-safe: RunShard may be called from every pool thread
/// concurrently; each leases a distinct worker.
class SubprocessShardTransport : public ShardTransport {
 public:
  struct Options {
    /// Worker binary; resolved via ResolveShardWorkerBinary.
    std::string worker_binary;
    /// Pre-forked worker processes (>= 1). Concurrency beyond the pool
    /// size blocks in RunShard until a lease frees up.
    int pool_size = 1;
    /// Per-RPC deadline in milliseconds (send + receive each); <= 0
    /// disables the deadline (not recommended outside tests).
    int rpc_deadline_ms = 10000;
    /// Backoff between RPC retries of one task.
    RetryPolicy retry;
  };

  explicit SubprocessShardTransport(Options options);
  ~SubprocessShardTransport() override;

  SubprocessShardTransport(const SubprocessShardTransport&) = delete;
  SubprocessShardTransport& operator=(const SubprocessShardTransport&) =
      delete;

  /// Resolves the binary and pre-forks the pool. Idempotent; RunShard
  /// calls it lazily. Fails (kNotFound) when no worker binary resolves.
  [[nodiscard]] Status Start();

  /// Fails without a decoded reply — never OK — when every attempt the
  /// retry policy allows failed, or when it allows none.
  [[nodiscard]] StatusOr<WireShardResult> RunShard(
      const WireShardTask& task) override;

  uint64_t rpc_timeouts() const override {
    return rpc_timeouts_.load(std::memory_order_relaxed);
  }
  uint64_t worker_restarts() const override {
    return worker_restarts_.load(std::memory_order_relaxed);
  }

 private:
  /// One pooled worker process. Between Acquire and Release exactly one
  /// thread owns the struct (its index is off the free list), so fields
  /// are unsynchronized by construction.
  struct Worker {
    pid_t pid = -1;
    int to_fd = -1;    // coordinator -> worker (its stdin)
    int from_fd = -1;  // worker -> coordinator (its stdout)
    bool died_before = false;  // next spawn counts as a restart
  };

  [[nodiscard]] Status EnsureStarted() EXCLUDES(mu_);
  int AcquireWorker() EXCLUDES(mu_);
  void ReleaseWorker(int index) EXCLUDES(mu_);

  /// Forks + execs one worker. On success the worker is live with both
  /// pipe ends installed.
  [[nodiscard]] Status SpawnWorker(Worker* worker);

  /// Tears one worker down: closes its pipes, SIGKILLs it if still
  /// running, and reaps it. Appends how it died to `detail` (nullable).
  void DestroyWorker(Worker* worker, std::string* detail);

  /// One send/receive exchange with the leased worker. Any transport-layer
  /// failure has already destroyed the worker on return.
  [[nodiscard]] StatusOr<WireShardResult> Exchange(
      Worker* worker, const std::string& request, const WireShardTask& task);

  Options options_;
  std::string resolved_binary_;

  Mutex mu_;
  CondVar free_cv_;
  bool started_ GUARDED_BY(mu_) = false;
  std::vector<std::unique_ptr<Worker>> workers_ GUARDED_BY(mu_);
  std::vector<int> free_ GUARDED_BY(mu_);

  std::atomic<uint64_t> rpc_timeouts_{0};
  std::atomic<uint64_t> worker_restarts_{0};
};

}  // namespace sqlclass

#endif  // SQLCLASS_MIDDLEWARE_SUBPROCESS_SHARD_TRANSPORT_H_
