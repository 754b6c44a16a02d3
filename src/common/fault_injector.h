#ifndef SQLCLASS_COMMON_FAULT_INJECTOR_H_
#define SQLCLASS_COMMON_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace sqlclass {

/// Canonical names of the fault points compiled into the system — every
/// fallible boundary between subsystems carries a SQLCLASS_FAULT_POINT with
/// one of these names. Tests iterate FaultInjector::KnownPoints() to drive
/// each boundary through its failure path.
namespace faults {
inline constexpr char kStorageOpen[] = "storage/fopen";
inline constexpr char kStorageRead[] = "storage/fread";
inline constexpr char kStorageWrite[] = "storage/fwrite";
inline constexpr char kStorageClose[] = "storage/fclose";
inline constexpr char kServerCursorAdvance[] = "server/cursor_advance";
inline constexpr char kStagingAppend[] = "staging/append";
inline constexpr char kBitmapOpen[] = "bitmap/open";
inline constexpr char kBitmapRead[] = "bitmap/read";
inline constexpr char kSampleOpen[] = "sample/open";
inline constexpr char kSampleRead[] = "sample/read";
inline constexpr char kShardOpen[] = "shard/open";
inline constexpr char kShardRead[] = "shard/read";
inline constexpr char kShardWorker[] = "shard/worker";
inline constexpr char kShardRpcSend[] = "shard/rpc_send";
inline constexpr char kShardRpcRecv[] = "shard/rpc_recv";
inline constexpr char kShardWorkerCrash[] = "shard/worker_crash";
}  // namespace faults

namespace internal_faults {
/// True iff any fault point is armed. Read on every SQLCLASS_FAULT_POINT
/// crossing; kept as a bare global atomic so the disabled case costs one
/// relaxed load and a predictable branch.
extern std::atomic<bool> g_enabled;
}  // namespace internal_faults

/// Deterministic, seeded fault-injection registry. Armed points make the
/// instrumented boundary return an error Status instead of doing its work;
/// trigger schedules (skip N hits, fire M times, fire with probability p)
/// make the schedule reproducible under a fixed seed, so tests can assert
/// the exact recovery counters a fault schedule must produce.
///
/// Configure through the API (tests) or the SQLCLASS_FAULTS environment
/// variable, parsed once at process start:
///
///   SQLCLASS_FAULTS="storage/fread=after:100,times:1;staging/append=prob:0.01"
///
/// Per-point keys: `after:N` (let the first N hits through), `times:M`
/// (fire at most M times), `prob:P` (fire eligible hits with probability P,
/// drawn from the seeded stream), `code:{io,dataloss,notfound,internal,
/// resource}` (Status code to inject; default io). The seed comes from
/// SQLCLASS_FAULTS_SEED (default 42) or SetSeed().
///
/// Thread-safe: all state sits behind one mutex; the fast path (nothing
/// armed anywhere) never takes it.
class FaultInjector {
 public:
  struct PointConfig {
    /// Hits to let through before the point becomes eligible to fire.
    uint64_t after = 0;
    /// Maximum number of fires; the point goes quiet afterwards.
    uint64_t times = std::numeric_limits<uint64_t>::max();
    /// Chance an eligible hit fires (1.0 = always).
    double probability = 1.0;
    /// Code of the injected Status.
    StatusCode code = StatusCode::kIoError;
    /// Optional extra detail appended to the injected message.
    std::string message;
  };

  /// Process-wide instance used by SQLCLASS_FAULT_POINT.
  static FaultInjector& Global();

  /// Every fault-point name compiled into the system (see namespace
  /// faults). Arming a name outside this list is allowed — the list exists
  /// so tests can sweep all boundaries.
  static const std::vector<std::string>& KnownPoints();

  /// Arms (or re-arms, resetting its hit/fire counts) one point.
  void Arm(const std::string& point, PointConfig config) EXCLUDES(mu_);

  /// Disarms one point, keeping others armed.
  void Disarm(const std::string& point) EXCLUDES(mu_);

  /// Disarms everything, zeroes counters, and restores the default seed.
  void Reset() EXCLUDES(mu_);

  /// Reseeds the probability stream (deterministic schedules need a fixed
  /// seed *and* a deterministic hit order).
  void SetSeed(uint64_t seed) EXCLUDES(mu_);

  /// Parses a SQLCLASS_FAULTS-style spec ("point=key:val,...;point=...")
  /// and arms each listed point.
  [[nodiscard]] Status LoadFromSpec(const std::string& spec) EXCLUDES(mu_);

  bool enabled() const {
    return internal_faults::g_enabled.load(std::memory_order_relaxed);
  }

  /// Slow path of SQLCLASS_FAULT_POINT: records the hit and decides whether
  /// this crossing fails. Only called when enabled().
  [[nodiscard]] Status OnHit(const char* point) EXCLUDES(mu_);

  /// Observability for tests: crossings of an *armed* point, and how many
  /// of them fired. Both 0 for unarmed or unknown points.
  uint64_t Hits(const std::string& point) const EXCLUDES(mu_);
  uint64_t Fires(const std::string& point) const EXCLUDES(mu_);

 private:
  FaultInjector();

  struct PointState {
    PointConfig config;
    uint64_t hits = 0;
    uint64_t fires = 0;
  };

  mutable Mutex mu_;
  std::map<std::string, PointState> points_ GUARDED_BY(mu_);
  std::mt19937_64 rng_ GUARDED_BY(mu_);
};

}  // namespace sqlclass

/// Marks one fallible boundary. When the named point is armed, returns the
/// injected error Status from the enclosing function; when the injector is
/// idle this is one relaxed atomic load and a never-taken branch.
/// Define SQLCLASS_NO_FAULT_POINTS to compile the hooks out entirely.
#ifdef SQLCLASS_NO_FAULT_POINTS
#define SQLCLASS_FAULT_POINT(point) \
  do {                              \
  } while (0)
#else
#define SQLCLASS_FAULT_POINT(point)                                     \
  do {                                                                  \
    if (::sqlclass::internal_faults::g_enabled.load(                    \
            std::memory_order_relaxed)) {                               \
      ::sqlclass::Status _injected_status =                             \
          ::sqlclass::FaultInjector::Global().OnHit(point);             \
      if (!_injected_status.ok()) return _injected_status;              \
    }                                                                   \
  } while (0)
#endif

#endif  // SQLCLASS_COMMON_FAULT_INJECTOR_H_
