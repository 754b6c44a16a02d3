#include "middleware/worker_loop.h"

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/fault_injector.h"
#include "common/status.h"
#include "middleware/shard_scan.h"
#include "shard/wire.h"

namespace sqlclass {

namespace {

/// Worker exit codes, distinct so a reaping coordinator (and a debugging
/// human) can tell an injected crash from a protocol failure.
constexpr int kExitCleanShutdown = 0;
constexpr int kExitGarbledInput = 41;
constexpr int kExitUnexpectedFrame = 42;
constexpr int kExitBadTask = 43;
constexpr int kExitReplyFailed = 45;
constexpr int kExitInjectedCrash = 40;

/// Parsed SQLCLASS_CRASH_AT spec: crash at `point` while serving the
/// (after+1)-th task. `crossings` counts arrivals at the named point.
struct CrashSpec {
  bool armed = false;
  std::string point;
  uint64_t after = 0;
  uint64_t crossings = 0;
};

CrashSpec ParseCrashSpec() {
  CrashSpec spec;
  const char* env = std::getenv("SQLCLASS_CRASH_AT");
  if (env == nullptr || env[0] == '\0') return spec;
  std::string raw(env);
  const size_t comma = raw.find(',');
  spec.point = raw.substr(0, comma);
  if (comma != std::string::npos) {
    const std::string rest = raw.substr(comma + 1);
    constexpr char kAfterKey[] = "after:";
    if (rest.rfind(kAfterKey, 0) == 0) {
      char* end = nullptr;
      const unsigned long long parsed =
          std::strtoull(rest.c_str() + sizeof(kAfterKey) - 1, &end, 10);
      if (end != nullptr && *end == '\0') spec.after = parsed;
    }
  }
  spec.armed = !spec.point.empty();
  return spec;
}

/// True when this crossing of `point` should crash the worker.
bool CrashNow(CrashSpec* spec, const char* point) {
  if (!spec->armed || spec->point != point) return false;
  return ++spec->crossings > spec->after;
}

/// The `shard/worker_crash` fault point in returnable form: arming it via
/// the inherited SQLCLASS_FAULTS spec makes the worker die mid-task.
Status WorkerCrashPoint() {
  SQLCLASS_FAULT_POINT(faults::kShardWorkerCrash);
  return Status::OK();
}

/// Writes the first half of a valid reply frame, then aborts the process —
/// the deterministic torn-frame producer behind
/// SQLCLASS_CRASH_AT=shard/rpc_send. The coordinator must reject the torn
/// remainder by short read, never decode it.
[[noreturn]] void SendTornFrameAndExit(int out_fd, const std::string& payload) {
  std::string frame;
  WireEncodeFrame(WireFrameType::kShardResult, payload, &frame);
  const size_t half = frame.size() / 2;
  size_t sent = 0;
  while (sent < half) {
    const ssize_t r = ::write(out_fd, frame.data() + sent, half - sent);
    if (r <= 0) break;
    sent += static_cast<size_t>(r);
  }
  std::_Exit(kExitInjectedCrash);
}

}  // namespace

int ShardWorkerServe(int in_fd, int out_fd) {
  CrashSpec crash = ParseCrashSpec();
  while (true) {
    WireFrame frame;
    bool clean_eof = false;
    Status received = WireRecv(in_fd, /*deadline_ms=*/0, &frame,
                               /*timed_out=*/nullptr, &clean_eof);
    if (!received.ok()) {
      return clean_eof ? kExitCleanShutdown : kExitGarbledInput;
    }
    if (frame.type != static_cast<uint32_t>(WireFrameType::kShardTask)) {
      return kExitUnexpectedFrame;
    }
    WireShardTask task;
    if (!DecodeShardTask(frame.payload, &task).ok()) {
      return kExitBadTask;
    }
    if (CrashNow(&crash, faults::kShardRpcRecv)) {
      std::_Exit(kExitInjectedCrash);  // died after reading, before scanning
    }
    if (!WorkerCrashPoint().ok()) {
      std::_Exit(kExitInjectedCrash);  // shard/worker_crash via SQLCLASS_FAULTS
    }

    // Arming `shard/read` through the inherited SQLCLASS_FAULTS spec makes
    // the scan fail cleanly: a kShardError reply, not a crash.
    const StatusOr<WireShardResult> result =
        CountShardTask(task, task.shard_heap_path);
    if (CrashNow(&crash, faults::kShardWorkerCrash)) {
      std::_Exit(kExitInjectedCrash);  // scanned, but no reply bytes at all
    }
    if (CrashNow(&crash, "shard/hang")) {
      // Far past any sane RPC deadline; the coordinator SIGKILLs us first.
      std::this_thread::sleep_for(std::chrono::seconds(1000));
    }

    Status sent;
    if (result.ok()) {
      std::string payload;
      EncodeShardResult(*result, &payload);
      if (CrashNow(&crash, faults::kShardRpcSend)) {
        SendTornFrameAndExit(out_fd, payload);
      }
      sent = WireSend(out_fd, WireFrameType::kShardResult, payload);
    } else {
      std::string payload;
      EncodeStatusPayload(result.status(), &payload);
      sent = WireSend(out_fd, WireFrameType::kShardError, payload);
    }
    if (!sent.ok()) return kExitReplyFailed;
  }
}

}  // namespace sqlclass
