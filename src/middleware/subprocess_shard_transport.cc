#include "middleware/subprocess_shard_transport.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "shard/wire.h"

namespace sqlclass {

namespace {

/// Candidate worker locations relative to the running binary: its own
/// directory, then the build tree's tools/ sibling (build/tests/<exe> and
/// build/bench/<exe> both sit one level under build/).
std::string SelfExeDir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return std::string();
  buf[n] = '\0';
  std::string path(buf);
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return std::string();
  return path.substr(0, slash);
}

bool IsExecutable(const std::string& path) {
  return !path.empty() && ::access(path.c_str(), X_OK) == 0;
}

}  // namespace

std::string ResolveShardWorkerBinary(const std::string& configured) {
  if (IsExecutable(configured)) return configured;
  if (!configured.empty()) return std::string();  // explicit path, missing
  const std::string dir = SelfExeDir();
  if (dir.empty()) return std::string();
  const std::string candidates[] = {
      dir + "/sqlclass_shard_worker",
      dir + "/../tools/sqlclass_shard_worker",
  };
  for (const std::string& candidate : candidates) {
    if (IsExecutable(candidate)) return candidate;
  }
  return std::string();
}

SubprocessShardTransport::SubprocessShardTransport(Options options)
    : options_(std::move(options)) {
  if (options_.pool_size < 1) options_.pool_size = 1;
}

SubprocessShardTransport::~SubprocessShardTransport() {
  MutexLock lock(mu_);
  for (std::unique_ptr<Worker>& worker : workers_) {
    DestroyWorker(worker.get(), nullptr);
  }
}

Status SubprocessShardTransport::Start() {
  MutexLock lock(mu_);
  if (started_) return Status::OK();
  // Dead workers must surface as EPIPE on our sends, not kill the
  // coordinator process.
  std::signal(SIGPIPE, SIG_IGN);
  resolved_binary_ = ResolveShardWorkerBinary(options_.worker_binary);
  if (resolved_binary_.empty()) {
    return Status::NotFound(
        "sqlclass_shard_worker binary not found (set "
        "ShardingConfig::worker_binary or SQLCLASS_SHARD_WORKER_BIN)");
  }
  workers_.reserve(options_.pool_size);
  free_.reserve(options_.pool_size);
  for (int i = 0; i < options_.pool_size; ++i) {
    auto worker = std::make_unique<Worker>();
    SQLCLASS_RETURN_IF_ERROR(SpawnWorker(worker.get()));
    workers_.push_back(std::move(worker));
    free_.push_back(i);
  }
  started_ = true;
  return Status::OK();
}

Status SubprocessShardTransport::EnsureStarted() {
  {
    MutexLock lock(mu_);
    if (started_) return Status::OK();
  }
  return Start();
}

int SubprocessShardTransport::AcquireWorker() {
  MutexLock lock(mu_);
  free_cv_.Wait(lock, [this]() REQUIRES(mu_) { return !free_.empty(); });
  const int index = free_.back();
  free_.pop_back();
  return index;
}

void SubprocessShardTransport::ReleaseWorker(int index) {
  MutexLock lock(mu_);
  free_.push_back(index);
  free_cv_.NotifyOne();
}

Status SubprocessShardTransport::SpawnWorker(Worker* worker) {
  int to_child[2] = {-1, -1};
  int from_child[2] = {-1, -1};
  // O_CLOEXEC so one worker's pipe ends never leak into a sibling fork —
  // a sibling holding a stray write end would defeat EOF detection. dup2
  // in the child clears the flag on the two fds the worker really uses.
  if (::pipe2(to_child, O_CLOEXEC) != 0) {
    return Status::IoError(std::string("pipe for shard worker failed: ") +
                           std::strerror(errno));
  }
  if (::pipe2(from_child, O_CLOEXEC) != 0) {
    ::close(to_child[0]);
    ::close(to_child[1]);
    return Status::IoError(std::string("pipe for shard worker failed: ") +
                           std::strerror(errno));
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    return Status::IoError(std::string("fork for shard worker failed: ") +
                           std::strerror(errno));
  }
  if (pid == 0) {
    // Child: wire the pipes to stdin/stdout and become the worker.
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    ::execl(resolved_binary_.c_str(), resolved_binary_.c_str(),
            static_cast<char*>(nullptr));
    std::_Exit(127);  // exec failed; the parent sees EOF + exit code 127
  }
  ::close(to_child[0]);
  ::close(from_child[1]);
  if (worker->died_before) {
    worker_restarts_.fetch_add(1, std::memory_order_relaxed);
  }
  worker->pid = pid;
  worker->to_fd = to_child[1];
  worker->from_fd = from_child[0];
  return Status::OK();
}

void SubprocessShardTransport::DestroyWorker(Worker* worker,
                                             std::string* detail) {
  if (worker->pid < 0) return;
  if (worker->to_fd >= 0) ::close(worker->to_fd);
  if (worker->from_fd >= 0) ::close(worker->from_fd);
  worker->to_fd = -1;
  worker->from_fd = -1;
  int wstatus = 0;
  pid_t reaped = ::waitpid(worker->pid, &wstatus, WNOHANG);
  if (reaped == 0) {
    // Still running — hung or mid-scan. SIGKILL is safe: workers are
    // stateless and every partial reply is rejected by frame checksum.
    ::kill(worker->pid, SIGKILL);
    reaped = ::waitpid(worker->pid, &wstatus, 0);
  }
  if (detail != nullptr && reaped == worker->pid) {
    if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) != 0) {
      *detail += " (worker exited with code " +
                 std::to_string(WEXITSTATUS(wstatus)) + ")";
    } else if (WIFSIGNALED(wstatus)) {
      *detail +=
          " (worker killed by signal " + std::to_string(WTERMSIG(wstatus)) +
          ")";
    }
  }
  worker->pid = -1;
  worker->died_before = true;
}

StatusOr<WireShardResult> SubprocessShardTransport::Exchange(
    Worker* worker, const std::string& request, const WireShardTask& task) {
  bool timed_out = false;
  Status sent = WireSend(worker->to_fd, WireFrameType::kShardTask, request,
                         options_.rpc_deadline_ms, &timed_out);
  if (!sent.ok()) {
    if (timed_out) rpc_timeouts_.fetch_add(1, std::memory_order_relaxed);
    std::string detail = sent.message();
    DestroyWorker(worker, &detail);
    return Status::IoError("shard rpc send failed: " + detail);
  }
  WireFrame reply;
  Status received = WireRecv(worker->from_fd, options_.rpc_deadline_ms,
                             &reply, &timed_out, nullptr);
  if (!received.ok()) {
    if (timed_out) rpc_timeouts_.fetch_add(1, std::memory_order_relaxed);
    std::string detail = received.message();
    DestroyWorker(worker, &detail);
    if (received.code() == StatusCode::kDataLoss) {
      return Status::DataLoss("shard rpc reply corrupt: " + detail);
    }
    return Status::IoError("shard rpc recv failed: " + detail);
  }
  if (reply.type == static_cast<uint32_t>(WireFrameType::kShardError)) {
    Status shard_error = Status::OK();
    Status decoded = DecodeStatusPayload(reply.payload, &shard_error);
    if (!decoded.ok() || shard_error.ok()) {
      std::string detail = decoded.ok() ? "OK in error frame"
                                        : std::string(decoded.message());
      DestroyWorker(worker, &detail);
      return Status::DataLoss("garbled shard error frame: " + detail);
    }
    // Deterministic worker-side scan failure: the worker is healthy, the
    // shard is dead. No retry — the coordinator's recovery ladder owns it.
    return shard_error;
  }
  if (reply.type != static_cast<uint32_t>(WireFrameType::kShardResult)) {
    std::string detail =
        "unexpected frame type " + std::to_string(reply.type);
    DestroyWorker(worker, &detail);
    return Status::DataLoss("shard rpc protocol violation: " + detail);
  }
  WireShardResult result;
  Status decoded =
      DecodeShardResult(reply.payload, task.num_classes, task.cardinalities,
                        task.nodes.size(), &result);
  if (!decoded.ok()) {
    std::string detail = decoded.message();
    DestroyWorker(worker, &detail);
    return Status::DataLoss("shard rpc result undecodable: " + detail);
  }
  return result;
}

StatusOr<WireShardResult> SubprocessShardTransport::RunShard(
    const WireShardTask& task) {
  SQLCLASS_RETURN_IF_ERROR(EnsureStarted());
  std::string request;
  EncodeShardTask(task, &request);

  const int index = AcquireWorker();
  Worker* worker = nullptr;
  {
    MutexLock lock(mu_);
    worker = workers_[index].get();
  }
  StatusOr<WireShardResult> last =
      Status::InvalidArgument("shard rpc retry policy allows no attempt");
  for (int attempt = 1; attempt <= options_.retry.max_attempts; ++attempt) {
    if (attempt > 1) SleepForBackoff(options_.retry, attempt - 1);
    if (worker->pid < 0) {
      Status spawned = SpawnWorker(worker);
      if (!spawned.ok()) {
        last = std::move(spawned);
        continue;
      }
    }
    last = Exchange(worker, request, task);
    // OK, and any worker-*reported* scan failure, end the retry loop: both
    // are deterministic outcomes of a healthy exchange. Only transport
    // failures (timeout, torn frame, dead worker) retry.
    if (last.ok() || worker->pid >= 0) break;
  }
  ReleaseWorker(index);
  return last;
}

std::unique_ptr<ShardTransport> MakeShardTransport(
    const ShardingConfig& config, int pool_size) {
  if (config.transport == ShardTransportKind::kInProcess) {
    return std::make_unique<InProcessShardTransport>();
  }
  SubprocessShardTransport::Options options;
  options.worker_binary = config.worker_binary;
  options.pool_size = pool_size;
  options.rpc_deadline_ms = config.rpc_deadline_ms;
  options.retry = config.rpc_retry;
  return std::make_unique<SubprocessShardTransport>(options);
}

}  // namespace sqlclass
