#include "service/session_manager.h"

#include <algorithm>
#include <string>

namespace sqlclass {

namespace {

double MsSince(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t)
      .count();
}

}  // namespace

SessionManager::SessionManager(const ServiceConfig& config) : config_(config) {}

StatusOr<SessionId> SessionManager::Submit(SessionSpec spec) {
  MutexLock lock(mu_);
  ++submitted_;
  if (closed_) {
    ++rejected_;
    return Status::ResourceExhausted("service is shutting down");
  }
  const size_t quota = spec.memory_quota_bytes != 0
                           ? spec.memory_quota_bytes
                           : config_.default_session_quota_bytes;
  if (quota > config_.memory_budget_bytes) {
    ++rejected_;
    return Status::ResourceExhausted(
        "session quota " + std::to_string(quota) +
        " exceeds service memory budget " +
        std::to_string(config_.memory_budget_bytes));
  }
  if (queue_.size() >= config_.queue_capacity) {
    ++rejected_;
    return Status::ResourceExhausted(
        "admission queue full (" + std::to_string(queue_.size()) + ")");
  }

  const SessionId id = next_id_++;
  Session session;
  session.spec = std::move(spec);
  session.quota_bytes = quota;
  session.enqueued_at = Clock::now();
  if (config_.admission_timeout_ms > 0) {
    session.deadline = session.enqueued_at +
                       std::chrono::milliseconds(config_.admission_timeout_ms);
  }
  sessions_.emplace(id, std::move(session));
  queue_.push_back(id);
  worker_cv_.NotifyAll();
  return id;
}

bool SessionManager::HeadAdmissible() const {
  if (queue_.empty()) return false;
  const Session& head = sessions_.at(queue_.front());
  return active_ < config_.worker_threads &&
         memory_committed_ + head.quota_bytes <= config_.memory_budget_bytes;
}

void SessionManager::ExpireLocked(SessionId id) {
  Session& session = sessions_.at(id);
  session.state = State::kDone;
  SessionResult result;
  result.id = id;
  result.queue_wait_ms = MsSince(session.enqueued_at);
  result.status = Status::ResourceExhausted(
      "session " + std::to_string(id) + " timed out in the admission queue");
  session.result = std::move(result);
  ++timed_out_;
  waiter_cv_.NotifyAll();
}

void SessionManager::SweepExpiredLocked() {
  const auto now = Clock::now();
  for (auto it = queue_.begin(); it != queue_.end();) {
    const Session& session = sessions_.at(*it);
    if (session.deadline && now >= *session.deadline) {
      ExpireLocked(*it);
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
}

std::optional<SessionManager::Claim> SessionManager::ClaimNext() {
  MutexLock lock(mu_);
  while (true) {
    if (stopped_) return std::nullopt;
    SweepExpiredLocked();
    if (HeadAdmissible()) break;
    // Sleep until the earliest queue deadline (to expire it promptly) or a
    // state change.
    std::optional<Clock::time_point> earliest;
    for (SessionId id : queue_) {
      const Session& session = sessions_.at(id);
      if (session.deadline && (!earliest || *session.deadline < *earliest)) {
        earliest = session.deadline;
      }
    }
    if (earliest) {
      worker_cv_.WaitUntil(lock, *earliest);
    } else {
      worker_cv_.Wait(lock);
    }
  }

  const SessionId id = queue_.front();
  queue_.pop_front();
  Session& session = sessions_.at(id);
  session.state = State::kRunning;
  ++active_;
  memory_committed_ += session.quota_bytes;
  peak_active_ = std::max<uint64_t>(peak_active_, active_);
  ++admitted_;

  Claim claim;
  claim.id = id;
  claim.spec = session.spec;
  claim.quota_bytes = session.quota_bytes;
  claim.queue_wait_ms = MsSince(session.enqueued_at);
  queue_wait_ms_max_ = std::max(queue_wait_ms_max_, claim.queue_wait_ms);
  return claim;
}

void SessionManager::Complete(SessionId id, SessionResult result) {
  MutexLock lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end() || it->second.state != State::kRunning) return;
  Session& session = it->second;
  session.state = State::kDone;
  --active_;
  memory_committed_ -= session.quota_bytes;
  if (result.status.ok()) {
    ++completed_ok_;
  } else {
    ++failed_;
  }
  result.id = id;
  session.result = std::move(result);
  worker_cv_.NotifyAll();  // slot and memory freed
  waiter_cv_.NotifyAll();
}

SessionResult SessionManager::Wait(SessionId id) {
  MutexLock lock(mu_);
  while (true) {
    // Looked up afresh on every pass: a concurrent Wait on the same id may
    // have taken the result meanwhile.
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      SessionResult result;
      result.id = id;
      result.status =
          Status::InvalidArgument("unknown session " + std::to_string(id));
      return result;
    }
    Session& session = it->second;
    if (session.result.has_value()) {
      // Handed over once, so the manager only holds sessions in flight.
      SessionResult result = std::move(*session.result);
      sessions_.erase(it);
      return result;
    }
    // Enforce the queue deadline from here too, so timeouts fire even when
    // every worker is busy running other sessions.
    if (session.state == State::kQueued && session.deadline) {
      if (Clock::now() >= *session.deadline) {
        queue_.erase(std::remove(queue_.begin(), queue_.end(), id),
                     queue_.end());
        ExpireLocked(id);
      } else {
        waiter_cv_.WaitUntil(lock, *session.deadline);
      }
    } else {
      waiter_cv_.Wait(lock);
    }
  }
}

void SessionManager::CloseQueue() {
  MutexLock lock(mu_);
  closed_ = true;
}

void SessionManager::Drain() {
  MutexLock lock(mu_);
  waiter_cv_.Wait(lock, [&]() REQUIRES(mu_) {
    return queue_.empty() && active_ == 0;
  });
}

void SessionManager::Stop() {
  {
    MutexLock lock(mu_);
    stopped_ = true;
  }
  worker_cv_.NotifyAll();
}

void SessionManager::FillMetrics(ServiceMetrics* out) const {
  MutexLock lock(mu_);
  out->sessions_submitted = submitted_;
  out->sessions_admitted = admitted_;
  out->sessions_rejected = rejected_;
  out->sessions_timed_out = timed_out_;
  out->sessions_completed = completed_ok_;
  out->sessions_failed = failed_;
  out->max_queue_wait_ms = queue_wait_ms_max_;
  out->peak_active_sessions = peak_active_;
}

}  // namespace sqlclass
