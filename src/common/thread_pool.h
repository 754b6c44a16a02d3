#ifndef SQLCLASS_COMMON_THREAD_POOL_H_
#define SQLCLASS_COMMON_THREAD_POOL_H_

#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace sqlclass {

/// Fixed-size worker pool driving the morsel-parallel counting scans. No
/// work stealing: tasks go through one shared FIFO queue and workers pull
/// from it, which is all the scan needs — a scan submits one task per
/// worker (its crew), which claims morsels off a single atomic counter and
/// crosses the scan's segment boundaries itself, so queue traffic is one
/// task per worker per scan.
///
/// Thread-safe: Submit/WaitIdle may be called from any thread, though the
/// counting paths only ever drive a pool from one coordinator thread.
///
/// Exceptions: a task that throws does not kill its worker or hang the
/// pool. The first exception of a batch is captured and rethrown from the
/// next WaitIdle/RunTasks on the coordinator thread; later exceptions in
/// the same batch are dropped. The scan bodies themselves are Status-based
/// and never throw — this is a backstop, not a reporting channel.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);

  /// Drains outstanding work, then stops and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(threads_.size()); }

  /// Enqueues one task.
  void Submit(std::function<void()> fn) EXCLUDES(mu_);

  /// Blocks until every task submitted so far has finished. Rethrows the
  /// first exception any of those tasks raised (clearing it, so the pool
  /// stays usable).
  void WaitIdle() EXCLUDES(mu_);

  /// Runs fn(0) .. fn(tasks - 1) across the pool and blocks until all
  /// return. The index is a logical slot id (per-slot state is touched by
  /// exactly one invocation), not an OS thread id. Propagates the first
  /// exception thrown by any fn invocation after the batch drains.
  void RunTasks(int tasks, const std::function<void(int)>& fn) EXCLUDES(mu_);

  static int HardwareConcurrency();

 private:
  void WorkerLoop() EXCLUDES(mu_);

  Mutex mu_;
  CondVar work_cv_;   // workers: queue non-empty or stopping
  CondVar idle_cv_;   // waiters: all work finished
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  uint64_t unfinished_ GUARDED_BY(mu_) = 0;  // queued + running tasks
  std::exception_ptr first_error_ GUARDED_BY(mu_);  // first task throw
  bool stop_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;  // last member: started after state
};

}  // namespace sqlclass

#endif  // SQLCLASS_COMMON_THREAD_POOL_H_
