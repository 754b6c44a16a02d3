#include "common/thread_pool.h"

namespace sqlclass {

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads < 1) num_threads = 1;
  threads_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& thread : threads_) thread.join();
}

void ThreadPool::Submit(std::function<void()> fn) {
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(fn));
    ++unfinished_;
  }
  work_cv_.NotifyOne();
}

void ThreadPool::WaitIdle() {
  std::exception_ptr error;
  {
    MutexLock lock(mu_);
    idle_cv_.Wait(lock, [this]() REQUIRES(mu_) { return unfinished_ == 0; });
    error = std::exchange(first_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::RunTasks(int tasks, const std::function<void(int)>& fn) {
  for (int i = 0; i < tasks; ++i) {
    Submit([&fn, i] { fn(i); });
  }
  WaitIdle();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      work_cv_.Wait(lock, [this]() REQUIRES(mu_) {
        return stop_ || !queue_.empty();
      });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    {
      MutexLock lock(mu_);
      if (error && first_error_ == nullptr) first_error_ = error;
      if (--unfinished_ == 0) idle_cv_.NotifyAll();
    }
  }
}

int ThreadPool::HardwareConcurrency() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

}  // namespace sqlclass
