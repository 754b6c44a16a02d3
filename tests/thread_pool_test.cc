#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

#include "middleware/batch_executor.h"
#include "middleware/config.h"
#include "test_env.h"

namespace sqlclass {
namespace {

TEST(ThreadPoolTest, ZeroTasksReturnsImmediately) {
  ThreadPool pool(4);
  int calls = 0;
  pool.RunTasks(0, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.WaitIdle();  // idle pool: WaitIdle must not block
}

TEST(ThreadPoolTest, MoreThreadsThanTasks) {
  ThreadPool pool(8);
  std::atomic<int> calls{0};
  std::atomic<int> mask{0};
  pool.RunTasks(2, [&](int i) {
    ++calls;
    mask.fetch_or(1 << i);
  });
  EXPECT_EQ(calls.load(), 2);
  EXPECT_EQ(mask.load(), 0b11);  // each slot id ran exactly once
}

TEST(ThreadPoolTest, SlotIdsCoverRangeExactlyOnce) {
  ThreadPool pool(3);
  constexpr int kTasks = 64;
  std::vector<std::atomic<int>> seen(kTasks);
  pool.RunTasks(kTasks, [&](int i) { ++seen[i]; });
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(seen[i].load(), 1) << "slot " << i;
  }
}

TEST(ThreadPoolTest, ReusableAcrossRunCalls) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.RunTasks(4, [&](int) { ++total; });
  }
  EXPECT_EQ(total.load(), 200);
}

TEST(ThreadPoolTest, WorkerExceptionPropagatesWithoutHanging) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.RunTasks(8,
                    [&](int i) {
                      if (i == 3) throw std::runtime_error("morsel 3 blew up");
                      ++completed;
                    }),
      std::runtime_error);
  // Every non-throwing task still ran: the batch drains, never hangs.
  EXPECT_EQ(completed.load(), 7);
}

TEST(ThreadPoolTest, PoolStaysUsableAfterException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.RunTasks(1, [](int) { throw std::logic_error("once"); }),
               std::logic_error);
  // The error was consumed by the rethrow; later batches start clean.
  std::atomic<int> calls{0};
  pool.RunTasks(4, [&](int) { ++calls; });
  EXPECT_EQ(calls.load(), 4);
}

TEST(ThreadPoolTest, OnlyFirstExceptionIsReported) {
  ThreadPool pool(4);
  std::atomic<int> throws{0};
  try {
    pool.RunTasks(16, [&](int) {
      ++throws;
      throw std::runtime_error("boom");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(throws.load(), 16);  // all tasks ran; one exception surfaced
  pool.WaitIdle();               // and nothing is left pending
}

TEST(ThreadPoolTest, SubmitWaitIdleCycle) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&] { ++done; });
  }
  pool.WaitIdle();
  EXPECT_EQ(done.load(), 10);
}

TEST(ThreadPoolTest, SingleThreadClampAndSize) {
  ThreadPool clamped(0);  // clamps to 1 worker
  EXPECT_EQ(clamped.size(), 1);
  std::atomic<int> calls{0};
  clamped.RunTasks(5, [&](int) { ++calls; });
  EXPECT_EQ(calls.load(), 5);
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3);
}

// The executor's thread count: a configured count, else the
// SQLCLASS_PARALLEL_SCAN_THREADS override, else hardware concurrency.
int ResolvedScanThreads(int configured) {
  CountingConfig config;
  config.parallel_scan_threads = configured;
  ApplyEnvOverrides(&config);
  return BatchExecutor(nullptr, config, nullptr).scan_threads();
}

TEST(ResolveParallelThreadsTest, PositiveConfigWins) {
  testing_util::EnvVarScope env("SQLCLASS_PARALLEL_SCAN_THREADS", "5");
  EXPECT_EQ(ResolvedScanThreads(7), 7);
}

TEST(ResolveParallelThreadsTest, EnvOverridesZeroDefault) {
  testing_util::EnvVarScope env("SQLCLASS_PARALLEL_SCAN_THREADS", "5");
  EXPECT_EQ(ResolvedScanThreads(0), 5);
  env.Set(nullptr);
  EXPECT_EQ(ResolvedScanThreads(0), ThreadPool::HardwareConcurrency());
}

}  // namespace
}  // namespace sqlclass
