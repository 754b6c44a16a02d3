#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datagen/load.h"
#include "datagen/random_tree.h"
#include "mining/inmemory_provider.h"
#include "mining/tree_client.h"
#include "service/service.h"
#include "test_util.h"

namespace sqlclass {
namespace {

using testing_util::TempDir;

/// Heavier concurrent workloads than service_test.cc: many sessions, mixed
/// tasks, waves of submissions, and observer threads hammering the metrics
/// surfaces while sessions run. Built to be run under
/// -DSQLCLASS_SANITIZE=thread (ctest -L concurrency).
class ServiceStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RandomTreeParams params;
    params.num_attributes = 6;
    params.num_leaves = 20;
    params.cases_per_leaf = 30;
    params.num_classes = 3;
    params.seed = 4242;
    auto dataset = RandomTreeDataset::Create(params);
    ASSERT_TRUE(dataset.ok());
    schema_ = (*dataset)->schema();
    ASSERT_TRUE((*dataset)->Generate(CollectInto(&rows_)).ok());
  }

  std::string ReferenceSignature() {
    InMemoryCcProvider provider(schema_, &rows_);
    DecisionTreeClient client(schema_, TreeClientConfig());
    auto tree = client.Grow(&provider, rows_.size());
    EXPECT_TRUE(tree.ok());
    return tree->Signature();
  }

  static SessionSpec TreeSpec(const std::string& table = "data") {
    SessionSpec spec;
    spec.table = table;
    spec.task = SessionSpec::Task::kDecisionTree;
    return spec;
  }

  TempDir dir_;
  Schema schema_;
  std::vector<Row> rows_;
};

TEST_F(ServiceStressTest, SixteenSessionsUnderObserverLoad) {
  const std::string reference = ReferenceSignature();
  ServiceConfig config;
  config.worker_threads = 8;
  config.queue_capacity = 64;
  auto service_or = ClassificationService::Create(dir_.path(), config);
  ASSERT_TRUE(service_or.ok());
  auto service = std::move(service_or).value();
  ASSERT_TRUE(service->CreateAndLoadTable("data", schema_, rows_).ok());

  // Observer threads read every concurrently-readable surface while the
  // sessions run: service metrics and the shared server's cost counters.
  // Under TSan this is the regression proving the observer-state atomics
  // actually lifted the old single-thread caveat.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> observations{0};
  std::vector<std::thread> observers;
  for (int i = 0; i < 3; ++i) {
    observers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        ServiceMetrics metrics = service->Metrics();
        (void)metrics.MergeRatio();
        CostCounters cost = service->server()->cost_counters();
        (void)cost;
        observations.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::yield();
      }
    });
  }

  constexpr int kSessions = 16;
  std::vector<SessionId> ids;
  for (int i = 0; i < kSessions; ++i) {
    auto id = service->Submit(TreeSpec());
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(id.value());
  }
  for (SessionId id : ids) {
    SessionResult result = service->Wait(id);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.tree->Signature(), reference);
  }
  stop.store(true);
  for (std::thread& observer : observers) observer.join();
  EXPECT_GT(observations.load(), 0u);

  ServiceMetrics metrics = service->Metrics();
  EXPECT_EQ(metrics.sessions_completed, static_cast<uint64_t>(kSessions));
  EXPECT_EQ(metrics.sessions_failed, 0u);
  EXPECT_GE(metrics.peak_active_sessions, 2u);
}

TEST_F(ServiceStressTest, WavesAcrossTwoTables) {
  ServiceConfig config;
  config.worker_threads = 4;
  auto service_or = ClassificationService::Create(dir_.path(), config);
  ASSERT_TRUE(service_or.ok());
  auto service = std::move(service_or).value();
  ASSERT_TRUE(service->CreateAndLoadTable("data", schema_, rows_).ok());
  std::vector<Row> other_rows = testing_util::RandomRows(schema_, 600, 99);
  ASSERT_TRUE(service->CreateAndLoadTable("other", schema_, other_rows).ok());

  const std::string reference = ReferenceSignature();
  for (int wave = 0; wave < 3; ++wave) {
    std::vector<SessionId> ids;
    for (int i = 0; i < 6; ++i) {
      auto id = service->Submit(TreeSpec(i % 2 == 0 ? "data" : "other"));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ids.push_back(id.value());
    }
    for (size_t i = 0; i < ids.size(); ++i) {
      SessionResult result = service->Wait(ids[i]);
      ASSERT_TRUE(result.status.ok()) << result.status.ToString();
      if (i % 2 == 0) {
        EXPECT_EQ(result.tree->Signature(), reference);
      }
    }
  }

  ServiceMetrics metrics = service->Metrics();
  EXPECT_EQ(metrics.sessions_completed, 18u);
  EXPECT_GT(metrics.scans_by_table.at("data"), 0u);
  EXPECT_GT(metrics.scans_by_table.at("other"), 0u);
}

TEST_F(ServiceStressTest, MixedTasksWithQueueChurn) {
  ServiceConfig config;
  config.worker_threads = 2;  // force the queue to do real work
  config.queue_capacity = 32;
  auto service_or = ClassificationService::Create(dir_.path(), config);
  ASSERT_TRUE(service_or.ok());
  auto service = std::move(service_or).value();
  ASSERT_TRUE(service->CreateAndLoadTable("data", schema_, rows_).ok());

  std::vector<SessionId> ids;
  for (int i = 0; i < 12; ++i) {
    SessionSpec spec = TreeSpec();
    if (i % 3 == 0) spec.task = SessionSpec::Task::kNaiveBayes;
    auto id = service->Submit(spec);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(id.value());
  }
  for (SessionId id : ids) {
    SessionResult result = service->Wait(id);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_TRUE(result.tree != nullptr || result.model != nullptr);
  }

  ServiceMetrics metrics = service->Metrics();
  EXPECT_EQ(metrics.sessions_completed, 12u);
  EXPECT_LE(metrics.peak_active_sessions, 2u);
  EXPECT_GE(metrics.max_queue_wait_ms, 0.0);
}

TEST_F(ServiceStressTest, RepeatedStartupAndShutdown) {
  for (int round = 0; round < 4; ++round) {
    TempDir dir;
    ServiceConfig config;
    config.worker_threads = 3;
    auto service_or = ClassificationService::Create(dir.path(), config);
    ASSERT_TRUE(service_or.ok());
    auto service = std::move(service_or).value();
    ASSERT_TRUE(service->CreateAndLoadTable("data", schema_, rows_).ok());
    std::vector<SessionId> ids;
    for (int i = 0; i < 3; ++i) {
      auto id = service->Submit(TreeSpec());
      ASSERT_TRUE(id.ok());
      ids.push_back(id.value());
    }
    for (SessionId id : ids) {
      ASSERT_TRUE(service->Wait(id).status.ok());
    }
    // Destructor performs the shutdown; alternate an explicit call.
    if (round % 2 == 0) service->Shutdown();
  }
}

TEST_F(ServiceStressTest, SubmittersRaceFromManyThreads) {
  ServiceConfig config;
  config.worker_threads = 4;
  config.queue_capacity = 64;
  auto service_or = ClassificationService::Create(dir_.path(), config);
  ASSERT_TRUE(service_or.ok());
  auto service = std::move(service_or).value();
  ASSERT_TRUE(service->CreateAndLoadTable("data", schema_, rows_).ok());

  const std::string reference = ReferenceSignature();
  std::atomic<int> failures{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < 3; ++i) {
        SessionResult result = service->Run(TreeSpec());
        if (!result.status.ok() ||
            result.tree->Signature() != reference) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& submitter : submitters) submitter.join();
  EXPECT_EQ(failures.load(), 0);

  ServiceMetrics metrics = service->Metrics();
  EXPECT_EQ(metrics.sessions_completed, 12u);
}

}  // namespace
}  // namespace sqlclass
