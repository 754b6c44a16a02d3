#include "service/service.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "datagen/load.h"
#include "datagen/random_tree.h"
#include "mining/inmemory_provider.h"
#include "mining/tree_client.h"
#include "service/session_manager.h"
#include "test_util.h"

namespace sqlclass {
namespace {

using testing_util::TempDir;

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RandomTreeParams params;
    params.num_attributes = 8;
    params.num_leaves = 30;
    params.cases_per_leaf = 40;
    params.num_classes = 4;
    params.seed = 777;
    auto dataset = RandomTreeDataset::Create(params);
    ASSERT_TRUE(dataset.ok());
    schema_ = (*dataset)->schema();
    ASSERT_TRUE((*dataset)->Generate(CollectInto(&rows_)).ok());
  }

  std::unique_ptr<ClassificationService> MakeService(
      ServiceConfig config = ServiceConfig()) {
    auto service = ClassificationService::Create(dir_.path(), config);
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    EXPECT_TRUE((*service)->CreateAndLoadTable("data", schema_, rows_).ok());
    return std::move(service).value();
  }

  /// Single-session ground truth: the provider-independent classifier.
  std::string ReferenceSignature() {
    InMemoryCcProvider provider(schema_, &rows_);
    DecisionTreeClient client(schema_, TreeClientConfig());
    auto tree = client.Grow(&provider, rows_.size());
    EXPECT_TRUE(tree.ok());
    return tree->Signature();
  }

  static SessionSpec TreeSpec() {
    SessionSpec spec;
    spec.table = "data";
    spec.task = SessionSpec::Task::kDecisionTree;
    return spec;
  }

  TempDir dir_;
  Schema schema_;
  std::vector<Row> rows_;
};

TEST_F(ServiceTest, SingleSessionMatchesInMemoryReference) {
  auto service = MakeService();
  SessionResult result = service->Run(TreeSpec());
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  ASSERT_NE(result.tree, nullptr);
  EXPECT_EQ(result.tree->Signature(), ReferenceSignature());
  EXPECT_GT(result.requests_issued, 0u);
  EXPECT_GT(result.scans_participated, 0u);
  EXPECT_GT(result.cost.server_scans + result.cost.cursor_rows_transferred,
            0u);
}

TEST_F(ServiceTest, WaitHandsTheResultOverOnce) {
  auto service = MakeService();
  auto id = service->Submit(TreeSpec());
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  SessionResult result = service->Wait(id.value());
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  ASSERT_NE(result.tree, nullptr);
  // The service keeps nothing of a finished session, so memory does not
  // grow with sessions served: the caller holds the only reference.
  EXPECT_EQ(result.tree.use_count(), 1);

  SessionResult again = service->Wait(id.value());
  EXPECT_EQ(again.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(again.tree, nullptr);
}

TEST_F(ServiceTest, ConcurrentSessionsAreByteIdenticalToBaseline) {
  const std::string reference = ReferenceSignature();
  ServiceConfig config;
  config.worker_threads = 8;
  config.max_active_sessions = 8;
  auto service = MakeService(config);

  constexpr int kSessions = 8;
  std::vector<SessionId> ids;
  for (int i = 0; i < kSessions; ++i) {
    auto id = service->Submit(TreeSpec());
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(id.value());
  }
  for (SessionId id : ids) {
    SessionResult result = service->Wait(id);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    ASSERT_NE(result.tree, nullptr);
    EXPECT_EQ(result.tree->Signature(), reference) << "session " << id;
  }

  ServiceMetrics metrics = service->Metrics();
  EXPECT_EQ(metrics.sessions_completed, static_cast<uint64_t>(kSessions));
  EXPECT_EQ(metrics.sessions_failed, 0u);
}

TEST_F(ServiceTest, SharingMergesScansAcrossSessions) {
  ServiceConfig config;
  config.worker_threads = 4;
  config.max_active_sessions = 4;
  config.gather_window_ms = 20;  // generous window => reliable merging
  auto service = MakeService(config);

  std::vector<SessionId> ids;
  for (int i = 0; i < 4; ++i) {
    auto id = service->Submit(TreeSpec());
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  for (SessionId id : ids) {
    ASSERT_TRUE(service->Wait(id).status.ok());
  }

  ServiceMetrics metrics = service->Metrics();
  ASSERT_GT(metrics.scans_executed, 0u);
  // Four identical concurrent trees must share scans: strictly better than
  // one request per scan.
  EXPECT_GT(metrics.MergeRatio(), 1.0);
  EXPECT_GT(metrics.SessionsPerScan(), 1.0);
  EXPECT_EQ(metrics.scans_by_table.at("data"), metrics.scans_executed);
}

TEST_F(ServiceTest, SharingOffStillByteIdenticalButScansMore) {
  const std::string reference = ReferenceSignature();

  uint64_t scans_shared = 0;
  uint64_t scans_private = 0;
  for (bool sharing : {true, false}) {
    TempDir dir;
    ServiceConfig config;
    config.worker_threads = 4;
    config.max_active_sessions = 4;
    config.enable_scan_sharing = sharing;
    config.gather_window_ms = 20;
    auto service_or = ClassificationService::Create(dir.path(), config);
    ASSERT_TRUE(service_or.ok());
    auto service = std::move(service_or).value();
    ASSERT_TRUE(service->CreateAndLoadTable("data", schema_, rows_).ok());

    std::vector<SessionId> ids;
    for (int i = 0; i < 4; ++i) {
      auto id = service->Submit(TreeSpec());
      ASSERT_TRUE(id.ok());
      ids.push_back(id.value());
    }
    for (SessionId id : ids) {
      SessionResult result = service->Wait(id);
      ASSERT_TRUE(result.status.ok()) << result.status.ToString();
      EXPECT_EQ(result.tree->Signature(), reference);
    }
    ServiceMetrics metrics = service->Metrics();
    (sharing ? scans_shared : scans_private) = metrics.scans_executed;
    if (!sharing) {
      // Private scans serve exactly the requesting session.
      EXPECT_DOUBLE_EQ(metrics.SessionsPerScan(), 1.0);
    }
  }
  EXPECT_LT(scans_shared, scans_private);
}

TEST_F(ServiceTest, NaiveBayesSessionsTrainConcurrently) {
  ServiceConfig config;
  config.worker_threads = 4;
  config.max_active_sessions = 4;
  auto service = MakeService(config);

  SessionSpec nb;
  nb.table = "data";
  nb.task = SessionSpec::Task::kNaiveBayes;

  std::vector<SessionId> ids;
  for (int i = 0; i < 3; ++i) {
    auto id = service->Submit(nb);
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  // Mixed workload: a tree session rides the same table.
  auto tree_id = service->Submit(TreeSpec());
  ASSERT_TRUE(tree_id.ok());

  double accuracy = -1;
  for (SessionId id : ids) {
    SessionResult result = service->Wait(id);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    ASSERT_NE(result.model, nullptr);
    const double a = result.model->Accuracy(rows_);
    EXPECT_GT(a, 0.5);
    if (accuracy < 0) accuracy = a;
    EXPECT_DOUBLE_EQ(a, accuracy);  // identical models
  }
  SessionResult tree_result = service->Wait(tree_id.value());
  ASSERT_TRUE(tree_result.status.ok());
  EXPECT_EQ(tree_result.tree->Signature(), ReferenceSignature());
}

TEST_F(ServiceTest, TinyQuotaFailsGracefullyWithoutDisturbingOthers) {
  ServiceConfig config;
  config.worker_threads = 2;
  config.max_active_sessions = 2;
  auto service = MakeService(config);

  SessionSpec tiny = TreeSpec();
  tiny.memory_quota_bytes = 64;  // no CC table fits in 64 bytes

  auto tiny_id = service->Submit(tiny);
  auto ok_id = service->Submit(TreeSpec());
  ASSERT_TRUE(tiny_id.ok());
  ASSERT_TRUE(ok_id.ok());

  SessionResult tiny_result = service->Wait(tiny_id.value());
  EXPECT_EQ(tiny_result.status.code(), StatusCode::kResourceExhausted)
      << tiny_result.status.ToString();
  EXPECT_EQ(tiny_result.tree, nullptr);

  SessionResult ok_result = service->Wait(ok_id.value());
  ASSERT_TRUE(ok_result.status.ok()) << ok_result.status.ToString();
  EXPECT_EQ(ok_result.tree->Signature(), ReferenceSignature());

  ServiceMetrics metrics = service->Metrics();
  EXPECT_EQ(metrics.sessions_failed, 1u);
  EXPECT_EQ(metrics.sessions_completed, 1u);
}

TEST_F(ServiceTest, UnknownTableFailsTheSession) {
  auto service = MakeService();
  SessionSpec spec = TreeSpec();
  spec.table = "no_such_table";
  SessionResult result = service->Run(spec);
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(result.tree, nullptr);
}

TEST_F(ServiceTest, MultipleTablesKeepIndependentScanCounts) {
  auto service = MakeService();
  {
    std::vector<Row> other_rows = testing_util::RandomRows(schema_, 500, 42);
    ASSERT_TRUE(
        service->CreateAndLoadTable("other", schema_, other_rows).ok());
  }

  SessionSpec a = TreeSpec();
  SessionSpec b = TreeSpec();
  b.table = "other";
  auto id_a = service->Submit(a);
  auto id_b = service->Submit(b);
  ASSERT_TRUE(id_a.ok());
  ASSERT_TRUE(id_b.ok());
  ASSERT_TRUE(service->Wait(id_a.value()).status.ok());
  ASSERT_TRUE(service->Wait(id_b.value()).status.ok());

  ServiceMetrics metrics = service->Metrics();
  EXPECT_GT(metrics.scans_by_table.at("data"), 0u);
  EXPECT_GT(metrics.scans_by_table.at("other"), 0u);
  EXPECT_EQ(metrics.scans_by_table.at("data") +
                metrics.scans_by_table.at("other"),
            metrics.scans_executed);
}

TEST_F(ServiceTest, CcUpdateCostIsCreditedExactly) {
  ServiceConfig config;
  config.worker_threads = 4;
  config.max_active_sessions = 4;
  config.gather_window_ms = 20;
  auto service = MakeService(config);

  std::vector<SessionId> ids;
  for (int i = 0; i < 4; ++i) {
    auto id = service->Submit(TreeSpec());
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  uint64_t credited_updates = 0;
  for (SessionId id : ids) {
    SessionResult result = service->Wait(id);
    ASSERT_TRUE(result.status.ok());
    credited_updates += result.cost.mw_cc_updates;
  }
  MutexLock lock(*service->server_mutex());
  EXPECT_EQ(credited_updates,
            static_cast<uint64_t>(
                service->server()->cost_counters().mw_cc_updates));
}

TEST_F(ServiceTest, CreateRejectsNegativeThreadCounts) {
  // The counting knobs are validated exactly as ClassificationMiddleware
  // validates them: no scan path can honour a negative thread count.
  ServiceConfig parallel;
  parallel.parallel_scan_threads = -1;
  auto a = ClassificationService::Create(dir_.path(), parallel);
  EXPECT_FALSE(a.ok());
  EXPECT_EQ(a.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ServiceTest, ShutdownRejectsNewWorkAndIsIdempotent) {
  auto service = MakeService();
  ASSERT_TRUE(service->Run(TreeSpec()).status.ok());
  service->Shutdown();
  auto id = service->Submit(TreeSpec());
  EXPECT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kResourceExhausted);
  service->Shutdown();  // idempotent
}

// ---------------------------------------------------------------- admission
// Direct SessionManager tests: no workers claim, so queue states are fully
// deterministic.

ServiceConfig SmallConfig() {
  ServiceConfig config;
  config.max_active_sessions = 1;
  config.queue_capacity = 2;
  config.admission_timeout_ms = 0;  // no deadlines unless a test sets one
  config.memory_budget_bytes = 1000;
  config.default_session_quota_bytes = 400;
  return config;
}

SessionSpec AnySpec() {
  SessionSpec spec;
  spec.table = "t";
  return spec;
}

TEST(SessionManagerTest, RejectsWhenQueueFull) {
  SessionManager manager(SmallConfig());
  ASSERT_TRUE(manager.Submit(AnySpec()).ok());
  ASSERT_TRUE(manager.Submit(AnySpec()).ok());
  auto third = manager.Submit(AnySpec());
  EXPECT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kResourceExhausted);

  ServiceMetrics metrics;
  manager.FillMetrics(&metrics);
  EXPECT_EQ(metrics.sessions_submitted, 3u);
  EXPECT_EQ(metrics.sessions_rejected, 1u);
}

TEST(SessionManagerTest, RejectsQuotaLargerThanBudget) {
  SessionManager manager(SmallConfig());
  SessionSpec spec = AnySpec();
  spec.memory_quota_bytes = 2000;  // budget is 1000
  auto id = manager.Submit(spec);
  EXPECT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kResourceExhausted);
}

TEST(SessionManagerTest, QueuedSessionTimesOutGracefully) {
  ServiceConfig config = SmallConfig();
  config.admission_timeout_ms = 30;  // nobody claims => must expire
  SessionManager manager(config);
  auto id = manager.Submit(AnySpec());
  ASSERT_TRUE(id.ok());
  SessionResult result = manager.Wait(id.value());
  EXPECT_EQ(result.status.code(), StatusCode::kResourceExhausted);
  EXPECT_GE(result.queue_wait_ms, 0.0);

  ServiceMetrics metrics;
  manager.FillMetrics(&metrics);
  EXPECT_EQ(metrics.sessions_timed_out, 1u);
}

TEST(SessionManagerTest, AdmissionIsStrictFifoAndBoundedByActiveLimit) {
  SessionManager manager(SmallConfig());  // max_active_sessions = 1
  auto first = manager.Submit(AnySpec());
  auto second = manager.Submit(AnySpec());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());

  auto claim1 = manager.ClaimNext();
  ASSERT_TRUE(claim1.has_value());
  EXPECT_EQ(claim1->id, first.value());

  // One active session: the second stays queued until the first completes.
  SessionResult done;
  done.status = Status::OK();
  manager.Complete(claim1->id, done);
  auto claim2 = manager.ClaimNext();
  ASSERT_TRUE(claim2.has_value());
  EXPECT_EQ(claim2->id, second.value());
  manager.Complete(claim2->id, done);

  EXPECT_TRUE(manager.Wait(first.value()).status.ok());
  EXPECT_TRUE(manager.Wait(second.value()).status.ok());

  ServiceMetrics metrics;
  manager.FillMetrics(&metrics);
  EXPECT_EQ(metrics.sessions_admitted, 2u);
  EXPECT_EQ(metrics.sessions_completed, 2u);
  EXPECT_EQ(metrics.peak_active_sessions, 1u);
}

TEST(SessionManagerTest, WaitOnUnknownSessionIsAnError) {
  SessionManager manager(SmallConfig());
  SessionResult result = manager.Wait(12345);
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);
}

TEST(SessionManagerTest, StopUnblocksClaimers) {
  SessionManager manager(SmallConfig());
  manager.Stop();
  EXPECT_FALSE(manager.ClaimNext().has_value());
}

}  // namespace
}  // namespace sqlclass
