#include "service/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "datagen/load.h"
#include "datagen/random_tree.h"
#include "mining/inmemory_provider.h"
#include "mining/tree_client.h"
#include "server/server.h"
#include "service/session_manager.h"
#include "service/shared_scan_batcher.h"
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
  // Whether sessions meet in a scan depends on when workers claim them, so
  // only the exact invariants are asserted here; SharedScanBatcherTest pins
  // the merging itself.
  const std::string reference = ReferenceSignature();
  ServiceConfig config;
  config.worker_threads = 4;
  auto service = MakeService(config);

  std::vector<SessionId> ids;
  for (int i = 0; i < 4; ++i) {
    auto id = service->Submit(TreeSpec());
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  uint64_t requests = 0;
  uint64_t rides = 0;
  uint64_t most_rides = 0;
  for (SessionId id : ids) {
    SessionResult result = service->Wait(id);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.tree->Signature(), reference);
    requests += result.requests_issued;
    rides += result.scans_participated;
    most_rides = std::max(most_rides, result.scans_participated);
  }

  ServiceMetrics metrics = service->Metrics();
  // Each session round rides exactly one scan, and a scan carries at least
  // one round.
  EXPECT_EQ(metrics.requests_fulfilled, requests);
  EXPECT_EQ(metrics.scan_session_slots, rides);
  EXPECT_GE(metrics.scans_executed, most_rides);
  EXPECT_LE(metrics.scans_executed, rides);
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
    config.enable_scan_sharing = sharing;
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
  // Each session round rides exactly one scan either way, and a shared scan
  // may carry several; how many meet depends on when workers claim them.
  EXPECT_LE(scans_shared, scans_private);
}

TEST_F(ServiceTest, NaiveBayesSessionsTrainConcurrently) {
  ServiceConfig config;
  config.worker_threads = 4;
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

TEST_F(ServiceTest, ReRegisteringATableDuringGrowsKeepsItsSchema) {
  // Running sessions and scans read the registered schema without the
  // batcher's lock; re-registration may refresh only the row count.
  const std::string reference = ReferenceSignature();
  auto service = MakeService();
  std::vector<SessionId> ids;
  for (int i = 0; i < 4; ++i) {
    auto id = service->Submit(TreeSpec());
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  std::atomic<bool> stop{false};
  std::atomic<int> registrations{0};
  std::atomic<int> failures{0};
  std::thread registrar([&] {
    while (!stop.load()) {
      if (!service->RegisterTable("data").ok()) failures.fetch_add(1);
      registrations.fetch_add(1);
      std::this_thread::yield();
    }
  });
  std::vector<SessionResult> results;
  for (SessionId id : ids) results.push_back(service->Wait(id));
  stop.store(true);
  registrar.join();
  for (const SessionResult& result : results) {
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.tree->Signature(), reference);
  }
  EXPECT_GT(registrations.load(), 0);
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ServiceTest, ReRegisteringAChangedSchemaIsRefused) {
  auto service = MakeService();
  {
    MutexLock lock(*service->server_mutex());
    ASSERT_TRUE(service->server()->DropTable("data").ok());
    ASSERT_TRUE(service->server()
                    ->CreateTable("data", testing_util::MakeSchema({3, 3}, 2))
                    .ok());
  }
  EXPECT_EQ(service->RegisterTable("data").code(),
            StatusCode::kAlreadyExists);
}

// ------------------------------------------------------------- scan batcher
// Direct SharedScanBatcher tests: every session registers before any grows,
// so which sessions meet in a scan follows from the scan-start rule alone.

/// The CcProvider a service worker hands its client, over one batcher
/// session. `pause` runs after each delivered wave, before the client
/// queues the next one.
class BatcherSessionProvider : public CcProvider {
 public:
  BatcherSessionProvider(SharedScanBatcher* batcher, SessionId id,
                         std::chrono::milliseconds pause)
      : batcher_(batcher), id_(id), pause_(pause) {}

  Status QueueRequest(CcRequest request) override {
    return batcher_->Enqueue(id_, std::move(request));
  }

  StatusOr<std::vector<CcResult>> FulfillSome() override {
    StatusOr<std::vector<CcResult>> results = batcher_->Fulfill(id_);
    std::this_thread::sleep_for(pause_);
    return results;
  }

  size_t PendingRequests() const override { return batcher_->Outstanding(id_); }

 private:
  SharedScanBatcher* batcher_;
  SessionId id_;
  std::chrono::milliseconds pause_;
};

class SharedScanBatcherTest : public ServiceTest {
 protected:
  void SetUp() override {
    ServiceTest::SetUp();
    server_ = std::make_unique<SqlServer>(dir_.path());
    MutexLock lock(server_mu_);
    ASSERT_TRUE(server_->CreateTable("data", schema_).ok());
    ASSERT_TRUE(server_->LoadRows("data", rows_).ok());
  }

  std::unique_ptr<SqlServer> server_;
  Mutex server_mu_;
};

TEST_F(SharedScanBatcherTest, ScanWaitsForASessionBetweenWaves) {
  const std::string reference = ReferenceSignature();
  SharedScanBatcher batcher(server_.get(), &server_mu_, ServiceConfig());
  ASSERT_TRUE(batcher.RegisterTable("data").ok());
  constexpr int kSessions = 4;
  for (SessionId id = 1; id <= kSessions; ++id) {
    ASSERT_TRUE(batcher.RegisterSession(id, "data", 0).ok());
  }

  std::vector<std::string> signatures(kSessions);
  std::vector<uint64_t> rounds(kSessions);
  std::vector<std::thread> clients;
  for (int i = 0; i < kSessions; ++i) {
    clients.emplace_back([&, i] {
      const SessionId id = static_cast<SessionId>(i) + 1;
      // Session 1 takes 50 ms between waves; the others return at once.
      BatcherSessionProvider provider(
          &batcher, id, std::chrono::milliseconds(i == 0 ? 50 : 0));
      DecisionTreeClient client(schema_, TreeClientConfig());
      auto tree = client.Grow(&provider, rows_.size());
      if (tree.ok()) signatures[i] = tree->Signature();
      rounds[i] = client.rounds();
      batcher.UnregisterSession(id);
    });
  }
  for (std::thread& client : clients) client.join();

  for (int i = 0; i < kSessions; ++i) {
    EXPECT_EQ(signatures[i], reference) << "session " << i + 1;
    EXPECT_EQ(rounds[i], rounds[0]);
  }
  ServiceMetrics metrics;
  batcher.FillMetrics(&metrics);
  // Every scan carried all four sessions' waves: none left the slow one
  // behind.
  EXPECT_DOUBLE_EQ(metrics.SessionsPerScan(), 4.0);
  EXPECT_EQ(metrics.scans_executed, rounds[0]);
}

TEST_F(SharedScanBatcherTest, UnregisteringAnIdlePeerReleasesAWaiter) {
  SharedScanBatcher batcher(server_.get(), &server_mu_, ServiceConfig());
  ASSERT_TRUE(batcher.RegisterTable("data").ok());
  ASSERT_TRUE(batcher.RegisterSession(1, "data", 0).ok());
  ASSERT_TRUE(batcher.RegisterSession(2, "data", 0).ok());

  CcRequest root;
  root.node_id = 0;
  root.predicate = Expr::True();
  for (int a = 0; a < schema_.num_columns(); ++a) {
    if (a != schema_.class_column()) root.active_attrs.push_back(a);
  }
  root.data_size = rows_.size();
  ASSERT_TRUE(batcher.Enqueue(1, std::move(root)).ok());

  std::atomic<bool> delivered{false};
  std::optional<StatusOr<std::vector<CcResult>>> results;
  std::thread waiter([&] {
    results = batcher.Fulfill(1);
    delivered.store(true);
  });
  // Session 2 is registered and has queued nothing, so no scan may start.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(delivered.load());
  batcher.UnregisterSession(2);
  waiter.join();

  ASSERT_TRUE(results.has_value());
  ASSERT_TRUE(results->ok()) << results->status().ToString();
  ASSERT_EQ((*results)->size(), 1u);
  EXPECT_EQ(static_cast<size_t>((**results)[0].cc.TotalRows()), rows_.size());
  batcher.UnregisterSession(1);
}

// ---------------------------------------------------------------- admission
// Direct SessionManager tests: no workers claim, so queue states are fully
// deterministic.

ServiceConfig SmallConfig() {
  ServiceConfig config;
  config.worker_threads = 1;
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
  SessionManager manager(SmallConfig());  // worker_threads = 1
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
