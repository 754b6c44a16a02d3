// Out-of-process shard transport: conformance across InProcessShardTransport
// and SubprocessShardTransport (tree byte-identity vs the unsharded serial
// path, simulated-cost invariance, replica on/off grid), RPC hardening
// (deadlines, SIGKILL + respawn, torn frames, injected worker crashes), the
// replica -> primary-rescan degradation ladder, and exact reconciliation of
// the shard_rpc_timeouts / shard_worker_restarts / shard_replica_rescans
// counters against the injected fault counts at middleware and service level.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injector.h"
#include "datagen/census.h"
#include "datagen/load.h"
#include "datagen/random_tree.h"
#include "derived_grow.h"
#include "middleware/middleware.h"
#include "middleware/shard_scan.h"
#include "middleware/subprocess_shard_transport.h"
#include "mining/tree_client.h"
#include "server/server.h"
#include "service/service.h"
#include "shard/shard_map.h"
#include "sql/expr.h"
#include "storage/heap_file.h"
#include "test_env.h"
#include "test_util.h"

namespace sqlclass {
namespace {

using testing_util::DerivedOnPath;
using testing_util::EnvVarScope;
using testing_util::ExpectGrowsAlike;
using testing_util::FaultScope;
using testing_util::GrowRecord;
using testing_util::LoadCensus;
using testing_util::MakeSchema;
using testing_util::RandomRows;
using testing_util::TempDir;

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteHeap(const std::string& path, const Schema& schema,
               const std::vector<Row>& rows) {
  auto writer = HeapFileWriter::Create(path, schema.num_columns(), nullptr);
  ASSERT_TRUE(writer.ok());
  for (const Row& row : rows) ASSERT_TRUE((*writer)->Append(row).ok());
  ASSERT_TRUE((*writer)->Finish().ok());
}

// ---------------------------------------------------------------------------
// Transport selection.
// ---------------------------------------------------------------------------

// The factory follows the resolved config alone: SQLCLASS_SHARDS_TRANSPORT
// reaches it only through ApplyEnvOverrides at Create (see
// env_overrides_test.cc), so setting the variable later changes nothing.
TEST(TransportFactoryTest, ConfigAndEnvSelectTheImplementation) {
  ShardingConfig config;
  config.transport = ShardTransportKind::kInProcess;
  {
    auto transport = MakeShardTransport(config, 1);
    EXPECT_NE(dynamic_cast<InProcessShardTransport*>(transport.get()),
              nullptr);
  }
  {
    EnvVarScope env("SQLCLASS_SHARDS_TRANSPORT", "subprocess");
    auto transport = MakeShardTransport(config, 1);
    EXPECT_NE(dynamic_cast<InProcessShardTransport*>(transport.get()),
              nullptr);
  }
  config.transport = ShardTransportKind::kSubprocess;
  {
    EnvVarScope env("SQLCLASS_SHARDS_TRANSPORT", "inproc");
    auto transport = MakeShardTransport(config, 1);
    EXPECT_NE(dynamic_cast<SubprocessShardTransport*>(transport.get()),
              nullptr);
  }
}

// ---------------------------------------------------------------------------
// Direct transport exercises: one shard set, hand-built tasks, exact
// counter arithmetic per injected fault.
// ---------------------------------------------------------------------------

class SubprocessDirectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = MakeSchema({4, 3, 5}, 3);
    rows_ = RandomRows(schema_, 600, 7);
    heap_ = dir_.path() + "/t.heap";
    WriteHeap(heap_, schema_, rows_);
    ASSERT_TRUE(ShardSetWriter::BuildFromHeapFile(heap_, schema_.num_columns(),
                                                  1, ShardScheme::kHashRowId,
                                                  nullptr)
                    .ok());
    predicate_ = Expr::ColEq("A1", 1);
    std::vector<std::unique_ptr<Expr>> clauses;
    clauses.push_back(Expr::ColEq("A2", 2));
    clauses.push_back(Expr::ColNe("A3", 0));
    or_predicate_ = Expr::Or(std::move(clauses));
    not_predicate_ = Expr::Not(Expr::ColEq("A3", 4));
    for (Expr* predicate :
         {predicate_.get(), or_predicate_.get(), not_predicate_.get()}) {
      ASSERT_TRUE(predicate->Bind(schema_).ok());
    }
    attrs_ = {0, 1, 2};
  }

  SubprocessShardTransport::Options FastOptions(int attempts) {
    SubprocessShardTransport::Options options;
    options.pool_size = 1;
    options.rpc_deadline_ms = 5000;
    options.retry.max_attempts = attempts;
    options.retry.initial_backoff_us = 0;
    return options;
  }

  /// Four-node task over the single shard: node 0 counts everything, node 1
  /// only rows matching `predicate_`, nodes 2 and 3 the OR and NOT
  /// predicates a worker's BatchMatcher cannot put in its trie.
  WireShardTask MakeTask() {
    WireShardTask task;
    task.shard = 0;
    task.shard_heap_path = ShardHeapPathFor(heap_, 0);
    task.expected_rows = rows_.size();
    task.num_columns = schema_.num_columns();
    task.class_column = schema_.class_column();
    task.num_classes = 3;
    for (const Expr* predicate : std::vector<const Expr*>{
             nullptr, predicate_.get(), or_predicate_.get(),
             not_predicate_.get()}) {
      WireTaskNode& node = task.nodes.emplace_back();
      node.predicate = WirePredicateFromExpr(predicate);
      node.attrs.assign(attrs_.begin(), attrs_.end());
    }
    for (const AttributeDef& column : schema_.attributes()) {
      task.cardinalities.push_back(column.cardinality);
    }
    return task;
  }

  CcTable Expected(const Expr* predicate) {
    CcTable cc(3);
    for (const Row& row : rows_) {
      if (predicate == nullptr || predicate->Eval(row.data())) {
        cc.AddRow(row.data(), attrs_, schema_.class_column());
      }
    }
    return cc;
  }

  TempDir dir_;
  Schema schema_;
  std::vector<Row> rows_;
  std::string heap_;
  std::unique_ptr<Expr> predicate_;
  std::unique_ptr<Expr> or_predicate_;
  std::unique_ptr<Expr> not_predicate_;
  std::vector<int> attrs_;
};

TEST_F(SubprocessDirectTest, ScanShipsExactCcTables) {
  SubprocessShardTransport subprocess(FastOptions(2));
  InProcessShardTransport inproc;
  const WireShardTask task = MakeTask();
  const StatusOr<WireShardResult> local = inproc.RunShard(task);
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  const StatusOr<WireShardResult> shipped = subprocess.RunShard(task);
  ASSERT_TRUE(shipped.ok()) << shipped.status().ToString();
  for (const WireShardResult* result : {&*local, &*shipped}) {
    EXPECT_EQ(result->rows_scanned, rows_.size());
    ASSERT_EQ(result->partials.size(), 4u);
    EXPECT_TRUE(result->partials[0] == Expected(nullptr));
    EXPECT_TRUE(result->partials[1] == Expected(predicate_.get()));
    EXPECT_TRUE(result->partials[2] == Expected(or_predicate_.get()));
    EXPECT_TRUE(result->partials[3] == Expected(not_predicate_.get()));
    EXPECT_GT(result->io.pages_read, 0u);
  }
  // Both transports count through CountShardTask: equal partials and rows.
  EXPECT_EQ(shipped->rows_scanned, local->rows_scanned);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(shipped->partials[i] == local->partials[i]) << "node " << i;
  }
  EXPECT_EQ(subprocess.rpc_timeouts(), 0u);
  EXPECT_EQ(subprocess.worker_restarts(), 0u);

  // The pooled worker serves a second task without respawning.
  const StatusOr<WireShardResult> again = subprocess.RunShard(MakeTask());
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->partials[0] == shipped->partials[0]);
  EXPECT_EQ(subprocess.worker_restarts(), 0u);
}

TEST_F(SubprocessDirectTest, MissingWorkerBinaryIsNotFound) {
  SubprocessShardTransport::Options options = FastOptions(2);
  options.worker_binary = "/nonexistent/sqlclass_shard_worker";
  SubprocessShardTransport transport(options);
  const StatusOr<WireShardResult> run = transport.RunShard(MakeTask());
  EXPECT_EQ(run.status().code(), StatusCode::kNotFound);
}

TEST_F(SubprocessDirectTest, HangingWorkerIsKilledAtTheDeadline) {
  EnvVarScope crash("SQLCLASS_CRASH_AT", "shard/hang");
  SubprocessShardTransport::Options options = FastOptions(2);
  options.rpc_deadline_ms = 80;
  SubprocessShardTransport transport(options);
  const StatusOr<WireShardResult> run = transport.RunShard(MakeTask());
  EXPECT_EQ(run.status().code(), StatusCode::kIoError);
  // Both attempts timed out; only the second attempt's spawn replaced a
  // dead worker (the first used the pre-forked pool).
  EXPECT_EQ(transport.rpc_timeouts(), 2u);
  EXPECT_EQ(transport.worker_restarts(), 1u);
}

TEST_F(SubprocessDirectTest, CrashAfterScanIsRetriedThenSurfaced) {
  EnvVarScope crash("SQLCLASS_CRASH_AT", "shard/worker_crash");
  SubprocessShardTransport transport(FastOptions(3));
  const StatusOr<WireShardResult> run = transport.RunShard(MakeTask());
  EXPECT_EQ(run.status().code(), StatusCode::kIoError);
  EXPECT_EQ(transport.rpc_timeouts(), 0u);
  EXPECT_EQ(transport.worker_restarts(), 2u);  // attempts 2 and 3 respawned
}

TEST_F(SubprocessDirectTest, CrashBeforeScanIsRetriedThenSurfaced) {
  EnvVarScope crash("SQLCLASS_CRASH_AT", "shard/rpc_recv");
  SubprocessShardTransport transport(FastOptions(2));
  const StatusOr<WireShardResult> run = transport.RunShard(MakeTask());
  EXPECT_EQ(run.status().code(), StatusCode::kIoError);
  EXPECT_EQ(transport.worker_restarts(), 1u);
}

TEST_F(SubprocessDirectTest, TornReplyFrameNeverDecodes) {
  EnvVarScope crash("SQLCLASS_CRASH_AT", "shard/rpc_send");
  SubprocessShardTransport transport(FastOptions(2));
  const StatusOr<WireShardResult> run = transport.RunShard(MakeTask());
  EXPECT_EQ(run.status().code(), StatusCode::kIoError);
  EXPECT_EQ(transport.worker_restarts(), 1u);
  // The half-written reply frame was rejected wholesale: a failed run
  // carries no partial CC data at all.
}

TEST_F(SubprocessDirectTest, EverySecondTaskCrashRecoversTransparently) {
  EnvVarScope crash("SQLCLASS_CRASH_AT", "shard/worker_crash,after:1");
  SubprocessShardTransport transport(FastOptions(2));
  const CcTable expected = Expected(nullptr);
  for (int i = 0; i < 4; ++i) {
    const StatusOr<WireShardResult> run = transport.RunShard(MakeTask());
    ASSERT_TRUE(run.ok()) << "task " << i;
    EXPECT_TRUE(run->partials[0] == expected) << "task " << i;
  }
  // Each worker instance serves exactly one task and crashes on its second,
  // so tasks 2..4 each needed one respawn.
  EXPECT_EQ(transport.worker_restarts(), 3u);
  EXPECT_EQ(transport.rpc_timeouts(), 0u);
}

TEST_F(SubprocessDirectTest, WorkerReportedScanFailureIsNotRetried) {
  SubprocessShardTransport transport(FastOptions(3));
  WireShardTask task = MakeTask();
  task.expected_rows = rows_.size() + 1;  // map disagreement -> kShardError
  const StatusOr<WireShardResult> run = transport.RunShard(task);
  EXPECT_EQ(run.status().code(), StatusCode::kDataLoss);
  // Deterministic worker-side failure: same worker, no respawns, and it is
  // still healthy enough to serve a corrected task.
  EXPECT_EQ(transport.worker_restarts(), 0u);
  ASSERT_TRUE(transport.RunShard(MakeTask()).ok());
  EXPECT_EQ(transport.worker_restarts(), 0u);
}

TEST_F(SubprocessDirectTest, CoordinatorSideWireFaultsRetryAndSurface) {
  FaultScope guard;
  SubprocessShardTransport transport(FastOptions(2));
  {
    FaultInjector::PointConfig fault;  // every coordinator send fails
    FaultInjector::Global().Arm(faults::kShardRpcSend, fault);
    EXPECT_FALSE(transport.RunShard(MakeTask()).ok());
    FaultInjector::Global().Reset();
  }
  {
    FaultInjector::PointConfig fault;
    fault.times = 1;  // one receive fails; the retry succeeds
    FaultInjector::Global().Arm(faults::kShardRpcRecv, fault);
    const StatusOr<WireShardResult> run = transport.RunShard(MakeTask());
    ASSERT_TRUE(run.ok());
    EXPECT_TRUE(run->partials[0] == Expected(nullptr));
  }
}

// A retry policy with no attempt never reports a shard it did not count.
TEST_F(SubprocessDirectTest, ZeroRpcAttemptsNeverSucceed) {
  SubprocessShardTransport transport(FastOptions(0));
  EXPECT_EQ(transport.RunShard(MakeTask()).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Replica files on disk.
// ---------------------------------------------------------------------------

TEST(ShardReplicaTest, ReplicasAreByteIdenticalAndVerified) {
  TempDir dir;
  Schema schema = MakeSchema({4, 3}, 2);
  std::vector<Row> rows = RandomRows(schema, 257, 13);
  const std::string heap = dir.path() + "/t.heap";
  WriteHeap(heap, schema, rows);

  ASSERT_TRUE(ShardSetWriter::BuildFromHeapFile(heap, schema.num_columns(), 3,
                                                ShardScheme::kHashRowId,
                                                nullptr,
                                                /*with_replicas=*/true)
                  .ok());
  for (uint32_t s = 0; s < 3; ++s) {
    const std::string replica = ShardReplicaPathFor(heap, s);
    ASSERT_TRUE(std::filesystem::exists(replica)) << replica;
    EXPECT_EQ(ReadFileBytes(replica), ReadFileBytes(ShardHeapPathFor(heap, s)))
        << "shard " << s;
  }
  ASSERT_TRUE(VerifyShardFiles(heap, ShardMapPathFor(heap), nullptr).ok());

  // A doctored replica fails verification even though the primaries are
  // intact.
  {
    std::ofstream replica(ShardReplicaPathFor(heap, 1),
                          std::ios::binary | std::ios::app);
    replica << "x";
  }
  EXPECT_EQ(VerifyShardFiles(heap, ShardMapPathFor(heap), nullptr).code(),
            StatusCode::kDataLoss);

  RemoveShardSetFiles(heap, 3);
  for (uint32_t s = 0; s < 3; ++s) {
    EXPECT_FALSE(std::filesystem::exists(ShardReplicaPathFor(heap, s)));
  }
}

TEST(ShardReplicaTest, ReplicalessSetsStillVerify) {
  TempDir dir;
  Schema schema = MakeSchema({3}, 2);
  std::vector<Row> rows = RandomRows(schema, 64, 5);
  const std::string heap = dir.path() + "/t.heap";
  WriteHeap(heap, schema, rows);
  ASSERT_TRUE(ShardSetWriter::BuildFromHeapFile(heap, schema.num_columns(), 2,
                                                ShardScheme::kRoundRobin,
                                                nullptr)
                  .ok());
  EXPECT_FALSE(std::filesystem::exists(ShardReplicaPathFor(heap, 0)));
  EXPECT_TRUE(VerifyShardFiles(heap, ShardMapPathFor(heap), nullptr).ok());
}

// ---------------------------------------------------------------------------
// Middleware conformance: both transports against the unsharded serial
// reference, with exact failure-mode accounting.
// ---------------------------------------------------------------------------

class TransportMiddlewareTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RandomTreeParams params;
    params.num_attributes = 6;
    params.num_leaves = 10;
    params.cases_per_leaf = 200.0;
    params.num_classes = 3;
    params.seed = 21;
    auto dataset = RandomTreeDataset::Create(params);
    ASSERT_TRUE(dataset.ok());
    dataset_ = std::move(dataset).value();
    server_ = std::make_unique<SqlServer>(dir_.path());
    ASSERT_TRUE(LoadIntoServer(server_.get(), "data", dataset_->schema(),
                               [&](const RowSink& sink) {
                                 return dataset_->Generate(sink);
                               })
                    .ok());
    staging_ = dir_.path() + "/staging";
    std::filesystem::create_directories(staging_);
  }

  MiddlewareConfig Config(bool shards_on, ShardTransportKind transport =
                                              ShardTransportKind::kInProcess) {
    MiddlewareConfig config;
    config.staging_dir = staging_;
    config.scan_retry.initial_backoff_us = 0;
    config.sharding.enable = shards_on;
    config.parallel_scan_threads = 1;
    config.sharding.min_node_rows = 1;
    config.sharding.transport = transport;
    config.sharding.rpc_retry.max_attempts = 2;
    config.sharding.rpc_retry.initial_backoff_us = 0;
    return config;
  }

  struct GrowOutput {
    std::string tree;
    ClassificationMiddleware::Stats stats;
    std::vector<ClassificationMiddleware::BatchTrace> trace;
    double simulated_seconds = 0;
  };

  GrowOutput Grow(const MiddlewareConfig& config) {
    GrowOutput out;
    server_->ResetCostCounters();
    auto mw = ClassificationMiddleware::Create(server_.get(), "data", config);
    EXPECT_TRUE(mw.ok()) << mw.status().ToString();
    DecisionTreeClient client(dataset_->schema(), TreeClientConfig());
    auto tree = client.Grow(mw->get(), dataset_->TotalRows());
    EXPECT_TRUE(tree.ok()) << tree.status().ToString();
    if (tree.ok()) out.tree = tree->ToString(1 << 20);
    out.stats = (*mw)->stats();
    out.trace = (*mw)->trace();
    out.simulated_seconds = server_->SimulatedSeconds();
    return out;
  }

  void RebuildShardSet(uint32_t shards, bool with_replicas = false) {
    if (server_->HasShardSet("data")) {
      ASSERT_TRUE(server_->DropShardSet("data").ok());
    }
    ASSERT_TRUE(server_
                    ->BuildShardSet("data", shards, ShardScheme::kHashRowId,
                                    with_replicas)
                    .ok());
  }

  /// Sums a per-batch trace counter for reconciliation against stats.
  uint64_t TraceSum(const GrowOutput& out, uint64_t ScanCounts::*count) {
    uint64_t sum = 0;
    for (const auto& trace : out.trace) sum += trace.counts.*count;
    return sum;
  }

  TempDir dir_;
  std::unique_ptr<RandomTreeDataset> dataset_;
  std::unique_ptr<SqlServer> server_;
  std::string staging_;
};

TEST_F(TransportMiddlewareTest, GridIsByteIdenticalAndCostInvariant) {
  GrowOutput serial = Grow(Config(false));
  ASSERT_FALSE(serial.tree.empty());

  double reference_sim = -1;
  for (bool replicas : {false, true}) {
    RebuildShardSet(4, replicas);
    if (replicas) {
      const std::string heap = *server_->TableHeapPath("data");
      for (uint32_t s = 0; s < 4; ++s) {
        ASSERT_TRUE(
            std::filesystem::exists(ShardReplicaPathFor(heap, s)));
      }
    }
    for (ShardTransportKind transport : {ShardTransportKind::kInProcess,
                                         ShardTransportKind::kSubprocess}) {
      GrowOutput out = Grow(Config(true, transport));
      const std::string label =
          std::string(transport == ShardTransportKind::kInProcess
                          ? "inproc"
                          : "subprocess") +
          (replicas ? "+replicas" : "");
      EXPECT_EQ(out.tree, serial.tree) << label;
      EXPECT_GT(out.stats.shard_scans.load(), 0u) << label;
      EXPECT_EQ(out.stats.shard_fallbacks.load(), 0u) << label;
      EXPECT_EQ(out.stats.shard_rescans.load(), 0u) << label;
      EXPECT_EQ(out.stats.shard_replica_rescans.load(), 0u) << label;
      EXPECT_EQ(out.stats.shard_rpc_timeouts.load(), 0u) << label;
      EXPECT_EQ(out.stats.shard_worker_restarts.load(), 0u) << label;
      // Simulated cost may not see the transport or the replica knob.
      if (reference_sim < 0) {
        reference_sim = out.simulated_seconds;
      } else {
        EXPECT_DOUBLE_EQ(out.simulated_seconds, reference_sim) << label;
      }
    }
  }
}

TEST_F(TransportMiddlewareTest, EverySecondTaskCrashIsRetriedInPlace) {
  GrowOutput baseline = Grow(Config(false));
  RebuildShardSet(2);

  EnvVarScope crash("SQLCLASS_CRASH_AT", "shard/worker_crash,after:1");
  GrowOutput out = Grow(Config(true, ShardTransportKind::kSubprocess));

  EXPECT_EQ(out.tree, baseline.tree);
  const uint64_t scans = out.stats.shard_scans.load();
  ASSERT_GT(scans, 0u);
  EXPECT_EQ(out.stats.shard_fallbacks.load(), 0u);
  EXPECT_EQ(out.stats.shard_rescans.load(), 0u);
  EXPECT_EQ(out.stats.shard_replica_rescans.load(), 0u);
  EXPECT_EQ(out.stats.shard_rpc_timeouts.load(), 0u);
  // 2 shards x scans tasks in all; every worker instance serves one task
  // and crashes on its second, so every task but the first needed exactly
  // one respawn — all absorbed by the RPC retry, invisible to the ladder.
  EXPECT_EQ(out.stats.shard_worker_restarts.load(), 2 * scans - 1);
  EXPECT_EQ(TraceSum(out, &ScanCounts::shard_worker_restarts),
            out.stats.shard_worker_restarts.load());
}

TEST_F(TransportMiddlewareTest, PersistentCrashRecoversFromPrimary) {
  GrowOutput baseline = Grow(Config(false));
  RebuildShardSet(2);

  EnvVarScope crash("SQLCLASS_CRASH_AT", "shard/worker_crash");
  GrowOutput out = Grow(Config(true, ShardTransportKind::kSubprocess));

  EXPECT_EQ(out.tree, baseline.tree);
  const uint64_t scans = out.stats.shard_scans.load();
  ASSERT_GT(scans, 0u);
  EXPECT_EQ(out.stats.shard_fallbacks.load(), 0u);
  // Every task crashed through both RPC attempts: each of the 2 shards per
  // scan died and was recovered from the primary heap file (no replicas).
  EXPECT_EQ(out.stats.shard_rescans.load(), 2 * scans);
  EXPECT_EQ(out.stats.shard_replica_rescans.load(), 0u);
  EXPECT_EQ(out.stats.shard_rpc_timeouts.load(), 0u);
  // 2 attempts x 2 shards x scans exchanges, every one fatal; every
  // exchange after the very first respawned a dead worker first.
  EXPECT_EQ(out.stats.shard_worker_restarts.load(), 4 * scans - 1);
  EXPECT_EQ(TraceSum(out, &ScanCounts::shard_rescans),
            out.stats.shard_rescans.load());
  EXPECT_EQ(TraceSum(out, &ScanCounts::shard_worker_restarts),
            out.stats.shard_worker_restarts.load());
}

TEST_F(TransportMiddlewareTest, PersistentCrashRecoversFromReplicas) {
  GrowOutput baseline = Grow(Config(false));
  RebuildShardSet(2, /*with_replicas=*/true);

  EnvVarScope crash("SQLCLASS_CRASH_AT", "shard/worker_crash");
  GrowOutput out = Grow(Config(true, ShardTransportKind::kSubprocess));

  EXPECT_EQ(out.tree, baseline.tree);
  const uint64_t scans = out.stats.shard_scans.load();
  ASSERT_GT(scans, 0u);
  EXPECT_EQ(out.stats.shard_fallbacks.load(), 0u);
  // The replica rung caught every dead shard before the primary rescan.
  EXPECT_EQ(out.stats.shard_replica_rescans.load(), 2 * scans);
  EXPECT_EQ(out.stats.shard_rescans.load(), 0u);
  EXPECT_EQ(out.stats.shard_worker_restarts.load(), 4 * scans - 1);
  EXPECT_EQ(TraceSum(out, &ScanCounts::shard_replica_rescans),
            out.stats.shard_replica_rescans.load());
}

TEST_F(TransportMiddlewareTest, TornFramesNeverCorruptTheTree) {
  GrowOutput baseline = Grow(Config(false));
  RebuildShardSet(2);

  EnvVarScope crash("SQLCLASS_CRASH_AT", "shard/rpc_send");
  GrowOutput out = Grow(Config(true, ShardTransportKind::kSubprocess));

  // Every reply was a torn frame; all were rejected by short read, every
  // shard recovered from the primary, and the tree is still byte-identical.
  EXPECT_EQ(out.tree, baseline.tree);
  const uint64_t scans = out.stats.shard_scans.load();
  ASSERT_GT(scans, 0u);
  EXPECT_EQ(out.stats.shard_rescans.load(), 2 * scans);
  EXPECT_EQ(out.stats.shard_worker_restarts.load(), 4 * scans - 1);
  EXPECT_EQ(out.stats.shard_fallbacks.load(), 0u);
}

TEST_F(TransportMiddlewareTest, HangsHitTheDeadlineAndRecover) {
  GrowOutput baseline = Grow(Config(false));
  RebuildShardSet(2);

  EnvVarScope crash("SQLCLASS_CRASH_AT", "shard/hang");
  MiddlewareConfig config = Config(true, ShardTransportKind::kSubprocess);
  config.sharding.rpc_deadline_ms = 60;
  // Shard only the root-level batches so the deadline waits stay cheap.
  config.sharding.min_node_rows = dataset_->TotalRows();
  GrowOutput out = Grow(config);

  EXPECT_EQ(out.tree, baseline.tree);
  const uint64_t scans = out.stats.shard_scans.load();
  ASSERT_GT(scans, 0u);
  EXPECT_EQ(out.stats.shard_fallbacks.load(), 0u);
  // Every exchange hung and was SIGKILLed at the deadline: 2 attempts x
  // 2 shards per scan, one timeout each, then the primary rescan ladder.
  EXPECT_EQ(out.stats.shard_rpc_timeouts.load(), 4 * scans);
  EXPECT_EQ(out.stats.shard_worker_restarts.load(), 4 * scans - 1);
  EXPECT_EQ(out.stats.shard_rescans.load(), 2 * scans);
  EXPECT_EQ(TraceSum(out, &ScanCounts::shard_rpc_timeouts),
            out.stats.shard_rpc_timeouts.load());
}

TEST_F(TransportMiddlewareTest, DeletedShardHeapFailsOverToItsReplica) {
  GrowOutput baseline = Grow(Config(false));
  RebuildShardSet(2, /*with_replicas=*/true);
  const std::string heap = *server_->TableHeapPath("data");
  ASSERT_TRUE(std::filesystem::remove(ShardHeapPathFor(heap, 1)));

  // Both transports serve the vanished shard from its replica.
  for (ShardTransportKind transport : {ShardTransportKind::kInProcess,
                                       ShardTransportKind::kSubprocess}) {
    GrowOutput out = Grow(Config(true, transport));
    EXPECT_EQ(out.tree, baseline.tree);
    const uint64_t scans = out.stats.shard_scans.load();
    ASSERT_GT(scans, 0u);
    EXPECT_EQ(out.stats.shard_replica_rescans.load(), scans);
    EXPECT_EQ(out.stats.shard_rescans.load(), 0u);
    EXPECT_EQ(out.stats.shard_fallbacks.load(), 0u);
  }

  // Without the replica the primary rescan serves the shard instead.
  ASSERT_TRUE(std::filesystem::remove(ShardReplicaPathFor(heap, 1)));
  GrowOutput out = Grow(Config(true, ShardTransportKind::kSubprocess));
  EXPECT_EQ(out.tree, baseline.tree);
  EXPECT_EQ(out.stats.shard_replica_rescans.load(), 0u);
  EXPECT_EQ(out.stats.shard_rescans.load(), out.stats.shard_scans.load());
}

// Both entry points refuse a shard RPC retry policy with no attempt, so a
// grow never reaches a transport that cannot count a shard.
TEST_F(TransportMiddlewareTest, CreateRefusesZeroRpcAttempts) {
  RebuildShardSet(2);
  MiddlewareConfig config = Config(true, ShardTransportKind::kSubprocess);
  config.sharding.rpc_retry.max_attempts = 0;
  auto mw = ClassificationMiddleware::Create(server_.get(), "data", config);
  EXPECT_EQ(mw.status().code(), StatusCode::kInvalidArgument);

  ServiceConfig service_config;
  service_config.sharding = config.sharding;
  auto service = ClassificationService::Create(dir_.path() + "/service",
                                               service_config);
  EXPECT_EQ(service.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Service-level conformance and counter surfacing.
// ---------------------------------------------------------------------------

class TransportServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RandomTreeParams params;
    params.num_attributes = 8;
    params.num_leaves = 20;
    params.cases_per_leaf = 40;
    params.num_classes = 4;
    params.seed = 555;
    auto dataset = RandomTreeDataset::Create(params);
    ASSERT_TRUE(dataset.ok());
    schema_ = (*dataset)->schema();
    ASSERT_TRUE((*dataset)->Generate(CollectInto(&rows_)).ok());
  }

  std::unique_ptr<ClassificationService> MakeService(
      ServiceConfig config, uint32_t shards, bool with_replicas = false) {
    auto service = ClassificationService::Create(dir_.path(), config);
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    EXPECT_TRUE((*service)->CreateAndLoadTable("data", schema_, rows_).ok());
    if (shards > 0) {
      MutexLock lock(*(*service)->server_mutex());
      EXPECT_TRUE((*service)
                      ->server()
                      ->BuildShardSet("data", shards, ShardScheme::kHashRowId,
                                      with_replicas)
                      .ok());
    }
    return std::move(service).value();
  }

  std::string ReferenceSignature() {
    TempDir ref_dir;
    auto service = ClassificationService::Create(ref_dir.path());
    EXPECT_TRUE(service.ok());
    EXPECT_TRUE((*service)->CreateAndLoadTable("data", schema_, rows_).ok());
    SessionResult result = (*service)->Run(TreeSpec());
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_NE(result.tree, nullptr);
    return result.tree != nullptr ? result.tree->Signature() : "";
  }

  static SessionSpec TreeSpec() {
    SessionSpec spec;
    spec.table = "data";
    spec.task = SessionSpec::Task::kDecisionTree;
    return spec;
  }

  static ServiceConfig OopConfig() {
    ServiceConfig config;
    config.sharding.enable = true;
    config.sharding.min_node_rows = 1;
    config.parallel_scan_threads = 1;
    config.sharding.transport = ShardTransportKind::kSubprocess;
    config.sharding.rpc_retry.max_attempts = 2;
    config.sharding.rpc_retry.initial_backoff_us = 0;
    config.scan_retry.initial_backoff_us = 0;
    return config;
  }

  TempDir dir_;
  Schema schema_;
  std::vector<Row> rows_;
};

TEST_F(TransportServiceTest, SubprocessSessionsMatchUnshardedService) {
  const std::string reference = ReferenceSignature();
  ASSERT_FALSE(reference.empty());

  auto service = MakeService(OopConfig(), /*shards=*/2);
  for (int i = 0; i < 2; ++i) {
    SessionResult result = service->Run(TreeSpec());
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    ASSERT_NE(result.tree, nullptr);
    EXPECT_EQ(result.tree->Signature(), reference);
  }
  ServiceMetrics metrics = service->Metrics();
  EXPECT_GT(metrics.shard_scans, 0u);
  EXPECT_EQ(metrics.shard_fallbacks, 0u);
  EXPECT_EQ(metrics.shard_rescans, 0u);
  EXPECT_EQ(metrics.shard_replica_rescans, 0u);
  EXPECT_EQ(metrics.shard_rpc_timeouts, 0u);
  EXPECT_EQ(metrics.shard_worker_restarts, 0u);
}

TEST_F(TransportServiceTest, CrashStormRecoversViaReplicasWithExactMetering) {
  const std::string reference = ReferenceSignature();
  auto service =
      MakeService(OopConfig(), /*shards=*/2, /*with_replicas=*/true);

  EnvVarScope crash("SQLCLASS_CRASH_AT", "shard/worker_crash");
  SessionResult result = service->Run(TreeSpec());
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  ASSERT_NE(result.tree, nullptr);
  EXPECT_EQ(result.tree->Signature(), reference);

  ServiceMetrics metrics = service->Metrics();
  const uint64_t scans = metrics.shard_scans;
  ASSERT_GT(scans, 0u);
  EXPECT_EQ(metrics.shard_fallbacks, 0u);
  // Every shard of every scan died through both RPC attempts and was
  // recovered from its replica; the restart arithmetic is the middleware
  // test's, now surfaced through ServiceMetrics.
  EXPECT_EQ(metrics.shard_replica_rescans, 2 * scans);
  EXPECT_EQ(metrics.shard_rescans, 0u);
  EXPECT_EQ(metrics.shard_rpc_timeouts, 0u);
  EXPECT_EQ(metrics.shard_worker_restarts, 4 * scans - 1);
}

// ---------------------------------------------------------------------------
// Derived sibling tables over worker processes.
// ---------------------------------------------------------------------------

// A derived node's task reaches the worker process with only its counted
// attributes, possibly none. The grow matches one whose requests carry no
// parent table, also when a worker dies and the coordinator rescans its
// shard from the primary heap file.
TEST(DerivedSiblingGrowTest, SubprocessShardPassesDeriveAlike) {
  constexpr uint64_t kRows = 30000;
  TempDir dir;
  SqlServer server(dir.path());
  std::unique_ptr<CensusDataset> census;
  ASSERT_NO_FATAL_FAILURE(LoadCensus(&server, kRows, &census));
  ASSERT_TRUE(server.BuildShardSet("data", 2).ok());
  MiddlewareConfig config;
  config.staging_dir = dir.path();
  config.memory_budget_bytes = static_cast<size_t>(
      0.1 * static_cast<double>(kRows * census->schema().RowBytes()));
  config.parallel_scan_threads = 1;
  config.sharding.enable = true;
  config.sharding.min_node_rows = 1;
  config.sharding.transport = ShardTransportKind::kSubprocess;
  config.sharding.rpc_retry.max_attempts = 1;
  TreeClientConfig client_config;
  client_config.max_depth = 8;

  const GrowRecord grow = ExpectGrowsAlike(&server, census->schema(), kRows,
                                           config, client_config);
  const uint64_t scans = grow.stats.shard_scans.load();
  ASSERT_GT(scans, 1u);
  EXPECT_EQ(grow.stats.shard_worker_restarts.load(), 0u);
  EXPECT_GT(DerivedOnPath(grow, &ScanCounts::shard_scans), 0u);

  // Each grow's one worker process serves `scans` of its 2 x `scans`
  // tasks and dies after scanning the next; a fresh worker serves the
  // rest, fewer than it would take to die again.
  SCOPED_TRACE("a worker crash");
  const std::string spec =
      "shard/worker_crash,after:" + std::to_string(scans);
  EnvVarScope crash("SQLCLASS_CRASH_AT", spec.c_str());
  const GrowRecord faulted = ExpectGrowsAlike(&server, census->schema(),
                                              kRows, config, client_config);
  EXPECT_EQ(faulted.stats.shard_scans.load(), scans);
  EXPECT_EQ(faulted.stats.shard_rescans.load(), 1u);
  EXPECT_EQ(faulted.stats.shard_worker_restarts.load(), 1u);
  EXPECT_EQ(faulted.stats.shard_fallbacks.load(), 0u);
  EXPECT_GT(DerivedOnPath(faulted, &ScanCounts::shard_scans), 0u);
}

}  // namespace
}  // namespace sqlclass
