// Sharded shared-nothing scan-out (scheduler Rule 8): partitioner
// roundtrip, streaming == backfill byte-identity, corruption detection,
// tree byte-identity across shard and worker counts, cost invariance,
// per-fault-point recovery with counter reconciliation, shard-set
// invalidation on append, and service sessions through the coordinator.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injector.h"
#include "datagen/load.h"
#include "datagen/random_tree.h"
#include "middleware/middleware.h"
#include "middleware/shard_scan.h"
#include "mining/tree_client.h"
#include "server/server.h"
#include "service/service.h"
#include "shard/shard_map.h"
#include "storage/heap_file.h"
#include "test_env.h"
#include "test_util.h"

namespace sqlclass {
namespace {

using testing_util::EnvVarScope;
using testing_util::FaultScope;
using testing_util::MakeSchema;
using testing_util::RandomRows;
using testing_util::TempDir;

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// Writes `rows` into a fresh heap file at `path`.
void WriteHeap(const std::string& path, const Schema& schema,
               const std::vector<Row>& rows) {
  auto writer = HeapFileWriter::Create(path, schema.num_columns(), nullptr);
  ASSERT_TRUE(writer.ok());
  for (const Row& row : rows) ASSERT_TRUE((*writer)->Append(row).ok());
  ASSERT_TRUE((*writer)->Finish().ok());
}

// ---------------------------------------------------------------------------
// Partitioner and distribution map.
// ---------------------------------------------------------------------------

TEST(ShardMapTest, BackfillRoundtripVerifiesAndScans) {
  TempDir dir;
  Schema schema = MakeSchema({4, 3, 5}, 3);
  std::vector<Row> rows = RandomRows(schema, 523, 11);
  const std::string heap = dir.path() + "/t.heap";
  WriteHeap(heap, schema, rows);

  for (ShardScheme scheme :
       {ShardScheme::kRoundRobin, ShardScheme::kHashRowId}) {
    IoCounters io;
    auto routed = ShardSetWriter::BuildFromHeapFile(
        heap, schema.num_columns(), 4, scheme, &io);
    ASSERT_TRUE(routed.ok()) << routed.status().ToString();
    EXPECT_EQ(*routed, rows.size());
    EXPECT_GT(io.pages_written, 0u);

    auto reader = ShardMapReader::Open(ShardMapPathFor(heap), &io);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    EXPECT_EQ((*reader)->num_shards(), 4u);
    EXPECT_EQ((*reader)->num_columns(),
              static_cast<uint32_t>(schema.num_columns()));
    EXPECT_EQ((*reader)->scheme(), scheme);
    EXPECT_EQ((*reader)->total_rows(), rows.size());

    auto entries = (*reader)->ShardRows();
    ASSERT_TRUE(entries.ok()) << entries.status().ToString();
    uint64_t sum = 0;
    for (uint32_t s = 0; s < 4; ++s) {
      sum += (*entries)[s].rows;
      // Each shard heap file is an ordinary heap file with the mapped
      // number of rows.
      auto shard_reader = HeapFileReader::Open(
          ShardHeapPathFor(heap, s), schema.num_columns(), nullptr);
      ASSERT_TRUE(shard_reader.ok());
      EXPECT_EQ((*shard_reader)->num_rows(), (*entries)[s].rows);
    }
    EXPECT_EQ(sum, rows.size());

    EXPECT_TRUE(VerifyShardFiles(heap, ShardMapPathFor(heap), &io).ok());
    RemoveShardSetFiles(heap, 4);
    EXPECT_FALSE(std::filesystem::exists(ShardMapPathFor(heap)));
    EXPECT_FALSE(std::filesystem::exists(ShardHeapPathFor(heap, 0)));
  }
}

TEST(ShardMapTest, StreamingEqualsBackfillByteForByte) {
  TempDir dir;
  Schema schema = MakeSchema({5, 4}, 2);
  std::vector<Row> rows = RandomRows(schema, 301, 29);
  const std::string heap = dir.path() + "/t.heap";
  WriteHeap(heap, schema, rows);

  for (ShardScheme scheme :
       {ShardScheme::kRoundRobin, ShardScheme::kHashRowId}) {
    const uint32_t shards = 3;
    ASSERT_TRUE(ShardSetWriter::BuildFromHeapFile(heap, schema.num_columns(),
                                                  shards, scheme, nullptr)
                    .ok());
    std::vector<std::string> backfill_bytes;
    backfill_bytes.push_back(ReadFileBytes(ShardMapPathFor(heap)));
    for (uint32_t s = 0; s < shards; ++s) {
      backfill_bytes.push_back(ReadFileBytes(ShardHeapPathFor(heap, s)));
    }
    RemoveShardSetFiles(heap, shards);

    // Streaming build from the same row stream must produce byte-identical
    // files: routing keys on the row ordinal in both paths.
    ShardSetWriter writer(heap, schema.num_columns(), shards, scheme);
    ASSERT_TRUE(writer.Open(nullptr).ok());
    for (const Row& row : rows) ASSERT_TRUE(writer.AddRow(row).ok());
    EXPECT_EQ(writer.rows_routed(), rows.size());
    ASSERT_TRUE(writer.Finish().ok());

    EXPECT_EQ(ReadFileBytes(ShardMapPathFor(heap)), backfill_bytes[0]);
    for (uint32_t s = 0; s < shards; ++s) {
      EXPECT_EQ(ReadFileBytes(ShardHeapPathFor(heap, s)),
                backfill_bytes[s + 1])
          << "shard " << s;
    }
    RemoveShardSetFiles(heap, shards);
  }
}

TEST(ShardMapTest, CorruptionSurfacesAsDataLoss) {
  TempDir dir;
  Schema schema = MakeSchema({3, 3}, 2);
  std::vector<Row> rows = RandomRows(schema, 120, 3);
  const std::string heap = dir.path() + "/t.heap";
  WriteHeap(heap, schema, rows);
  ASSERT_TRUE(ShardSetWriter::BuildFromHeapFile(heap, schema.num_columns(), 2,
                                                ShardScheme::kHashRowId,
                                                nullptr)
                  .ok());
  const std::string map_path = ShardMapPathFor(heap);
  const std::string pristine = ReadFileBytes(map_path);

  auto corrupt_at = [&](size_t offset) {
    std::string bytes = pristine;
    bytes[offset] ^= 0x5a;
    std::ofstream out(map_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };

  // Header byte (total_rows field — decoded, never plausibility-checked):
  // Open fails the header checksum.
  corrupt_at(25);
  EXPECT_EQ(ShardMapReader::Open(map_path, nullptr).status().code(),
            StatusCode::kDataLoss);

  // Payload byte: Open succeeds, the lazy entry load fails.
  corrupt_at(pristine.size() - 2);
  auto reader = ShardMapReader::Open(map_path, nullptr);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->ShardRows().status().code(), StatusCode::kDataLoss);

  // A doctored shard heap file fails verification.
  std::ofstream(map_path, std::ios::binary | std::ios::trunc)
      .write(pristine.data(), static_cast<std::streamsize>(pristine.size()));
  {
    std::ofstream shard(ShardHeapPathFor(heap, 1),
                        std::ios::binary | std::ios::app);
    shard << "x";
  }
  EXPECT_EQ(VerifyShardFiles(heap, map_path, nullptr).code(),
            StatusCode::kDataLoss);
}

TEST(ShardMapTest, ShardForRowIsDeterministicAndInRange) {
  for (uint64_t r = 0; r < 64; ++r) {
    EXPECT_EQ(ShardForRow(ShardScheme::kRoundRobin, r, 8), r % 8);
    const uint32_t h = ShardForRow(ShardScheme::kHashRowId, r, 8);
    EXPECT_LT(h, 8u);
    EXPECT_EQ(h, ShardForRow(ShardScheme::kHashRowId, r, 8));
  }
  // One shard degenerates to "everything".
  EXPECT_EQ(ShardForRow(ShardScheme::kHashRowId, 12345, 1), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end middleware behaviour.
// ---------------------------------------------------------------------------

class MiddlewareShardTest : public ::testing::Test {
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

  MiddlewareConfig Config(bool shards_on, int workers = 1) {
    MiddlewareConfig config;
    config.staging_dir = staging_;
    config.scan_retry.initial_backoff_us = 0;
    config.sharding.enable = shards_on;
    config.parallel_scan_threads = workers;
    config.sharding.min_node_rows = 1;  // route every level through Rule 8
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

  void RebuildShardSet(uint32_t shards) {
    if (server_->HasShardSet("data")) {
      ASSERT_TRUE(server_->DropShardSet("data").ok());
    }
    ASSERT_TRUE(server_->BuildShardSet("data", shards).ok());
  }

  TempDir dir_;
  std::unique_ptr<RandomTreeDataset> dataset_;
  std::unique_ptr<SqlServer> server_;
  std::string staging_;
};

TEST_F(MiddlewareShardTest, DisabledOrAbsentPathsAreByteIdentical) {
  GrowOutput baseline = Grow(Config(false));
  ASSERT_FALSE(baseline.tree.empty());

  // Knob on but no shard set built: nothing may change.
  GrowOutput without = Grow(Config(true));
  EXPECT_EQ(without.tree, baseline.tree);
  EXPECT_EQ(without.stats.shard_scans.load(), 0u);

  RebuildShardSet(4);

  // Shard set present but knob off.
  GrowOutput knob_off = Grow(Config(false));
  EXPECT_EQ(knob_off.tree, baseline.tree);
  EXPECT_EQ(knob_off.stats.shard_scans.load(), 0u);

  // Knob on, env kill-switch thrown.
  EnvVarScope env("SQLCLASS_SHARDS", "0");
  GrowOutput env_off = Grow(Config(true));
  EXPECT_EQ(env_off.tree, baseline.tree);
  EXPECT_EQ(env_off.stats.shard_scans.load(), 0u);
}

TEST_F(MiddlewareShardTest, MinNodeRowsKeepsSmallNodesOffTheShards) {
  RebuildShardSet(4);
  GrowOutput baseline = Grow(Config(false));
  MiddlewareConfig config = Config(true);
  config.sharding.min_node_rows = dataset_->TotalRows() + 1;
  GrowOutput out = Grow(config);
  EXPECT_EQ(out.tree, baseline.tree);
  EXPECT_EQ(out.stats.shard_scans.load(), 0u);
}

TEST_F(MiddlewareShardTest, TreeByteIdenticalAndCostInvariantAcrossGrid) {
  // References: unsharded serial and unsharded morsel-parallel paths.
  GrowOutput serial = Grow(Config(false));
  ASSERT_FALSE(serial.tree.empty());
  {
    MiddlewareConfig parallel = Config(false);
    parallel.parallel_scan_threads = 3;
    GrowOutput out = Grow(parallel);
    EXPECT_EQ(out.tree, serial.tree) << "parallel row-scan reference";
  }

  double sharded_sim = -1;
  for (uint32_t shards : {1u, 2u, 4u, 8u}) {
    RebuildShardSet(shards);
    for (int workers : {1, 2}) {
      GrowOutput out = Grow(Config(true, workers));
      EXPECT_EQ(out.tree, serial.tree)
          << shards << " shards, " << workers << " workers";
      EXPECT_GT(out.stats.shard_scans.load(), 0u);
      EXPECT_EQ(out.stats.shard_fallbacks.load(), 0u);
      EXPECT_EQ(out.stats.shard_rescans.load(), 0u);

      // Simulated cost may not see shard or worker count.
      if (sharded_sim < 0) {
        sharded_sim = out.simulated_seconds;
      } else {
        EXPECT_DOUBLE_EQ(out.simulated_seconds, sharded_sim)
            << shards << " shards, " << workers << " workers";
      }

      // Trace reconciliation: every served batch is on record.
      uint64_t served = 0;
      for (const auto& trace : out.trace) {
        if (trace.served_from_shards) {
          ++served;
          EXPECT_GT(trace.rows_scanned, 0u);
          EXPECT_EQ(trace.counts.shard_fallbacks, 0u);
        }
      }
      EXPECT_EQ(served, out.stats.shard_scans.load());
    }
  }
}

TEST_F(MiddlewareShardTest, PersistentFaultsFallBackByteIdentically) {
  GrowOutput baseline = Grow(Config(false));
  RebuildShardSet(4);

  // shard/open and shard/read kill the pass before any shard result exists,
  // so the whole batch degrades to the row scan. (shard/worker is different:
  // a dead worker is a dead shard, recovered in place by the primary rescan —
  // see DeadShardIsRescannedFromThePrimary.)
  for (const char* point : {faults::kShardOpen, faults::kShardRead}) {
    FaultScope guard;
    FaultInjector::PointConfig fault;  // unbounded: every crossing fails
    FaultInjector::Global().Arm(point, fault);
    GrowOutput out = Grow(Config(true));
    FaultInjector::Global().Reset();

    EXPECT_EQ(out.tree, baseline.tree) << point;
    EXPECT_GT(out.stats.shard_fallbacks.load(), 0u) << point;
    uint64_t fallbacks = 0;
    bool served_after_fallback_batch = false;
    for (const auto& trace : out.trace) {
      if (trace.counts.shard_fallbacks > 0) {
        ++fallbacks;
        // The batch was re-serviced by the row-scan path in the same pass.
        EXPECT_FALSE(trace.served_from_shards) << point;
        served_after_fallback_batch = true;
      }
    }
    EXPECT_TRUE(served_after_fallback_batch) << point;
    EXPECT_EQ(fallbacks, out.stats.shard_fallbacks.load()) << point;
  }
}

TEST_F(MiddlewareShardTest, AllWorkersDeadStillServesViaPrimaryRescans) {
  GrowOutput baseline = Grow(Config(false));
  RebuildShardSet(4);

  FaultScope guard;
  FaultInjector::PointConfig fault;  // unbounded: every dispatch fails
  FaultInjector::Global().Arm(faults::kShardWorker, fault);
  GrowOutput out = Grow(Config(true));
  FaultInjector::Global().Reset();

  // Every shard of every batch was recovered from the primary heap file —
  // the pass still completes, still byte-identical, never falls back.
  EXPECT_EQ(out.tree, baseline.tree);
  EXPECT_EQ(out.stats.shard_fallbacks.load(), 0u);
  EXPECT_GT(out.stats.shard_scans.load(), 0u);
  EXPECT_EQ(out.stats.shard_rescans.load(),
            4 * out.stats.shard_scans.load());
  uint64_t traced = 0;
  for (const auto& trace : out.trace) {
    traced += trace.counts.shard_rescans;
  }
  EXPECT_EQ(traced, out.stats.shard_rescans.load());
}

TEST_F(MiddlewareShardTest, DeadShardIsRescannedFromThePrimary) {
  GrowOutput baseline = Grow(Config(false));
  RebuildShardSet(4);

  FaultScope guard;
  FaultInjector::PointConfig fault;
  fault.times = 1;  // exactly one worker dispatch fails
  FaultInjector::Global().Arm(faults::kShardWorker, fault);
  GrowOutput out = Grow(Config(true));
  FaultInjector::Global().Reset();

  // The dead shard's rows came back from the primary heap file: same tree,
  // no fallback, one rescan on record in both stats and trace.
  EXPECT_EQ(out.tree, baseline.tree);
  EXPECT_EQ(out.stats.shard_fallbacks.load(), 0u);
  EXPECT_EQ(out.stats.shard_rescans.load(), 1u);
  uint64_t rescans = 0;
  for (const auto& trace : out.trace) rescans += trace.counts.shard_rescans;
  EXPECT_EQ(rescans, 1u);
}

TEST_F(MiddlewareShardTest, TransientReadFaultRecoversViaRescan) {
  GrowOutput baseline = Grow(Config(false));
  RebuildShardSet(2);

  FaultScope guard;
  FaultInjector::PointConfig fault;
  fault.after = 1;  // let the coordinator's map read through
  fault.times = 1;  // then one shard heap read fails
  FaultInjector::Global().Arm(faults::kShardRead, fault);
  GrowOutput out = Grow(Config(true));
  FaultInjector::Global().Reset();

  EXPECT_EQ(out.tree, baseline.tree);
  // Either the dead shard was rescanned in place or (if the fault landed on
  // the map itself) the batch fell back — both end byte-identical.
  EXPECT_GT(out.stats.shard_rescans.load() + out.stats.shard_fallbacks.load(),
            0u);
}

TEST_F(MiddlewareShardTest, AppendInvalidatesShardSetUntilRebuilt) {
  RebuildShardSet(4);
  ASSERT_TRUE(server_->HasShardSet("data"));

  // Appending rows makes the distribution map stale; serving it would
  // silently undercount. The server must drop it, not serve it.
  std::vector<Row> extra = RandomRows(dataset_->schema(), 64, 99);
  ASSERT_TRUE(server_->AppendRows("data", extra).ok());
  EXPECT_FALSE(server_->HasShardSet("data"));
  EXPECT_FALSE(std::filesystem::exists(
      ShardMapPathFor(*server_->TableHeapPath("data"))));

  const uint64_t total = dataset_->TotalRows() + extra.size();
  auto grow = [&](const MiddlewareConfig& config) {
    server_->ResetCostCounters();
    auto mw = ClassificationMiddleware::Create(server_.get(), "data", config);
    EXPECT_TRUE(mw.ok());
    DecisionTreeClient client(dataset_->schema(), TreeClientConfig());
    auto tree = client.Grow(mw->get(), total);
    EXPECT_TRUE(tree.ok()) << tree.status().ToString();
    return std::make_pair(tree.ok() ? tree->ToString(1 << 20) : "",
                          ClassificationMiddleware::Stats((*mw)->stats()));
  };

  // Sharding requested but the stale set is gone: the exact row-scan path
  // serves the appended table.
  auto [baseline_tree, baseline_stats] = grow(Config(false));
  auto [stale_tree, stale_stats] = grow(Config(true));
  EXPECT_EQ(stale_tree, baseline_tree);
  EXPECT_EQ(stale_stats.shard_scans.load(), 0u);

  // An explicit rebuild covers the appended rows and routes again.
  ASSERT_TRUE(server_->BuildShardSet("data", 4).ok());
  ASSERT_TRUE(VerifyShardFiles(*server_->TableHeapPath("data"),
                               *server_->ShardSetPath("data"), nullptr)
                  .ok());
  auto [rebuilt_tree, rebuilt_stats] = grow(Config(true));
  EXPECT_EQ(rebuilt_tree, baseline_tree);
  EXPECT_GT(rebuilt_stats.shard_scans.load(), 0u);

  // DropTable removes the shard set files with the table.
  const std::string heap = *server_->TableHeapPath("data");
  ASSERT_TRUE(server_->DropTable("data").ok());
  EXPECT_FALSE(std::filesystem::exists(ShardMapPathFor(heap)));
}

// ---------------------------------------------------------------------------
// Service sessions through the coordinator.
// ---------------------------------------------------------------------------

class ServiceShardTest : public ::testing::Test {
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

  std::unique_ptr<ClassificationService> MakeService(ServiceConfig config,
                                                     uint32_t shards) {
    auto service = ClassificationService::Create(dir_.path(), config);
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    EXPECT_TRUE((*service)->CreateAndLoadTable("data", schema_, rows_).ok());
    if (shards > 0) {
      MutexLock lock(*(*service)->server_mutex());
      EXPECT_TRUE((*service)->server()->BuildShardSet("data", shards).ok());
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

  static ServiceConfig ShardedConfig() {
    ServiceConfig config;
    config.sharding.enable = true;
    config.sharding.min_node_rows = 1;
    config.scan_retry.initial_backoff_us = 0;
    return config;
  }

  TempDir dir_;
  Schema schema_;
  std::vector<Row> rows_;
};

TEST_F(ServiceShardTest, SessionsServedFromShardsMatchUnshardedService) {
  const std::string reference = ReferenceSignature();
  ASSERT_FALSE(reference.empty());

  auto service = MakeService(ShardedConfig(), /*shards=*/4);
  std::vector<SessionId> ids;
  for (int i = 0; i < 3; ++i) {
    auto id = service->Submit(TreeSpec());
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  for (SessionId id : ids) {
    SessionResult result = service->Wait(id);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    ASSERT_NE(result.tree, nullptr);
    EXPECT_EQ(result.tree->Signature(), reference);
    // Riders are credited a share of the shard-metered work.
    EXPECT_GT(result.cost.mw_shard_rows_read + result.cost.mw_shard_merge_cells,
              0u);
  }
  ServiceMetrics metrics = service->Metrics();
  EXPECT_GT(metrics.shard_scans, 0u);
  EXPECT_EQ(metrics.shard_fallbacks, 0u);
}

TEST_F(ServiceShardTest, ShardFaultDegradesToRowScanByteIdentically) {
  const std::string reference = ReferenceSignature();
  FaultScope guard;
  auto service = MakeService(ShardedConfig(), /*shards=*/2);

  FaultInjector::PointConfig fault;  // every map open fails
  FaultInjector::Global().Arm(faults::kShardOpen, fault);
  SessionResult result = service->Run(TreeSpec());
  FaultInjector::Global().Reset();

  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  ASSERT_NE(result.tree, nullptr);
  EXPECT_EQ(result.tree->Signature(), reference);
  ServiceMetrics metrics = service->Metrics();
  EXPECT_EQ(metrics.shard_scans, 0u);
  EXPECT_GT(metrics.shard_fallbacks, 0u);
}

}  // namespace
}  // namespace sqlclass
