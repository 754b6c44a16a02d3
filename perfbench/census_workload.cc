// The three census workloads: the same 1M-row table, tree shape and
// middleware config, served by the row-scan/staging path (census_scan), by
// bitmap AND + popcount (census_bitmap, Rule 0) or by the in-process shard
// fan-out (census_sharded, Rule 8).

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "datagen/census.h"
#include "datagen/load.h"
#include "middleware/middleware.h"
#include "mining/tree_client.h"
#include "probes.h"
#include "server/server.h"
#include "workloads.h"

namespace perfbench {

using namespace sqlclass;

namespace {

constexpr uint64_t kCensusRows = 1'000'000;
// The seed samples kCensusRows rows out of a fixed census population; at
// this size the sample always fills up.
constexpr uint64_t kPopulationRows = 1'300'000;
constexpr double kKeep = 0.8;
constexpr int kMaxDepth = 8;
constexpr double kMemoryOverData = 0.1;
constexpr uint32_t kShards = 4;
constexpr char kTable[] = "census";

enum class Variant { kScan, kBitmap, kSharded };

const char* PathName(const ClassificationMiddleware::BatchTrace& batch) {
  if (batch.served_from_shards) return "shard";
  if (batch.served_from_bitmap) return "bitmap";
  if (batch.served_from_sample) return "sample";
  switch (batch.source.kind) {
    case LocationKind::kServer:
      return "server";
    case LocationKind::kFile:
      return "file";
    case LocationKind::kMemory:
      return "memory";
  }
  return "unknown";
}

/// CcProvider decorator that records one span per call into the
/// middleware, tagged with the path that served each FulfillSome.
class TracingProvider : public CcProvider {
 public:
  TracingProvider(ClassificationMiddleware* inner, SpanLog* log, int parent)
      : inner_(inner), log_(log), parent_(parent) {}

  Status QueueRequest(CcRequest request) override {
    const int id = log_->Begin("queue", parent_);
    Status status = inner_->QueueRequest(std::move(request));
    log_->End(id).nodes = 1;
    return status;
  }

  StatusOr<std::vector<CcResult>> FulfillSome() override {
    const size_t before = inner_->trace().size();
    const int id = log_->Begin("fulfill", parent_);
    auto results = inner_->FulfillSome();
    SpanLog::Span& span = log_->End(id);
    const auto& trace = inner_->trace();
    for (size_t i = before; i < trace.size(); ++i) {
      if (i == before) span.path = PathName(trace[i]);
      ++span.batches;
      span.nodes += static_cast<uint64_t>(trace[i].nodes);
      span.rows += trace[i].rows_scanned;
    }
    return results;
  }

  void ReleaseNode(int node_id) override {
    const int id = log_->Begin("release", parent_);
    inner_->ReleaseNode(node_id);
    log_->End(id);
  }

  size_t PendingRequests() const override { return inner_->PendingRequests(); }

 private:
  ClassificationMiddleware* inner_;
  SpanLog* log_;
  int parent_;
};

using Fields = std::vector<std::pair<const char*, uint64_t>>;

/// What one grow did inside the middleware, read after it ended.
struct LayerRecord {
  Fields fields;
  IoCounters io;
  Fields faults;  // recovery counters of a fault-free run; all must be 0
};

LayerRecord ReadLayers(ClassificationMiddleware* mw,
                       const DecisionTreeClient& client,
                       const IoCounters& server_io) {
  const ClassificationMiddleware::Stats& s = mw->stats();
  uint64_t rows_server = 0, rows_file = 0, rows_memory = 0;
  for (const auto& batch : mw->trace()) {
    const std::string path = PathName(batch);
    if (path == "server") rows_server += batch.rows_scanned;
    if (path == "file") rows_file += batch.rows_scanned;
    if (path == "memory") rows_memory += batch.rows_scanned;
  }
  LayerRecord record;
  record.fields = {
      {"requests", client.requests_issued()},
      {"rounds", client.rounds()},
      {"batches", s.batches.load()},
      {"rows_server", rows_server},
      {"rows_file", rows_file},
      {"rows_memory", rows_memory},
      {"staged_files", static_cast<uint64_t>(mw->staging().files_created())},
      {"memory_stores",
       static_cast<uint64_t>(mw->staging().memory_stores_created())},
      {"file_splits", s.file_splits.load()},
      {"stores_evicted", s.stores_evicted.load()},
      {"fallbacks", s.sql_fallbacks.load() + s.bitmap_fallbacks.load() +
                        s.shard_fallbacks.load() + s.sample_fallbacks.load()},
      {"scan_retries", s.scan_retries.load()},
  };
  // StagingManager exposes its I/O counters through a non-const accessor
  // only; the middleware owns it non-const and the grow has finished.
  record.io = const_cast<StagingManager&>(mw->staging()).io_counters();
  record.io.Add(server_io);
  record.faults = {
      {"sql_fallbacks", s.sql_fallbacks.load()},
      {"bitmap_fallbacks", s.bitmap_fallbacks.load()},
      {"shard_fallbacks", s.shard_fallbacks.load()},
      {"sample_fallbacks", s.sample_fallbacks.load()},
      {"scan_retries", s.scan_retries.load()},
      {"degraded_scans", s.degraded_scans.load()},
      {"stores_invalidated", s.stores_invalidated.load()},
      {"staging_aborts", s.staging_aborts.load()},
      {"checksum_failures", s.checksum_failures.load()},
      {"shard_rescans", s.shard_rescans.load()},
      {"shard_replica_rescans", s.shard_replica_rescans.load()},
      {"shard_rpc_timeouts", s.shard_rpc_timeouts.load()},
      {"shard_worker_restarts", s.shard_worker_restarts.load()},
  };
  return record;
}

void WriteFields(JsonWriter* json, const Fields& fields) {
  for (const auto& [name, value] : fields) {
    json->Key(name);
    json->Int(value);
  }
}

void WriteLayers(JsonWriter* json, const std::vector<LayerRecord>& records) {
  json->BeginArray();
  for (const LayerRecord& record : records) {
    json->BeginObject();
    WriteFields(json, record.fields);
    json->Key("io");
    WriteIo(json, record.io);
    json->Key("faults");
    json->BeginObject();
    WriteFields(json, record.faults);
    json->EndObject();
    json->EndObject();
  }
  json->EndArray();
}

struct CensusRun {
  SqlServer* server;
  const Schema* schema;
  MiddlewareConfig config;
  TreeClientConfig client_config;
  SpanLog spans;
  std::vector<LayerRecord> layers;  // one per grow, warm-up first
};

/// One grow through a fresh middleware; appends the grow's layer summary.
/// With `traced`, every provider call is recorded under a "grow" span.
OpRecord Grow(CensusRun* run, const MiddlewareConfig& config, bool traced) {
  OpRecord op;
  op.kind = "grow";
  op.traced = traced;
  SqlServer* server = run->server;
  server->ResetCostCounters();
  const IoCounters io_before = server->io_counters();

  const uint64_t start = NowNs();
  const int grow_span = traced ? run->spans.Begin("grow", -1) : -1;
  auto mw = ClassificationMiddleware::Create(server, kTable, config);
  CheckOk(mw.status(), "middleware create");
  DecisionTreeClient client(*run->schema, run->client_config);
  auto grow = [&]() -> StatusOr<DecisionTree> {
    if (!traced) return client.Grow(mw->get(), kCensusRows);
    TracingProvider provider(mw->get(), &run->spans, grow_span);
    auto grown = client.Grow(&provider, kCensusRows);
    run->spans.End(grow_span);
    return grown;
  };
  StatusOr<DecisionTree> tree = grow();
  op.wall_ns = NowNs() - start;

  op.ok = tree.ok();
  if (!tree.ok()) {
    std::fprintf(stderr, "perfbench: grow failed: %s\n",
                 tree.status().ToString().c_str());
    return op;
  }
  op.sim_s = server->SimulatedSeconds();
  op.cost = server->cost_counters();
  op.hash = HashHex(tree->Signature());
  op.requests = client.requests_issued();
  run->layers.push_back(ReadLayers(mw->get(), client,
                                   IoDelta(server->io_counters(), io_before)));
  return op;
}

}  // namespace

void RunCensus(const Options& options, JsonWriter* json) {
  Variant variant;
  if (options.workload == "census_scan") {
    variant = Variant::kScan;
  } else if (options.workload == "census_bitmap") {
    variant = Variant::kBitmap;
  } else {
    variant = Variant::kSharded;
  }

  CensusParams params;  // default segment profiles and population seed
  params.rows = kPopulationRows;

  // Set-up: generate and load the table, then build the workload's derived
  // artifact. Repeated kSetupReps times into fresh directories; the last
  // server is the one measured.
  std::vector<SetupTiming> setups;
  std::unique_ptr<SqlServer> server;
  std::unique_ptr<CensusDataset> dataset;
  std::string server_dir;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    StartOnCpu(rep);
    server.reset();
    if (!server_dir.empty()) std::filesystem::remove_all(server_dir);
    server_dir = options.work_dir + "/census-" + std::to_string(rep);
    std::filesystem::create_directories(server_dir);

    SetupTiming timing;
    uint64_t start = NowNs();
    auto created = CensusDataset::Create(params);
    CheckOk(created.status(), "census dataset");
    dataset = std::move(created).value();
    server = std::make_unique<SqlServer>(server_dir);
    uint64_t kept = 0;
    CheckOk(LoadIntoServer(server.get(), kTable, dataset->schema(),
                           [&](const RowSink& sink) {
                             return dataset->Generate(SampleOf(
                                 sink, options.seed, kKeep, kCensusRows, &kept));
                           }),
            "census load");
    CheckOk(kept == kCensusRows ? Status::OK()
                                : Status::Internal("population too small"),
            "census sample");
    timing.load_ns = NowNs() - start;
    if (variant == Variant::kBitmap) {
      start = NowNs();
      CheckOk(server->BuildBitmapIndex(kTable), "bitmap build");
      timing.bitmap_build_ns = NowNs() - start;
    }
    if (variant == Variant::kSharded) {
      start = NowNs();
      CheckOk(server->BuildShardSet(kTable, kShards), "shard build");
      timing.shard_build_ns = NowNs() - start;
    }
    setups.push_back(timing);
  }
  const Schema& schema = dataset->schema();

  const std::string staging_dir = options.work_dir + "/staging";
  std::filesystem::create_directories(staging_dir);
  CensusRun run;
  run.server = server.get();
  run.schema = &schema;
  run.config.memory_budget_bytes = static_cast<size_t>(
      kMemoryOverData * static_cast<double>(kCensusRows * schema.RowBytes()));
  run.config.staging_dir = staging_dir;
  if (variant == Variant::kSharded) {
    run.config.sharding.enable = true;
    run.config.sharding.transport = ShardTransportKind::kInProcess;
  }
  run.client_config.max_depth = kMaxDepth;

  // The first grow opens files and warms caches (the sharded path's first
  // grow is markedly slower); it is checked but not timed.
  const OpRecord warmup = Grow(&run, run.config, false);

  // Timed closed loop. The traced run alternates traced and untraced grows
  // so the two medians give the tracing overhead under the same conditions.
  const int min_grows = options.trace ? 4 : 3;
  std::vector<OpRecord> ops;
  const uint64_t deadline =
      NowNs() + static_cast<uint64_t>(options.seconds * 1e9);
  while (static_cast<int>(ops.size()) < min_grows || NowNs() < deadline) {
    // A traced grow starts on the same CPU as the untraced one before it.
    StartOnCpu(static_cast<int>(options.trace ? ops.size() / 2 : ops.size()));
    const bool traced = options.trace && ops.size() % 2 == 1;
    ops.push_back(Grow(&run, run.config, traced));
  }
  const double peak_rss_mb = PeakRssMb();

  // Model-equivalence reference: the plain row-scan path over the same
  // table. census_scan is that path itself and is compared across runs.
  std::string reference_hash;
  if (variant != Variant::kScan) {
    MiddlewareConfig row_config = run.config;
    row_config.use_bitmap_index = false;
    row_config.sharding.enable = false;
    reference_hash = Grow(&run, row_config, false).hash;
    run.layers.pop_back();  // describes the reference path, not the workload
  }

  json->Key("rows");
  json->Int(kCensusRows);
  json->Key("data_mb");
  json->Double(static_cast<double>(kCensusRows * schema.RowBytes()) /
               (1024.0 * 1024.0));
  json->Key("memory_budget_bytes");
  json->Int(run.config.memory_budget_bytes);
  json->Key("max_depth");
  json->Int(kMaxDepth);
  json->Key("setups");
  WriteSetups(json, setups);
  json->Key("warmup");
  WriteOps(json, {warmup});
  json->Key("ops");
  WriteOps(json, ops);
  json->Key("reference_hash");
  json->String(reference_hash);
  json->Key("peak_rss_mb");
  json->Double(peak_rss_mb);
  json->Key("layers");
  WriteLayers(json, run.layers);
  if (options.trace) {
    json->Key("spans");
    run.spans.Write(json);
    json->Key("probes");
    RunProbes(server.get(), kTable, json);
  }
  server.reset();
  std::filesystem::remove_all(server_dir);
}

}  // namespace perfbench
