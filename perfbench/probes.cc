#include "probes.h"

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "middleware/batch_matcher.h"
#include "middleware/bitmap_scan.h"
#include "middleware/parallel_scan.h"
#include "middleware/shard_scan.h"
#include "mining/cc_table.h"
#include "storage/bitmap/bitmap_index.h"

namespace perfbench {

using namespace sqlclass;

namespace {

constexpr int kProbeReps = 3;
constexpr uint32_t kShards = 4;

void WriteNs(JsonWriter* json, const char* key,
             const std::vector<uint64_t>& ns) {
  json->Key(key);
  json->BeginArray();
  for (uint64_t v : ns) json->Int(v);
  json->EndArray();
}

}  // namespace

void RunProbes(SqlServer* server, const std::string& table, JsonWriter* json) {
  auto schema_or = server->GetSchema(table);
  CheckOk(schema_or.status(), "probe schema");
  const Schema& schema = *schema_or.value();
  const int num_columns = schema.num_columns();
  const int class_column = schema.class_column();
  const int num_classes = schema.attribute(class_column).cardinality;
  const std::vector<int> attrs = schema.PredictorColumns();
  const int max_threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));

  // ServerCursor::Next over the whole table; the first pass also keeps the
  // decoded rows for the AddRow probe.
  std::vector<Value> decoded;
  uint64_t rows = 0;
  std::vector<uint64_t> cursor_ns;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    const uint64_t start = NowNs();
    auto cursor = server->OpenCursor(table, nullptr);
    CheckOk(cursor.status(), "probe cursor open");
    Row row;
    uint64_t n = 0;
    while (true) {
      auto more = (*cursor)->Next(&row);
      CheckOk(more.status(), "probe cursor next");
      if (!more.value()) break;
      ++n;
      if (rep == 0) decoded.insert(decoded.end(), row.begin(), row.end());
    }
    cursor_ns.push_back(NowNs() - start);
    rows = n;
  }

  // CcTable::AddRow over the decoded rows: the root node's CC table.
  std::vector<uint64_t> add_ns;
  CcTable reference(num_classes);
  for (int rep = 0; rep < kProbeReps; ++rep) {
    CcTable cc(num_classes);
    const uint64_t start = NowNs();
    for (uint64_t i = 0; i < rows; ++i) {
      cc.AddRow(decoded.data() + i * num_columns, attrs, class_column);
    }
    add_ns.push_back(NowNs() - start);
    if (rep == 0) reference = std::move(cc);
  }
  decoded = std::vector<Value>();

  bool agree = true;

  // ParallelCountScan::OverHeapFile, charged like a server batch.
  auto heap_path = server->TableHeapPath(table);
  CheckOk(heap_path.status(), "probe heap path");
  const std::vector<const Expr*> predicates = {nullptr};
  BatchMatcher matcher(predicates);
  ParallelScanOptions options;
  options.class_column = class_column;
  options.num_classes = num_classes;
  options.matcher = &matcher;
  options.node_attrs = {&attrs};
  options.charge.server_row_evaluated = true;
  options.charge.cursor_transfer = true;
  auto time_parallel = [&](int threads) {
    ThreadPool pool(threads);
    std::vector<uint64_t> ns;
    for (int rep = 0; rep < kProbeReps; ++rep) {
      CostCounters cost;
      IoCounters io;
      const uint64_t start = NowNs();
      auto result = ParallelCountScan::OverHeapFile(
          &pool, heap_path.value(), num_columns, options, &cost, &io);
      ns.push_back(NowNs() - start);
      CheckOk(result.status(), "probe parallel scan");
      agree = agree && result->ccs.size() == 1 && result->ccs[0] == reference;
    }
    return ns;
  };
  const std::vector<uint64_t> parallel_t1_ns = time_parallel(1);
  const std::vector<uint64_t> parallel_tmax_ns = time_parallel(max_threads);

  // BitmapCountScan::Run for the root node, on a freshly opened reader so
  // each pass loads its bitmaps from disk as a grow's first batch does.
  if (!server->HasBitmapIndex(table)) {
    CheckOk(server->BuildBitmapIndex(table), "probe bitmap build");
  }
  auto bitmap_path = server->BitmapIndexPath(table);
  CheckOk(bitmap_path.status(), "probe bitmap path");
  std::vector<uint64_t> bitmap_ns;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    CostCounters cost;
    IoCounters io;
    CcTable cc(num_classes);
    const uint64_t start = NowNs();
    auto reader = BitmapIndexReader::Open(bitmap_path.value(), &io);
    CheckOk(reader.status(), "probe bitmap open");
    std::vector<BitmapCountScan::Node> nodes(1);
    nodes[0].active_attrs = &attrs;
    nodes[0].cc = &cc;
    CheckOk(BitmapCountScan::Run(reader->get(), schema, &nodes, &cost),
            "probe bitmap scan");
    bitmap_ns.push_back(NowNs() - start);
    agree = agree && cc == reference;
  }

  // ShardCoordinator::Run for the root node over the in-process transport.
  if (!server->HasShardSet(table)) {
    CheckOk(server->BuildShardSet(table, kShards), "probe shard build");
  }
  std::vector<uint64_t> shard_ns;
  {
    ThreadPool pool(max_threads);
    InProcessShardTransport transport;
    for (int rep = 0; rep < kProbeReps; ++rep) {
      CostCounters cost;
      IoCounters io;
      CcTable cc(num_classes);
      const uint64_t start = NowNs();
      auto coordinator =
          ShardCoordinator::Open(heap_path.value(), schema, &io);
      CheckOk(coordinator.status(), "probe shard open");
      std::vector<ShardCoordinator::Node> nodes(1);
      nodes[0].active_attrs = &attrs;
      nodes[0].cc = &cc;
      ShardCoordinator::Result result;
      CheckOk((*coordinator)->Run(&pool, &transport, &nodes, &cost, &result),
              "probe shard scan");
      shard_ns.push_back(NowNs() - start);
      agree = agree && cc == reference;
    }
  }

  json->BeginObject();
  json->Key("rows");
  json->Int(rows);
  json->Key("max_threads");
  json->Int(static_cast<uint64_t>(max_threads));
  WriteNs(json, "cursor_ns", cursor_ns);
  WriteNs(json, "add_row_ns", add_ns);
  WriteNs(json, "parallel_t1_ns", parallel_t1_ns);
  WriteNs(json, "parallel_tmax_ns", parallel_tmax_ns);
  WriteNs(json, "bitmap_root_ns", bitmap_ns);
  WriteNs(json, "shard_root_ns", shard_ns);
  json->Key("root_cc_agree");
  json->Bool(agree);
  json->EndObject();
}

}  // namespace perfbench
