// Morsel-parallel counting scan: wall-clock speedup over the serial scan at
// fixed logical cost. A rows x threads grid scans one heap file through
// ParallelCountScan with a mixed-depth frontier, verifying along the way
// that every configuration produces CC tables identical to the 1-thread run
// (the determinism contract) and identical simulated seconds (the cost
// model cannot see thread count — only wall time moves).
//
// A second grid grows a depth-4 tree through the middleware with staging on
// and a CC-memory budget tight enough to evict nodes mid-scan, so staged
// and bounded batches fan out too; every cell must match the 1-thread grow's
// tree, cost counters and eviction counts. Under --smoke the one staged
// cell takes its worker count from SQLCLASS_PARALLEL_SCAN_THREADS, which
// scripts/check_determinism.sh sets to 1 and then 4 before diffing dumps.
//
// Flags:
//   --smoke        tiny grid for the `perf`-labeled ctest smoke run
//   --dump=FILE    also write the results as JSON (BENCH_parallel_scan.json)

#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "middleware/batch_matcher.h"
#include "middleware/middleware.h"
#include "middleware/parallel_scan.h"
#include "mining/tree_client.h"
#include "server/server.h"
#include "storage/heap_file.h"

using namespace sqlclass;
using namespace sqlclass::bench;

namespace {

constexpr int kNumAttrs = 8;
constexpr int kCardinality = 8;
constexpr int kNumClasses = 3;

Schema MakeBenchSchema() {
  std::vector<AttributeDef> attrs;
  for (int i = 0; i < kNumAttrs; ++i) {
    AttributeDef attr;
    attr.name = "A" + std::to_string(i + 1);
    attr.cardinality = kCardinality;
    attrs.push_back(std::move(attr));
  }
  AttributeDef class_attr;
  class_attr.name = "class";
  class_attr.cardinality = kNumClasses;
  attrs.push_back(std::move(class_attr));
  return Schema(std::move(attrs), kNumAttrs);
}

Row RandomRow(const Schema& schema, Random* rng) {
  Row row(schema.num_columns());
  for (int c = 0; c < schema.num_columns(); ++c) {
    row[c] = static_cast<Value>(rng->Uniform(schema.attribute(c).cardinality));
  }
  return row;
}

// Uniform rows straight into a heap file; returns false on I/O failure.
bool WriteHeapFile(const std::string& path, const Schema& schema,
                   uint64_t rows, uint64_t seed) {
  auto writer = HeapFileWriter::Create(path, schema.num_columns(), nullptr);
  if (!writer.ok()) return false;
  Random rng(seed);
  for (uint64_t i = 0; i < rows; ++i) {
    if (!(*writer)->Append(RandomRow(schema, &rng)).ok()) return false;
  }
  return (*writer)->Finish().ok();
}

// A frontier like one tree level: eight nodes splitting on A1 x A2, each
// counting the remaining attributes.
struct Frontier {
  std::vector<std::unique_ptr<Expr>> predicates;
  std::vector<std::vector<int>> attrs;
  std::unique_ptr<BatchMatcher> matcher;
};

Frontier MakeFrontier(const Schema& schema) {
  Frontier f;
  for (Value a = 0; a < 4; ++a) {
    for (Value b = 0; b < 2; ++b) {
      std::vector<std::unique_ptr<Expr>> conj;
      conj.push_back(Expr::ColEq("A1", a));
      conj.push_back(Expr::ColEq("A2", b));
      auto pred = Expr::And(std::move(conj));
      if (!pred->Bind(schema).ok()) std::abort();
      f.predicates.push_back(std::move(pred));
      std::vector<int> attrs;
      for (int c = 2; c < kNumAttrs; ++c) attrs.push_back(c);
      f.attrs.push_back(std::move(attrs));
    }
  }
  std::vector<const Expr*> raw;
  for (const auto& p : f.predicates) raw.push_back(p.get());
  f.matcher = std::make_unique<BatchMatcher>(raw);
  return f;
}

struct GridCell {
  uint64_t rows = 0;
  int threads = 0;
  double wall_seconds = 0;
  double sim_seconds = 0;
  double speedup = 0;
  bool cc_identical = false;
};

// CC memory for the staged grid: less than one level's tables need, so
// batches evict nodes mid-scan — inside the first segment of a 4-worker
// scan of the 100k-row smoke table — and requeue them.
constexpr size_t kStagedMemoryBudget = 16 << 10;

// One staged, bounded grow: its invariants (everything but wall time must
// not depend on the worker count) and its wall time.
struct StagedCell {
  int threads = 0;  // 0: SQLCLASS_PARALLEL_SCAN_THREADS decides
  double wall_seconds = 0;
  double sim_seconds = 0;
  uint64_t tree_hash = 0;  // FNV-1a of the tree's signature
  std::string cost;
  uint64_t requeues = 0;
  uint64_t sql_fallbacks = 0;
  int staged_files = 0;
  int memory_stores = 0;

  bool SameInvariants(const StagedCell& other) const {
    return sim_seconds == other.sim_seconds && tree_hash == other.tree_hash &&
           cost == other.cost && requeues == other.requeues &&
           sql_fallbacks == other.sql_fallbacks &&
           staged_files == other.staged_files &&
           memory_stores == other.memory_stores;
  }
};

// Grows the tree over table "data" through a fresh middleware.
bool GrowStaged(SqlServer* server, const Schema& schema, uint64_t rows,
                int threads, const std::string& staging_dir,
                StagedCell* cell) {
  MiddlewareConfig config;
  config.staging_dir = staging_dir;
  config.memory_budget_bytes = kStagedMemoryBudget;
  config.parallel_scan_threads = threads;
  auto middleware = ClassificationMiddleware::Create(server, "data", config);
  if (!middleware.ok()) {
    std::fprintf(stderr, "middleware: %s\n",
                 middleware.status().ToString().c_str());
    return false;
  }
  server->ResetCostCounters();
  TreeClientConfig client_config;
  client_config.max_depth = 4;
  DecisionTreeClient client(schema, client_config);
  Stopwatch watch;
  auto tree = client.Grow(middleware->get(), rows);
  cell->wall_seconds = watch.ElapsedSeconds();
  if (!tree.ok()) {
    std::fprintf(stderr, "grow: %s\n", tree.status().ToString().c_str());
    return false;
  }
  cell->threads = threads;
  cell->sim_seconds = server->SimulatedSeconds();
  cell->tree_hash = Fnv1a(tree->Signature());
  cell->cost = server->cost_counters().ToString();
  cell->requeues = 0;
  for (const auto& batch : (*middleware)->trace()) {
    cell->requeues += static_cast<uint64_t>(batch.requeued);
  }
  cell->sql_fallbacks = (*middleware)->stats().sql_fallbacks.load();
  cell->staged_files = (*middleware)->staging().files_created();
  cell->memory_stores = (*middleware)->staging().memory_stores_created();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const auto [smoke, dump_path] = ParseBenchArgs(argc, argv);

  ScopedDir dir("parallel_scan");
  Schema schema = MakeBenchSchema();
  Frontier frontier = MakeFrontier(schema);
  CostModel cost_model;

  std::vector<uint64_t> row_grid;
  if (smoke) {
    row_grid = {20'000};
  } else {
    for (double r : {125'000.0, 250'000.0, 500'000.0}) {
      row_grid.push_back(static_cast<uint64_t>(r * BenchScale()));
    }
  }
  // On a single-core host a multi-thread grid measures scheduler thrash,
  // not scan parallelism — ~1.0x "speedups" that would read as a bug. Run
  // the serial column only and say why in the JSON instead.
  const unsigned hardware = std::thread::hardware_concurrency();
  const bool single_core = hardware <= 1;
  std::string skipped_reason;
  if (single_core) {
    skipped_reason =
        "hardware_concurrency=" + std::to_string(hardware) +
        ": multi-thread cells skipped (wall-clock speedup over the serial "
        "scan is meaningless without a second core)";
  }
  std::vector<int> thread_grid;
  if (single_core) {
    thread_grid = {1};
  } else if (smoke) {
    thread_grid = {1, 4};
  } else {
    thread_grid = {1, 2, 4, 8};
  }

  std::printf("# Morsel-parallel counting scan (hardware_concurrency=%u)\n",
              hardware);
  if (single_core) std::printf("# %s\n", skipped_reason.c_str());
  std::printf("%-10s %-8s %12s %12s %10s %10s\n", "rows", "threads",
              "wall_sec", "sim_sec", "speedup", "cc_ok");

  std::vector<GridCell> cells;
  for (uint64_t rows : row_grid) {
    const std::string path =
        dir.path() + "/scan_" + std::to_string(rows) + ".heap";
    if (!WriteHeapFile(path, schema, rows, /*seed=*/rows + 99)) {
      std::fprintf(stderr, "heap file write failed\n");
      return 1;
    }

    ParallelScanOptions options;
    options.class_column = schema.class_column();
    options.num_classes = kNumClasses;
    options.matcher = frontier.matcher.get();
    for (const auto& attrs : frontier.attrs) {
      options.node_attrs.push_back(&attrs);
    }
    options.charge.server_row_evaluated = true;
    options.charge.cursor_transfer = true;

    std::vector<CcTable> serial_ccs;
    double serial_wall = 0;
    for (int threads : thread_grid) {
      ThreadPool pool(threads);
      CostCounters cost;
      IoCounters io;
      // Best of three runs, so one cold file cache doesn't skew a cell.
      double wall = 0;
      StatusOr<ParallelScanResult> scan = Status::OK();
      for (int rep = 0; rep < 3; ++rep) {
        cost.Reset();
        io.Reset();
        Stopwatch watch;
        scan = ParallelCountScan::OverHeapFile(
            &pool, path, schema.num_columns(), options, &cost, &io);
        const double elapsed = watch.ElapsedSeconds();
        if (!scan.ok()) {
          std::fprintf(stderr, "scan: %s\n", scan.status().ToString().c_str());
          return 1;
        }
        if (rep == 0 || elapsed < wall) wall = elapsed;
      }

      GridCell cell;
      cell.rows = rows;
      cell.threads = threads;
      cell.wall_seconds = wall;
      cell.sim_seconds = cost_model.SimulatedSeconds(cost);
      if (threads == 1) {
        serial_ccs = std::move(scan->ccs);
        serial_wall = wall;
        cell.cc_identical = true;
        cell.speedup = 1.0;
      } else {
        cell.cc_identical = scan->ccs.size() == serial_ccs.size();
        for (size_t i = 0; cell.cc_identical && i < serial_ccs.size(); ++i) {
          cell.cc_identical = scan->ccs[i] == serial_ccs[i];
        }
        cell.speedup = wall > 0 ? serial_wall / wall : 0;
      }
      std::printf("%-10llu %-8d %12.4f %12.3f %10.2f %10s\n",
                  (unsigned long long)rows, threads, cell.wall_seconds,
                  cell.sim_seconds, cell.speedup,
                  cell.cc_identical ? "yes" : "NO");
      if (!cell.cc_identical) return 1;
      cells.push_back(cell);
    }
  }

  // Staged, bounded grows on a table above the parallel-scan row floor.
  const uint64_t staged_rows =
      smoke ? 100'000 : static_cast<uint64_t>(500'000 * BenchScale());
  std::vector<int> staged_threads;
  if (smoke) {
    staged_threads = {0};
  } else if (single_core) {
    staged_threads = {1};
  } else {
    staged_threads = {1, 2, 3, 4};
  }
  std::vector<StagedCell> staged_cells;
  {
    SqlServer server(dir.path());
    CheckOk(server.CreateTable("data", schema));
    Random rng(staged_rows + 7);
    std::vector<Row> rows;
    rows.reserve(staged_rows);
    for (uint64_t i = 0; i < staged_rows; ++i) {
      rows.push_back(RandomRow(schema, &rng));
    }
    CheckOk(server.LoadRows("data", rows));
    rows = std::vector<Row>();
    std::printf("\n# staged grow, memory budget %zu bytes\n",
                kStagedMemoryBudget);
    std::printf("%-10s %-8s %12s %12s %10s %10s %10s\n", "rows", "threads",
                "wall_sec", "sim_sec", "requeues", "fallbacks", "same");
    for (int threads : staged_threads) {
      StagedCell cell;
      for (int rep = 0; rep < (smoke ? 1 : 3); ++rep) {
        StagedCell run;
        if (!GrowStaged(&server, schema, staged_rows, threads, dir.path(),
                        &run)) {
          return 1;
        }
        if (rep == 0 || run.wall_seconds < cell.wall_seconds) cell = run;
      }
      const bool same = staged_cells.empty() ||
                        cell.SameInvariants(staged_cells.front());
      std::printf("%-10llu %-8d %12.4f %12.3f %10llu %10llu %10s\n",
                  (unsigned long long)staged_rows, threads, cell.wall_seconds,
                  cell.sim_seconds, (unsigned long long)cell.requeues,
                  (unsigned long long)cell.sql_fallbacks, same ? "yes" : "NO");
      if (!same) return 1;
      staged_cells.push_back(cell);
    }
  }

  if (!dump_path.empty()) {
    JsonWriter json;
    json.BeginObject();
    json.Key("bench");
    json.String("parallel_scan");
    json.Key("hardware_concurrency");
    json.Int(hardware);
    if (!skipped_reason.empty()) {
      json.Key("skipped_reason");
      json.String(skipped_reason);
    }
    json.Key("frontier_nodes");
    json.Int(frontier.predicates.size());
    json.Key("note");
    json.String(
        "speedup is wall-clock vs the 1-thread run on the same machine; "
        "simulated seconds are thread-count-invariant by design");
    json.Key("results");
    json.BeginArray();
    for (const GridCell& cell : cells) {
      json.BeginObject();
      json.Key("rows");
      json.Int(cell.rows);
      json.Key("threads");
      json.Int(cell.threads);
      json.Key("wall_seconds");
      json.Double(cell.wall_seconds);
      json.Key("sim_seconds");
      json.Double(cell.sim_seconds);
      json.Key("speedup_vs_serial");
      json.Double(cell.speedup);
      json.Key("cc_identical_to_serial");
      json.Bool(cell.cc_identical);
      json.EndObject();
    }
    json.EndArray();
    json.Key("staged_note");
    json.String(
        "depth-4 grows through the middleware, file and memory staging on, "
        "CC memory budget " + std::to_string(kStagedMemoryBudget) +
        " bytes; threads 0 = SQLCLASS_PARALLEL_SCAN_THREADS; every cell's "
        "tree, cost counters and eviction counts equal the first cell's");
    json.Key("staged");
    json.BeginArray();
    for (const StagedCell& cell : staged_cells) {
      json.BeginObject();
      json.Key("rows");
      json.Int(staged_rows);
      json.Key("threads");
      json.Int(cell.threads);
      json.Key("wall_seconds");
      json.Double(cell.wall_seconds);
      json.Key("sim_seconds");
      json.Double(cell.sim_seconds);
      json.Key("tree_hash");
      json.String(std::to_string(cell.tree_hash));
      json.Key("cost");
      json.String(cell.cost);
      json.Key("requeues");
      json.Int(cell.requeues);
      json.Key("sql_fallbacks");
      json.Int(cell.sql_fallbacks);
      json.Key("staged_files");
      json.Int(cell.staged_files);
      json.Key("memory_stores");
      json.Int(cell.memory_stores);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
    const Status dump_status = json.WriteToFile(dump_path);
    if (!dump_status.ok()) {
      std::fprintf(stderr, "failed to write %s: %s\n", dump_path.c_str(),
                   dump_status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", dump_path.c_str());
  }
  return 0;
}
