// Bitmap counting engine: tree growth served by per-value bitmap indexes
// (scheduler Rule 0, AND + popcount) against the row-scan middleware on the
// Figure-6 census workload. Both paths must grow byte-identical trees; the
// bitmap path answers every CC request at per-index-word cost instead of
// per-row cursor cost, which is where the simulated speedup comes from.
//
// Flags:
//   --smoke        tiny instance for the `perf`-labeled ctest smoke run
//   --dump=FILE    also write the results as JSON (BENCH_bitmap.json)

#include <string>
#include <vector>

#include "bench_util.h"
#include "datagen/census.h"
#include "mining/tree.h"

using namespace sqlclass;
using namespace sqlclass::bench;

namespace {

struct GrowOutcome {
  bool ok = false;
  std::string tree;
  double sim_seconds = 0;
  double wall_seconds = 0;
  int nodes = 0;
  ClassificationMiddleware::Stats stats;
};

GrowOutcome GrowOnce(SqlServer* server, const Schema& schema, uint64_t rows,
                     const MiddlewareConfig& config,
                     const TreeClientConfig& client_config) {
  GrowOutcome out;
  auto middleware = ClassificationMiddleware::Create(server, "census", config);
  if (!middleware.ok()) {
    std::fprintf(stderr, "middleware: %s\n",
                 middleware.status().ToString().c_str());
    return out;
  }
  server->ResetCostCounters();
  Stopwatch watch;
  DecisionTreeClient client(schema, client_config);
  auto tree = client.Grow(middleware->get(), rows);
  if (!tree.ok()) {
    std::fprintf(stderr, "grow: %s\n", tree.status().ToString().c_str());
    return out;
  }
  out.ok = true;
  out.wall_seconds = watch.ElapsedSeconds();
  out.sim_seconds = server->SimulatedSeconds();
  out.tree = tree->ToString(1 << 22);
  out.nodes = tree->num_nodes();
  out.stats = (*middleware)->stats();
  return out;
}

struct BitmapBenchCell {
  double memory_fraction = 0;
  size_t memory_bytes = 0;
  GrowOutcome row;
  GrowOutcome bitmap;
  bool tree_identical = false;
  double sim_speedup = 0;
  double wall_speedup = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const auto [smoke, dump_path] = ParseBenchArgs(argc, argv);

  ScopedDir dir("bitmap");
  SqlServer server(dir.path());

  CensusParams params;
  params.rows = static_cast<uint64_t>((smoke ? 4000 : 30000) * BenchScale());
  auto dataset = CensusDataset::Create(params);
  if (!dataset.ok()) return 1;
  const Schema& schema = (*dataset)->schema();
  if (!LoadIntoServer(&server, "census", schema,
                      [&](const RowSink& sink) {
                        return (*dataset)->Generate(sink);
                      })
           .ok()) {
    return 1;
  }
  const uint64_t rows = params.rows;
  const uint64_t data_bytes = rows * schema.RowBytes();

  TreeClientConfig client_config;
  client_config.max_depth = smoke ? 5 : 8;

  // One metered index build, shared by every bitmap-path run below.
  server.ResetCostCounters();
  Stopwatch build_watch;
  if (!server.BuildBitmapIndex("census").ok()) {
    std::fprintf(stderr, "bitmap index build failed\n");
    return 1;
  }
  const double build_wall = build_watch.ElapsedSeconds();
  const double build_sim = server.SimulatedSeconds();

  std::printf("# Bitmap counting vs row scans (census-like data: %llu rows, "
              "%.2f MB; index build %.3f sim s)\n",
              (unsigned long long)rows, Mb(data_bytes), build_sim);
  std::printf("%-10s %-10s %12s %12s %12s %12s %10s\n", "memory_mb",
              "mem/data", "row_sim_s", "bmp_sim_s", "sim_x", "wall_x",
              "tree_ok");

  const std::vector<double> fractions =
      smoke ? std::vector<double>{0.1} : std::vector<double>{0.05, 0.1, 1.2};

  std::vector<BitmapBenchCell> cells;
  bool all_identical = true;
  double best_sim_speedup = 0;
  for (double fraction : fractions) {
    BitmapBenchCell cell;
    cell.memory_fraction = fraction;
    cell.memory_bytes = static_cast<size_t>(fraction * data_bytes);

    MiddlewareConfig row_config;
    row_config.memory_budget_bytes = cell.memory_bytes;
    row_config.staging_dir = dir.path();
    row_config.use_bitmap_index = false;
    cell.row = GrowOnce(&server, schema, rows, row_config, client_config);
    if (!cell.row.ok) return 1;

    MiddlewareConfig bitmap_config = row_config;
    bitmap_config.use_bitmap_index = true;
    cell.bitmap =
        GrowOnce(&server, schema, rows, bitmap_config, client_config);
    if (!cell.bitmap.ok) return 1;

    cell.tree_identical = cell.bitmap.tree == cell.row.tree;
    cell.sim_speedup = cell.bitmap.sim_seconds > 0
                           ? cell.row.sim_seconds / cell.bitmap.sim_seconds
                           : 0;
    cell.wall_speedup = cell.bitmap.wall_seconds > 0
                            ? cell.row.wall_seconds / cell.bitmap.wall_seconds
                            : 0;
    all_identical = all_identical && cell.tree_identical;
    if (cell.sim_speedup > best_sim_speedup) {
      best_sim_speedup = cell.sim_speedup;
    }

    std::printf("%-10.2f %-10.2f %12.3f %12.3f %12.2f %12.2f %10s\n",
                Mb(cell.memory_bytes), fraction, cell.row.sim_seconds,
                cell.bitmap.sim_seconds, cell.sim_speedup, cell.wall_speedup,
                cell.tree_identical ? "yes" : "NO");
    cells.push_back(std::move(cell));
  }

  if (!cells.empty()) {
    const BitmapBenchCell& detail = cells.front();
    std::printf("\n[bitmap-detail] tree nodes=%d bitmap_scans=%llu "
                "bitmap_fallbacks=%llu row-path server_scans=%llu\n",
                detail.bitmap.nodes,
                (unsigned long long)detail.bitmap.stats.bitmap_scans.load(),
                (unsigned long long)
                    detail.bitmap.stats.bitmap_fallbacks.load(),
                (unsigned long long)detail.row.stats.server_scans.load());
  }

  if (!dump_path.empty()) {
    JsonWriter json;
    json.BeginObject();
    json.Key("bench");
    json.String("bitmap");
    json.Key("rows");
    json.Int(rows);
    json.Key("data_mb");
    json.Double(Mb(data_bytes));
    json.Key("index_build_sim_seconds");
    json.Double(build_sim);
    json.Key("index_build_wall_seconds");
    json.Double(build_wall);
    json.Key("note");
    json.String(
        "row vs bitmap-served tree growth on the Fig-6 census workload; "
        "trees are byte-identical, simulated speedup comes from replacing "
        "per-row cursor charges with per-bitmap-word charges; wall speedup "
        "is machine-dependent and smaller on tiny instances");
    json.Key("results");
    json.BeginArray();
    for (const BitmapBenchCell& cell : cells) {
      json.BeginObject();
      json.Key("memory_mb");
      json.Double(Mb(cell.memory_bytes));
      json.Key("memory_over_data");
      json.Double(cell.memory_fraction);
      json.Key("row_sim_seconds");
      json.Double(cell.row.sim_seconds);
      json.Key("row_wall_seconds");
      json.Double(cell.row.wall_seconds);
      json.Key("bitmap_sim_seconds");
      json.Double(cell.bitmap.sim_seconds);
      json.Key("bitmap_wall_seconds");
      json.Double(cell.bitmap.wall_seconds);
      json.Key("sim_speedup");
      json.Double(cell.sim_speedup);
      json.Key("wall_speedup");
      json.Double(cell.wall_speedup);
      json.Key("tree_identical");
      json.Bool(cell.tree_identical);
      json.Key("bitmap_scans");
      json.Int(cell.bitmap.stats.bitmap_scans.load());
      json.Key("bitmap_fallbacks");
      json.Int(cell.bitmap.stats.bitmap_fallbacks.load());
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

  if (!all_identical) {
    std::fprintf(stderr, "FAIL: bitmap-served tree differs from row scan\n");
    return 1;
  }
  // The full run must demonstrate the order-of-magnitude win; the smoke run
  // only has to show the bitmap path is cheaper at its tiny scale.
  const double required = smoke ? 1.0 : 10.0;
  if (best_sim_speedup < required) {
    std::fprintf(stderr, "FAIL: best simulated speedup %.2fx < %.1fx\n",
                 best_sim_speedup, required);
    return 1;
  }
  return 0;
}
