// Sharded shared-nothing scan-out: wall-clock behaviour of the Rule 8
// fan-out on the Fig-6 census workload. A shard-count x worker-thread x
// transport (in-process vs subprocess workers) x replica (on/off) grid
// grows the same decision tree through the middleware with the table split
// into N heap shards, verifying along the way that every configuration
// produces a tree byte-identical to the unsharded serial run (the merge
// determinism contract) and identical simulated seconds across every
// sharded cell (the cost model cannot see shard count, worker count, the
// process boundary, or the replica knob — only wall time moves).
//
// Flags:
//   --smoke        tiny grid for the `perf`-labeled ctest smoke run
//   --dump=FILE    also write the results as JSON (BENCH_shard.json)

#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "datagen/census.h"
#include "middleware/shard_scan.h"

using namespace sqlclass;
using namespace sqlclass::bench;

namespace {

struct GridCell {
  uint32_t shards = 0;  // 0 = unsharded baseline row
  int workers = 0;
  const char* transport = "none";  // resolved: "inproc" or "subprocess"
  bool replicas = false;
  double wall_seconds = 0;
  double sim_seconds = 0;
  uint64_t shard_scans = 0;
  uint64_t shard_fallbacks = 0;
  uint64_t rpc_timeouts = 0;
  uint64_t worker_restarts = 0;
  bool tree_identical = false;
};

}  // namespace

int main(int argc, char** argv) {
  const auto [smoke, dump_path] = ParseBenchArgs(argc, argv);

  ScopedDir dir("shard");
  SqlServer server(dir.path());

  CensusParams params;
  params.rows = static_cast<uint64_t>((smoke ? 6'000 : 30'000) * BenchScale());
  auto dataset = CensusDataset::Create(params);
  if (!dataset.ok()) return 1;
  if (!LoadIntoServer(&server, "census", (*dataset)->schema(),
                      [&](const RowSink& sink) {
                        return (*dataset)->Generate(sink);
                      })
           .ok()) {
    return 1;
  }
  const uint64_t rows = params.rows;
  const Schema& schema = (*dataset)->schema();

  TreeClientConfig client_config;
  client_config.max_depth = smoke ? 4 : 8;

  auto make_config = [&](bool sharded, int workers,
                         ShardTransportKind transport) {
    MiddlewareConfig mw;
    mw.staging_dir = dir.path();
    // Keep every batch on the server so the grid isolates the scan-out:
    // staged tiers would otherwise absorb deep levels in all cells alike.
    mw.enable_file_staging = false;
    mw.enable_memory_staging = false;
    mw.sharding.enable = sharded;
    mw.parallel_scan_threads = workers;
    mw.sharding.min_node_rows = 1;  // route every level through Rule 8
    mw.sharding.transport = transport;
    return mw;
  };

  // Unsharded serial reference: the tree every sharded cell must reproduce
  // byte-for-byte.
  std::string ref_signature;
  GridCell baseline;
  {
    auto mw = ClassificationMiddleware::Create(
        &server, "census",
        make_config(false, 1, ShardTransportKind::kInProcess));
    if (!mw.ok()) return 1;
    server.ResetCostCounters();
    Stopwatch watch;
    DecisionTreeClient client(schema, client_config);
    auto tree = client.Grow(mw->get(), rows);
    if (!tree.ok()) {
      std::fprintf(stderr, "grow: %s\n", tree.status().ToString().c_str());
      return 1;
    }
    ref_signature = tree->Signature();
    baseline.shards = 0;
    baseline.workers = 1;
    baseline.wall_seconds = watch.ElapsedSeconds();
    baseline.sim_seconds = server.SimulatedSeconds();
    baseline.tree_identical = true;
  }

  std::vector<uint32_t> shard_grid =
      smoke ? std::vector<uint32_t>{2} : std::vector<uint32_t>{1, 2, 4, 8};
  // On a single-core host a multi-worker grid measures scheduler thrash,
  // not fan-out parallelism — ~1.0x "speedups" that would read as a bug.
  // Run the serial column only and say why in the JSON instead.
  const unsigned hardware = std::thread::hardware_concurrency();
  const bool single_core = hardware <= 1;
  std::string skipped_reason;
  if (single_core) {
    skipped_reason =
        "hardware_concurrency=" + std::to_string(hardware) +
        ": multi-worker cells skipped (wall-clock speedup over the serial "
        "fan-out is meaningless without a second core)";
  }
  std::vector<int> worker_grid;
  if (single_core) {
    worker_grid = {1};
  } else if (smoke) {
    worker_grid = {1, 2};
  } else {
    worker_grid = {1, 2, 4};
  }

  std::printf("# Sharded scan-out on census (%llu rows, "
              "hardware_concurrency=%u)\n",
              (unsigned long long)rows, hardware);
  if (single_core) std::printf("# %s\n", skipped_reason.c_str());
  std::printf("%-8s %-8s %-11s %-9s %12s %12s %12s %10s %10s\n", "shards",
              "workers", "transport", "replicas", "wall_sec", "sim_sec",
              "shard_scans", "fallbacks", "tree_ok");
  std::printf("%-8s %-8d %-11s %-9s %12.4f %12.3f %12s %10s %10s\n", "none",
              1, "none", "-", baseline.wall_seconds, baseline.sim_seconds,
              "-", "-", "ref");

  std::vector<GridCell> cells;
  cells.push_back(baseline);

  double sharded_sim = -1;  // sim seconds every sharded cell must match
  for (uint32_t shards : shard_grid) {
    for (bool replicas : {false, true}) {
      if (server.HasShardSet("census")) {
        if (!server.DropShardSet("census").ok()) return 1;
      }
      if (!server
               .BuildShardSet("census", shards, ShardScheme::kHashRowId,
                              replicas)
               .ok()) {
        std::fprintf(stderr, "BuildShardSet(%u) failed\n", shards);
        return 1;
      }
      for (ShardTransportKind transport : {ShardTransportKind::kInProcess,
                                           ShardTransportKind::kSubprocess}) {
        for (int workers : worker_grid) {
          auto mw = ClassificationMiddleware::Create(
              &server, "census", make_config(true, workers, transport));
          if (!mw.ok()) return 1;
          server.ResetCostCounters();
          Stopwatch watch;
          DecisionTreeClient client(schema, client_config);
          auto tree = client.Grow(mw->get(), rows);
          if (!tree.ok()) {
            std::fprintf(stderr, "grow: %s\n",
                         tree.status().ToString().c_str());
            return 1;
          }
          GridCell cell;
          cell.shards = shards;
          cell.workers = workers;
          // Report the transport that actually ran: the resolved config,
          // SQLCLASS_SHARDS_TRANSPORT applied.
          cell.transport = (*mw)->config().sharding.transport ==
                                   ShardTransportKind::kSubprocess
                               ? "subprocess"
                               : "inproc";
          cell.replicas = replicas;
          cell.wall_seconds = watch.ElapsedSeconds();
          cell.sim_seconds = server.SimulatedSeconds();
          cell.shard_scans = (*mw)->stats().shard_scans.load();
          cell.shard_fallbacks = (*mw)->stats().shard_fallbacks.load();
          cell.rpc_timeouts = (*mw)->stats().shard_rpc_timeouts.load();
          cell.worker_restarts = (*mw)->stats().shard_worker_restarts.load();
          cell.tree_identical = tree->Signature() == ref_signature;
          std::printf("%-8u %-8d %-11s %-9s %12.4f %12.3f %12llu %10llu "
                      "%10s\n",
                      shards, workers, cell.transport,
                      replicas ? "yes" : "no", cell.wall_seconds,
                      cell.sim_seconds, (unsigned long long)cell.shard_scans,
                      (unsigned long long)cell.shard_fallbacks,
                      cell.tree_identical ? "yes" : "NO");
          if (!cell.tree_identical) return 1;
          if (cell.shard_fallbacks != 0) {
            std::fprintf(stderr, "unexpected shard fallbacks\n");
            return 1;
          }
          if (cell.rpc_timeouts != 0 || cell.worker_restarts != 0) {
            std::fprintf(stderr,
                         "unexpected rpc timeouts/restarts in a clean run\n");
            return 1;
          }
          if (sharded_sim < 0) {
            sharded_sim = cell.sim_seconds;
          } else if (cell.sim_seconds != sharded_sim) {
            std::fprintf(stderr,
                         "simulated seconds vary with shard/worker/transport/"
                         "replica configuration (%.6f vs %.6f)\n",
                         cell.sim_seconds, sharded_sim);
            return 1;
          }
          cells.push_back(cell);
        }
      }
    }
  }

  if (!dump_path.empty()) {
    JsonWriter json;
    json.BeginObject();
    json.Key("bench");
    json.String("shard");
    json.Key("workload");
    json.String("census (Fig-6 data generator)");
    json.Key("rows");
    json.Int(rows);
    json.Key("hardware_concurrency");
    json.Int(hardware);
    if (!skipped_reason.empty()) {
      json.Key("skipped_reason");
      json.String(skipped_reason);
    }
    json.Key("note");
    json.String(
        "shards=0 is the unsharded serial reference; every sharded cell "
        "must grow a byte-identical tree and charge identical simulated "
        "seconds — only wall time may move with shard count, worker count, "
        "the transport (in-process vs subprocess workers over pipe RPC), "
        "or the replica knob");
    json.Key("results");
    json.BeginArray();
    for (const GridCell& cell : cells) {
      json.BeginObject();
      json.Key("shards");
      json.Int(cell.shards);
      json.Key("workers");
      json.Int(cell.workers);
      json.Key("transport");
      json.String(cell.transport);
      json.Key("replicas");
      json.Bool(cell.replicas);
      json.Key("wall_seconds");
      json.Double(cell.wall_seconds);
      json.Key("sim_seconds");
      json.Double(cell.sim_seconds);
      json.Key("shard_scans");
      json.Int(cell.shard_scans);
      json.Key("shard_fallbacks");
      json.Int(cell.shard_fallbacks);
      json.Key("rpc_timeouts");
      json.Int(cell.rpc_timeouts);
      json.Key("worker_restarts");
      json.Int(cell.worker_restarts);
      json.Key("tree_identical_to_serial");
      json.Bool(cell.tree_identical);
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
