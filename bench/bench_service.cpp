// Concurrent classification service benchmark: N identical tree sessions
// over one table, with and without cross-session scan sharing.
//
//   columns: wall seconds for the whole batch, summed per-session simulated
//   seconds (credited cost x cost model), total data scans the service ran,
//   merge ratio (CC requests served per scan) and sessions per scan.
//
// The point of the tentpole shows up in the scans column: with sharing ON,
// scans grow far slower than N (sessions at similar depths ride the same
// pass); with sharing OFF every session pays its own scans. Classifiers are
// asserted byte-identical in every configuration.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "datagen/load.h"
#include "datagen/random_tree.h"
#include "service/service.h"

using namespace sqlclass;
using bench::BenchScale;
using bench::ScopedDir;

namespace {

struct RunResult {
  bool ok = false;
  double wall_seconds = 0;
  double sim_seconds_sum = 0;
  uint64_t scans = 0;
  double merge_ratio = 0;
  double sessions_per_scan = 0;
  std::string signature;
};

RunResult RunBatch(const Schema& schema, const std::vector<Row>& rows,
                   int num_sessions, bool sharing) {
  RunResult out;
  ScopedDir dir("service_" + std::to_string(num_sessions) +
                (sharing ? "_sh" : "_pr"));
  ServiceConfig config;
  config.worker_threads = num_sessions;
  config.queue_capacity = static_cast<size_t>(num_sessions) * 2;
  config.enable_scan_sharing = sharing;
  auto service_or = ClassificationService::Create(dir.path(), config);
  if (!service_or.ok()) {
    std::fprintf(stderr, "service: %s\n",
                 service_or.status().ToString().c_str());
    return out;
  }
  auto service = std::move(service_or).value();
  if (!service->CreateAndLoadTable("data", schema, rows).ok()) return out;

  Stopwatch watch;
  std::vector<SessionId> ids;
  for (int i = 0; i < num_sessions; ++i) {
    SessionSpec spec;
    spec.table = "data";
    auto id = service->Submit(spec);
    if (!id.ok()) {
      std::fprintf(stderr, "submit: %s\n", id.status().ToString().c_str());
      return out;
    }
    ids.push_back(id.value());
  }
  for (SessionId id : ids) {
    SessionResult result = service->Wait(id);
    if (!result.status.ok()) {
      std::fprintf(stderr, "session %llu: %s\n", (unsigned long long)id,
                   result.status.ToString().c_str());
      return out;
    }
    const std::string signature = result.tree->Signature();
    if (out.signature.empty()) {
      out.signature = signature;
    } else if (signature != out.signature) {
      std::fprintf(stderr, "FATAL: session %llu grew a different tree\n",
                   (unsigned long long)id);
      return out;
    }
    out.sim_seconds_sum += result.simulated_seconds;
  }
  out.wall_seconds = watch.ElapsedSeconds();

  ServiceMetrics metrics = service->Metrics();
  out.scans = metrics.scans_executed;
  out.merge_ratio = metrics.MergeRatio();
  out.sessions_per_scan = metrics.SessionsPerScan();
  out.ok = true;
  return out;
}

}  // namespace

int main() {
  RandomTreeParams params;
  params.num_attributes = 10;
  params.num_leaves = 50;
  params.cases_per_leaf = static_cast<int>(60 * BenchScale());
  params.num_classes = 4;
  params.seed = 20260805;
  auto dataset = RandomTreeDataset::Create(params);
  if (!dataset.ok()) {
    std::fprintf(stderr, "dataset: %s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const Schema schema = (*dataset)->schema();
  std::vector<Row> rows;
  if (!(*dataset)->Generate(CollectInto(&rows)).ok()) return 1;

  std::printf("service bench: %zu rows, %d attributes\n", rows.size(),
              params.num_attributes);
  std::printf("%9s %9s %10s %10s %8s %8s %10s\n", "sessions", "sharing",
              "wall_s", "sim_s_sum", "scans", "merge", "sess/scan");

  std::string reference;
  bool all_identical = true;
  for (int n : {1, 2, 4, 8, 16}) {
    for (bool sharing : {true, false}) {
      RunResult r = RunBatch(schema, rows, n, sharing);
      if (!r.ok) return 1;
      if (reference.empty()) reference = r.signature;
      if (r.signature != reference) all_identical = false;
      std::printf("%9d %9s %10.3f %10.3f %8llu %8.2f %10.2f\n", n,
                  sharing ? "on" : "off", r.wall_seconds, r.sim_seconds_sum,
                  (unsigned long long)r.scans, r.merge_ratio,
                  r.sessions_per_scan);
    }
  }
  if (!all_identical) {
    std::fprintf(stderr, "FATAL: classifiers differ across configurations\n");
    return 1;
  }
  std::printf("all %s classifiers byte-identical across configurations\n",
              "tree");
  return 0;
}
