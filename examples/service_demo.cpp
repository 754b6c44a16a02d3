// The concurrent classification service end-to-end: one embedded server,
// several clients classifying over the same table at once, cross-session
// scan sharing doing the work of many scans in one pass.
//
// Walks through: create the service -> load a table -> submit a mix of
// decision-tree and Naive Bayes sessions -> wait -> inspect per-session
// results and the service-wide metrics snapshot.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "datagen/load.h"
#include "datagen/random_tree.h"
#include "service/service.h"

using namespace sqlclass;

int main() {
  const std::string dir =
      std::filesystem::temp_directory_path() / "sqlclass_service_demo";
  std::filesystem::create_directories(dir);

  // A synthetic classification table (random-tree generator, §5.1.1).
  RandomTreeParams params;
  params.num_attributes = 8;
  params.num_leaves = 40;
  params.cases_per_leaf = 60;
  params.num_classes = 4;
  params.seed = 7;
  auto dataset = RandomTreeDataset::Create(params);
  if (!dataset.ok()) return 1;
  std::vector<Row> rows;
  if (!(*dataset)->Generate(CollectInto(&rows)).ok()) return 1;

  // The service: 4 workers, up to 4 concurrent sessions, scan sharing on.
  ServiceConfig config;
  config.worker_threads = 4;
  auto service_or = ClassificationService::Create(dir, config);
  if (!service_or.ok()) {
    std::fprintf(stderr, "create: %s\n",
                 service_or.status().ToString().c_str());
    return 1;
  }
  auto service = std::move(service_or).value();
  if (!service->CreateAndLoadTable("census", (*dataset)->schema(), rows)
           .ok()) {
    return 1;
  }
  std::printf("loaded table 'census': %zu rows, %d attributes\n\n",
              rows.size(), params.num_attributes);

  // Six clients at once: four trees, two Naive Bayes models.
  std::vector<SessionId> ids;
  for (int i = 0; i < 6; ++i) {
    SessionSpec spec;
    spec.table = "census";
    spec.task = i < 4 ? SessionSpec::Task::kDecisionTree
                      : SessionSpec::Task::kNaiveBayes;
    auto id = service->Submit(spec);
    if (!id.ok()) {
      std::fprintf(stderr, "submit: %s\n", id.status().ToString().c_str());
      return 1;
    }
    ids.push_back(id.value());
  }

  std::printf("%8s %6s %10s %10s %9s %9s\n", "session", "kind", "queue_ms",
              "run_ms", "requests", "scans");
  std::string tree_signature;
  for (SessionId id : ids) {
    SessionResult result = service->Wait(id);
    if (!result.status.ok()) {
      std::fprintf(stderr, "session %llu: %s\n", (unsigned long long)id,
                   result.status.ToString().c_str());
      return 1;
    }
    const bool is_tree = result.tree != nullptr;
    if (is_tree) {
      if (tree_signature.empty()) {
        tree_signature = result.tree->Signature();
      } else if (result.tree->Signature() != tree_signature) {
        std::fprintf(stderr, "trees diverged — should be impossible\n");
        return 1;
      }
    }
    std::printf("%8llu %6s %10.1f %10.1f %9llu %9llu\n",
                (unsigned long long)id, is_tree ? "tree" : "nb",
                result.queue_wait_ms, result.run_ms,
                (unsigned long long)result.requests_issued,
                (unsigned long long)result.scans_participated);
  }
  std::printf("\nall tree sessions produced byte-identical classifiers\n");

  ServiceMetrics metrics = service->Metrics();
  std::printf("\nservice metrics:\n");
  std::printf("  sessions: %llu submitted, %llu completed, %llu failed\n",
              (unsigned long long)metrics.sessions_submitted,
              (unsigned long long)metrics.sessions_completed,
              (unsigned long long)metrics.sessions_failed);
  std::printf("  scans: %llu serving %llu CC requests (merge ratio %.2f, "
              "%.2f sessions/scan)\n",
              (unsigned long long)metrics.scans_executed,
              (unsigned long long)metrics.requests_fulfilled,
              metrics.MergeRatio(), metrics.SessionsPerScan());
  std::printf("  rows scanned: %llu; peak concurrent sessions: %llu\n",
              (unsigned long long)metrics.rows_scanned,
              (unsigned long long)metrics.peak_active_sessions);

  service->Shutdown();
  std::filesystem::remove_all(dir);
  return 0;
}
