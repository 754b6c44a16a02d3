// service_mixed: a ClassificationService (4 workers, 4 active sessions,
// default sharing) over a random-tree table with the paper's default
// parameters, driven by 4 closed-loop clients.

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "datagen/random_tree.h"
#include "probes.h"
#include "service/service.h"
#include "workloads.h"

namespace perfbench {

using namespace sqlclass;

namespace {

constexpr int kClients = 4;
constexpr int kProbeRows = 64;  // rows whose NB scores stand for the model
constexpr char kTable[] = "data";
constexpr double kKeep = 0.9;  // the seed samples this share of the population

struct SessionKind {
  const char* name;
  SessionSpec::Task task;
  int max_depth;
  int per_round;
};

// Sessions per round of 40, cheapest kind first. The shares are unequal on
// purpose: sorted by latency, the median falls inside the depth-6 sessions
// and the 75th percentile inside the depth-8 ones, not on the boundary
// between two kinds, where it would jump from run to run.
constexpr SessionKind kKinds[] = {
    {"nb", SessionSpec::Task::kNaiveBayes, 0, 6},
    {"tree4", SessionSpec::Task::kDecisionTree, 4, 8},
    {"tree6", SessionSpec::Task::kDecisionTree, 6, 10},
    {"tree8", SessionSpec::Task::kDecisionTree, 8, 16},
};

SessionSpec MakeSpec(const SessionKind& kind) {
  SessionSpec spec;
  spec.table = kTable;
  spec.task = kind.task;
  spec.tree_config.max_depth = kind.max_depth;
  return spec;
}

/// Digest of a finished model: the tree signature, or the bit patterns of
/// the Naive Bayes log scores on fixed rows of the table.
std::string ModelHash(const SessionResult& result,
                      const std::vector<Row>& probe_rows) {
  if (result.tree != nullptr) return HashHex(result.tree->Signature());
  std::string bytes;
  for (const Row& row : probe_rows) {
    for (double score : result.model->LogScores(row)) {
      char raw[sizeof(double)];
      std::memcpy(raw, &score, sizeof(double));
      bytes.append(raw, sizeof(double));
    }
  }
  return HashHex(bytes);
}

struct SessionTimes {
  uint64_t submit_start = 0;
  uint64_t submit_end = 0;
  uint64_t wait_end = 0;
};

struct RoundRecord {
  bool traced = false;
  uint64_t wall_ns = 0;
};

/// Runs `kinds` as sessions from kClients closed-loop client threads, each
/// taking the next unclaimed session and waiting for its result before
/// taking another.
std::vector<OpRecord> RunRound(ClassificationService* service,
                               const std::vector<const SessionKind*>& kinds,
                               const std::vector<Row>& probe_rows, bool traced,
                               SpanLog* spans) {
  const int n = static_cast<int>(kinds.size());
  std::vector<OpRecord> ops(n);
  std::vector<SessionTimes> times(n);
  std::atomic<int> next{0};
  auto client = [&]() {
    while (true) {
      const int i = next.fetch_add(1);
      if (i >= n) return;
      OpRecord& op = ops[i];
      op.kind = kinds[i]->name;
      op.traced = traced;
      times[i].submit_start = NowNs();
      auto id = service->Submit(MakeSpec(*kinds[i]));
      times[i].submit_end = NowNs();
      if (!id.ok()) {
        times[i].wait_end = times[i].submit_end;
        op.wall_ns = times[i].wait_end - times[i].submit_start;
        std::fprintf(stderr, "perfbench: submit rejected: %s\n",
                     id.status().ToString().c_str());
        continue;
      }
      SessionResult result = service->Wait(id.value());
      times[i].wait_end = NowNs();
      op.wall_ns = times[i].wait_end - times[i].submit_start;
      op.ok = result.status.ok();
      if (!op.ok) {
        std::fprintf(stderr, "perfbench: session failed: %s\n",
                     result.status.ToString().c_str());
        continue;
      }
      op.hash = ModelHash(result, probe_rows);
      op.sim_s = result.simulated_seconds;
      op.cost = result.cost;
      op.queue_wait_ms = result.queue_wait_ms;
      op.run_ms = result.run_ms;
      op.scans = result.scans_participated;
      op.requests = result.requests_issued;
    }
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back(client);
  for (std::thread& t : clients) t.join();

  if (traced) {
    for (int i = 0; i < n; ++i) {
      SpanLog::Span session;
      session.name = "session";
      session.path = ops[i].kind == "nb" ? "nb" : "tree";
      session.start_ns = times[i].submit_start;
      session.end_ns = times[i].wait_end;
      session.nodes = ops[i].requests;
      const int parent = spans->Add(session);
      SpanLog::Span submit;
      submit.name = "submit";
      submit.parent = parent;
      submit.start_ns = times[i].submit_start;
      submit.end_ns = times[i].submit_end;
      spans->Add(submit);
      SpanLog::Span wait;
      wait.name = "wait";
      wait.parent = parent;
      wait.start_ns = times[i].submit_end;
      wait.end_ns = times[i].wait_end;
      wait.batches = ops[i].scans;
      spans->Add(wait);
    }
  }
  return ops;
}

void WriteMetricsDelta(JsonWriter* json, const ServiceMetrics& after,
                       const ServiceMetrics& before) {
  json->BeginObject();
  auto field = [json](const char* name, uint64_t a, uint64_t b) {
    json->Key(name);
    json->Int(a - b);
  };
  field("sessions_submitted", after.sessions_submitted,
        before.sessions_submitted);
  field("sessions_completed", after.sessions_completed,
        before.sessions_completed);
  field("sessions_rejected", after.sessions_rejected, before.sessions_rejected);
  field("sessions_timed_out", after.sessions_timed_out,
        before.sessions_timed_out);
  field("sessions_failed", after.sessions_failed, before.sessions_failed);
  field("scans", after.scans_executed, before.scans_executed);
  field("requests_fulfilled", after.requests_fulfilled,
        before.requests_fulfilled);
  field("scan_session_slots", after.scan_session_slots,
        before.scan_session_slots);
  field("rows_scanned", after.rows_scanned, before.rows_scanned);
  field("scan_retries", after.scan_retries, before.scan_retries);
  field("scan_failures", after.scan_failures, before.scan_failures);
  field("bitmap_scans", after.bitmap_scans, before.bitmap_scans);
  field("bitmap_fallbacks", after.bitmap_fallbacks, before.bitmap_fallbacks);
  field("shard_scans", after.shard_scans, before.shard_scans);
  field("shard_fallbacks", after.shard_fallbacks, before.shard_fallbacks);
  json->EndObject();
}

}  // namespace

void RunService(const Options& options, JsonWriter* json) {
  RandomTreeParams params;
  params.num_attributes = 25;
  params.mean_values_per_attribute = 4.0;
  params.num_classes = 10;
  params.num_leaves = 200;
  params.cases_per_leaf = 1000.0;  // default generating seed

  // Set-up: start the service, generate the table and load it. Repeated
  // kSetupReps times into fresh directories; the last service is measured.
  std::vector<SetupTiming> setups;
  std::unique_ptr<ClassificationService> service;
  std::vector<Row> rows;
  std::string service_dir;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    StartOnCpu(rep);
    service.reset();
    if (!service_dir.empty()) std::filesystem::remove_all(service_dir);
    service_dir = options.work_dir + "/service-" + std::to_string(rep);
    std::filesystem::create_directories(service_dir);

    SetupTiming timing;
    const uint64_t start = NowNs();
    auto created = ClassificationService::Create(service_dir);
    CheckOk(created.status(), "service create");
    service = std::move(created).value();
    auto dataset = RandomTreeDataset::Create(params);
    CheckOk(dataset.status(), "random-tree dataset");
    rows.clear();
    uint64_t kept = 0;
    CheckOk((*dataset)->Generate(SampleOf(CollectInto(&rows), options.seed,
                                          kKeep, UINT64_MAX, &kept)),
            "random-tree rows");
    CheckOk(service->CreateAndLoadTable(kTable, (*dataset)->schema(), rows),
            "service load");
    timing.load_ns = NowNs() - start;
    setups.push_back(timing);
  }
  const uint64_t table_rows = rows.size();
  const std::vector<Row> probe_rows(
      rows.begin(),
      rows.begin() + std::min<size_t>(kProbeRows, rows.size()));
  rows = std::vector<Row>();

  SpanLog spans;
  std::vector<const SessionKind*> one_of_each;
  for (const SessionKind& kind : kKinds) one_of_each.push_back(&kind);
  const std::vector<OpRecord> warmup =
      RunRound(service.get(), one_of_each, probe_rows, false, &spans);

  const ServiceMetrics metrics_before = service->Metrics();
  CostCounters cost_before;
  IoCounters io_before;
  {
    MutexLock lock(*service->server_mutex());
    cost_before = service->server()->cost_counters();
    io_before = service->server()->io_counters();
  }

  // Timed closed loop, in rounds of 40 sessions shuffled by the seed. The
  // traced run alternates untraced and traced rounds.
  std::mt19937_64 shuffle_rng(options.seed);
  const int min_rounds = options.trace ? 2 : 1;
  std::vector<OpRecord> ops;
  std::vector<RoundRecord> rounds;
  const uint64_t deadline =
      NowNs() + static_cast<uint64_t>(options.seconds * 1e9);
  while (static_cast<int>(rounds.size()) < min_rounds || NowNs() < deadline) {
    std::vector<const SessionKind*> kinds;
    for (const SessionKind& kind : kKinds) {
      kinds.insert(kinds.end(), kind.per_round, &kind);
    }
    std::shuffle(kinds.begin(), kinds.end(), shuffle_rng);
    RoundRecord round;
    round.traced = options.trace && rounds.size() % 2 == 1;
    const uint64_t start = NowNs();
    std::vector<OpRecord> round_ops =
        RunRound(service.get(), kinds, probe_rows, round.traced, &spans);
    if (round.traced) {
      const int id = spans.Begin("metrics", -1);
      (void)service->Metrics();
      spans.End(id);
    }
    round.wall_ns = NowNs() - start;
    rounds.push_back(round);
    ops.insert(ops.end(), round_ops.begin(), round_ops.end());
  }
  const double peak_rss_mb = PeakRssMb();

  const ServiceMetrics metrics_after = service->Metrics();
  CostCounters cost;
  IoCounters io;
  {
    MutexLock lock(*service->server_mutex());
    cost = CostCounters::Delta(service->server()->cost_counters(), cost_before);
    io = IoDelta(service->server()->io_counters(), io_before);
  }

  json->Key("rows");
  json->Int(table_rows);
  json->Key("clients");
  json->Int(kClients);
  json->Key("setups");
  WriteSetups(json, setups);
  json->Key("warmup");
  WriteOps(json, warmup);
  json->Key("ops");
  WriteOps(json, ops);
  json->Key("rounds");
  json->BeginArray();
  for (const RoundRecord& round : rounds) {
    json->BeginObject();
    json->Key("traced");
    json->Bool(round.traced);
    json->Key("wall_ns");
    json->Int(round.wall_ns);
    json->EndObject();
  }
  json->EndArray();
  json->Key("service");
  WriteMetricsDelta(json, metrics_after, metrics_before);
  json->Key("server_cost");
  WriteCost(json, cost);
  json->Key("server_io");
  WriteIo(json, io);
  json->Key("peak_rss_mb");
  json->Double(peak_rss_mb);
  if (options.trace) {
    json->Key("spans");
    spans.Write(json);
    json->Key("probes");
    MutexLock lock(*service->server_mutex());
    RunProbes(service->server(), kTable, json);
  }
  service.reset();
  std::filesystem::remove_all(service_dir);
}

}  // namespace perfbench
