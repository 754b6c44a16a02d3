#ifndef SQLCLASS_PERFBENCH_HARNESS_H_
#define SQLCLASS_PERFBENCH_HARNESS_H_

#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/json_writer.h"
#include "common/status.h"
#include "datagen/datagen.h"
#include "server/cost_model.h"
#include "storage/io_counters.h"

namespace perfbench {

using sqlclass::JsonWriter;

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // scratch space inside the checkout
};

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Stops the run on a failed set-up or measurement step: timing a workload
/// that silently lost a step would describe a different workload.
inline void CheckOk(const sqlclass::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
                 status.ToString().c_str());
    std::exit(2);
  }
}

/// FNV-1a, printed as 16 hex digits: a stable digest of a model signature
/// that does not depend on the standard library's std::hash.
inline std::string HashHex(const std::string& data) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : data) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Wraps `sink` so it receives a seeded sample of a generated population:
/// each row is kept with probability `keep` until `limit` rows are kept,
/// and `*kept` counts them. Workloads fix the population model and let the
/// seed draw the sample, so that runs at different seeds measure one
/// workload and differ only by sampling noise.
inline sqlclass::RowSink SampleOf(const sqlclass::RowSink& sink, uint64_t seed,
                                  double keep, uint64_t limit,
                                  uint64_t* kept) {
  *kept = 0;
  auto rng = std::make_shared<std::mt19937_64>(seed);
  const auto threshold = static_cast<uint64_t>(
      keep * static_cast<double>(std::mt19937_64::max()));
  return [sink, rng, threshold, limit, kept](const sqlclass::Row& row) {
    if ((*rng)() > threshold || *kept >= limit) return sqlclass::Status::OK();
    ++*kept;
    return sink(row);
  };
}

/// Moves the calling thread to the `index`-th CPU it may run on, then lets
/// it run anywhere again; threads it starts later are not pinned. On a
/// shared host one vCPU can run far slower than the others for many
/// seconds, and the scheduler keeps a busy thread where it is. Starting
/// each timed operation on the next CPU in turn makes every run meet that
/// CPU equally often, instead of some runs meeting it for every operation.
inline void StartOnCpu(int index) {
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    sched_getaffinity(0, sizeof(set), &set);
    return set;
  }();
  const int count = CPU_COUNT(&allowed);
  if (count < 2) return;
  int nth = index % count;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || nth-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
    sched_setaffinity(0, sizeof(allowed), &allowed);
    return;
  }
}

inline double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Writes every CostCounters field by name, in declaration order.
inline void WriteCost(JsonWriter* json, const sqlclass::CostCounters& c) {
  json->BeginObject();
  auto field = [json](const char* name, const std::atomic<uint64_t>& v) {
    json->Key(name);
    json->Int(v.load());
  };
  field("server_scans", c.server_scans);
  field("server_rows_evaluated", c.server_rows_evaluated);
  field("cursor_rows_transferred", c.cursor_rows_transferred);
  field("cursor_values_transferred", c.cursor_values_transferred);
  field("server_groupby_rows", c.server_groupby_rows);
  field("temp_table_rows_written", c.temp_table_rows_written);
  field("index_probes", c.index_probes);
  field("index_rows_inserted", c.index_rows_inserted);
  field("result_rows_returned", c.result_rows_returned);
  field("mw_file_rows_written", c.mw_file_rows_written);
  field("mw_file_rows_read", c.mw_file_rows_read);
  field("mw_memory_rows_read", c.mw_memory_rows_read);
  field("mw_cc_updates", c.mw_cc_updates);
  field("mw_bitmap_words_read", c.mw_bitmap_words_read);
  field("mw_bitmap_and_ops", c.mw_bitmap_and_ops);
  field("mw_bitmap_popcounts", c.mw_bitmap_popcounts);
  field("mw_sample_rows_read", c.mw_sample_rows_read);
  field("mw_shard_rows_read", c.mw_shard_rows_read);
  field("mw_shard_merge_cells", c.mw_shard_merge_cells);
  json->EndObject();
}

inline void WriteIo(JsonWriter* json, const sqlclass::IoCounters& io) {
  json->BeginObject();
  json->Key("pages_read");
  json->Int(io.pages_read);
  json->Key("pages_written");
  json->Int(io.pages_written);
  json->Key("checksum_failures");
  json->Int(io.checksum_failures);
  json->EndObject();
}

inline sqlclass::IoCounters IoDelta(const sqlclass::IoCounters& after,
                                    const sqlclass::IoCounters& before) {
  sqlclass::IoCounters d;
  d.pages_read = after.pages_read - before.pages_read;
  d.pages_written = after.pages_written - before.pages_written;
  d.rows_read = after.rows_read - before.rows_read;
  d.rows_written = after.rows_written - before.rows_written;
  d.checksum_failures = after.checksum_failures - before.checksum_failures;
  return d;
}

/// In-memory span log of the traced run: one span per call across a layer
/// boundary, parented to the grow or session that caused it. Written out
/// once, when the run ends.
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    int parent = -1;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    const char* path = "";  // serving path of a fulfill span
    uint64_t nodes = 0;
    uint64_t rows = 0;
    uint64_t batches = 0;
  };

  int Begin(const char* name, int parent) {
    Span span;
    span.name = name;
    span.parent = parent;
    span.start_ns = NowNs();
    spans_.push_back(span);
    return static_cast<int>(spans_.size()) - 1;
  }
  Span& End(int id) {
    spans_[id].end_ns = NowNs();
    return spans_[id];
  }
  /// Appends a span timed by the caller (from another thread's clock reads).
  int Add(const Span& span) {
    spans_.push_back(span);
    return static_cast<int>(spans_.size()) - 1;
  }

  void Write(JsonWriter* json) const {
    json->BeginArray();
    for (const Span& s : spans_) {
      json->BeginObject();
      json->Key("name");
      json->String(s.name);
      json->Key("parent");
      json->Int(static_cast<uint64_t>(s.parent + 1));  // 0 = no parent
      json->Key("start_ns");
      json->Int(s.start_ns);
      json->Key("end_ns");
      json->Int(s.end_ns);
      json->Key("path");
      json->String(s.path);
      json->Key("nodes");
      json->Int(s.nodes);
      json->Key("rows");
      json->Int(s.rows);
      json->Key("batches");
      json->Int(s.batches);
      json->EndObject();
    }
    json->EndArray();
  }

 private:
  std::vector<Span> spans_;
};

/// One timed operation: a census grow or a service session.
struct OpRecord {
  std::string kind;  // "grow", "tree4", "tree6", "tree8", "nb"
  bool ok = false;
  bool traced = false;
  uint64_t wall_ns = 0;
  double sim_s = 0;
  std::string hash;
  sqlclass::CostCounters cost;
  double queue_wait_ms = 0;  // service sessions only
  double run_ms = 0;
  uint64_t scans = 0;
  uint64_t requests = 0;
};

inline void WriteOps(JsonWriter* json, const std::vector<OpRecord>& ops) {
  json->BeginArray();
  for (const OpRecord& op : ops) {
    json->BeginObject();
    json->Key("kind");
    json->String(op.kind);
    json->Key("ok");
    json->Bool(op.ok);
    json->Key("traced");
    json->Bool(op.traced);
    json->Key("wall_ns");
    json->Int(op.wall_ns);
    json->Key("sim_s");
    json->Double(op.sim_s);
    json->Key("hash");
    json->String(op.hash);
    json->Key("cost");
    WriteCost(json, op.cost);
    json->Key("queue_wait_us");
    json->Int(static_cast<uint64_t>(op.queue_wait_ms * 1000.0));
    json->Key("run_us");
    json->Int(static_cast<uint64_t>(op.run_ms * 1000.0));
    json->Key("scans");
    json->Int(op.scans);
    json->Key("requests");
    json->Int(op.requests);
    json->EndObject();
  }
  json->EndArray();
}

/// Set-up repetitions timed per run; the reported set-up time is their
/// median, so one slow file-system call does not decide it.
constexpr int kSetupReps = 5;

struct SetupTiming {
  uint64_t load_ns = 0;
  uint64_t bitmap_build_ns = 0;
  uint64_t shard_build_ns = 0;
};

inline void WriteSetups(JsonWriter* json, const std::vector<SetupTiming>& v) {
  json->BeginArray();
  for (const SetupTiming& s : v) {
    json->BeginObject();
    json->Key("load_ns");
    json->Int(s.load_ns);
    json->Key("bitmap_build_ns");
    json->Int(s.bitmap_build_ns);
    json->Key("shard_build_ns");
    json->Int(s.shard_build_ns);
    json->EndObject();
  }
  json->EndArray();
}

}  // namespace perfbench

#endif  // SQLCLASS_PERFBENCH_HARNESS_H_
