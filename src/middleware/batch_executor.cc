#include "middleware/batch_executor.h"

#include <algorithm>
#include <span>
#include <utility>

#include "common/fault_injector.h"
#include "common/logging.h"
#include "common/retry.h"
#include "middleware/batch_matcher.h"
#include "middleware/bitmap_scan.h"
#include "middleware/parallel_scan.h"

namespace sqlclass {

namespace {

/// The per-node work list of a bitmap or shard pass, counting straight
/// into the report's CC tables.
template <typename ScanNode>
std::vector<ScanNode> ArtifactNodes(const BatchExecutor::Batch& batch,
                                    std::vector<CcTable>* ccs) {
  std::vector<ScanNode> nodes(batch.requests.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    nodes[i].predicate = batch.requests[i]->predicate.get();
    nodes[i].active_attrs = &batch.requests[i]->active_attrs;
    nodes[i].cc = &(*ccs)[i];
  }
  return nodes;
}

/// A batch node whose CC table an exact pass derives rather than counts
/// (DESIGN.md "Derived children"): the pass counts its class totals and
/// `counted` attributes, and each `derived` attribute's cells are its
/// parent's minus its `siblings'`.
struct DerivedNode {
  size_t node = 0;              // position in the batch
  std::vector<size_t> siblings;  // the rest of its sibling group
  std::vector<int> counted;      // attributes some sibling does not count
  std::vector<int> derived;      // attributes every sibling counts
};

/// One DerivedNode per complete sibling group: two or more requests that
/// share one parent table (CcRequest::parent_cc), none with an estimated
/// size, whose sizes sum to the parent's rows, so that they partition it.
/// The member with the largest data size (ties: the later) is derived; it
/// keeps its place in the trie, so delivery and staging do not change.
std::vector<DerivedNode> PlanDerivations(
    const std::vector<const CcRequest*>& requests) {
  const size_t n = requests.size();
  std::vector<DerivedNode> plan;
  std::vector<bool> grouped(n, false);
  for (size_t first = 0; first < n; ++first) {
    const CcTable* parent = requests[first]->parent_cc.get();
    if (parent == nullptr || grouped[first]) continue;
    // The group in batch order, by a linear search: a map keyed on the
    // parent's address would order groups by allocation.
    std::vector<size_t> group;
    uint64_t rows = 0;
    bool exact = true;
    for (size_t i = first; i < n; ++i) {
      if (requests[i]->parent_cc.get() != parent) continue;
      grouped[i] = true;
      group.push_back(i);
      rows += requests[i]->data_size;
      exact = exact && !requests[i]->data_size_is_estimate;
    }
    if (group.size() < 2 || !exact ||
        rows != static_cast<uint64_t>(parent->TotalRows())) {
      continue;
    }
    DerivedNode d;
    d.node = group[0];
    for (size_t i : group) {
      if (requests[i]->data_size >= requests[d.node]->data_size) d.node = i;
    }
    for (size_t i : group) {
      if (i != d.node) d.siblings.push_back(i);
    }
    for (int attr : requests[d.node]->active_attrs) {
      const bool everywhere =
          std::all_of(d.siblings.begin(), d.siblings.end(), [&](size_t i) {
            const std::vector<int>& attrs = requests[i]->active_attrs;
            return std::find(attrs.begin(), attrs.end(), attr) != attrs.end();
          });
      (everywhere ? d.derived : d.counted).push_back(attr);
    }
    if (!d.derived.empty()) plan.push_back(std::move(d));
  }
  return plan;
}

/// The most bytes the batch's CC tables can ever hold: each node's table
/// at card(p, A) cells per counted attribute, the paper's pessimistic
/// bound (Estimator::UpperBoundEntries), with the parent table's cards
/// where the request carries one and the schema's otherwise.
size_t WorstCaseBytes(const BatchExecutor::Batch& batch, int num_classes) {
  size_t entries = 0;
  for (const CcRequest* request : batch.requests) {
    for (int attr : request->active_attrs) {
      entries += static_cast<size_t>(
          request->parent_cc != nullptr
              ? request->parent_cc->DistinctValues(attr)
              : batch.schema->attribute(attr).cardinality);
    }
  }
  return entries * CcTable::BytesPerEntry(num_classes) +
         batch.requests.size() * num_classes * sizeof(int64_t);
}

}  // namespace

Status Validate(const CountingConfig& config) {
  if (config.parallel_scan_threads < 0) {
    return Status::InvalidArgument("parallel scan threads must be >= 0");
  }
  if (config.sharding.rpc_retry.max_attempts < 1) {
    return Status::InvalidArgument("shard rpc retry needs >= 1 attempt");
  }
  return Status::OK();
}

Status PrepareRequest(const Schema& schema, uint64_t table_rows,
                      CcRequest* request) {
  if (request->predicate == nullptr) request->predicate = Expr::True();
  SQLCLASS_RETURN_IF_ERROR(request->predicate->Bind(schema));
  if (request->active_attrs.empty()) {
    return Status::InvalidArgument("request with no attributes to count");
  }
  for (int attr : request->active_attrs) {
    if (attr < 0 || attr >= schema.num_columns() ||
        attr == schema.class_column()) {
      return Status::InvalidArgument("bad attribute column in request");
    }
  }
  if (request->parent_id < 0) request->data_size = table_rows;
  return Status::OK();
}

struct BatchExecutor::State {
  State(const Batch& b, Report* r, const std::vector<const Expr*>& predicates)
      : batch(b),
        report(r),
        matcher(predicates),
        num_classes(b.schema->attribute(b.schema->class_column()).cardinality),
        staging_enabled(!b.plan.staging.empty()),
        bounded(b.memory_budget != std::numeric_limits<size_t>::max()) {
    if (b.plan.source.kind != LocationKind::kServer) return;
    if (b.plan.from_sample) artifacts.push_back(Path::kSample);
    if (b.plan.from_bitmap) artifacts.push_back(Path::kBitmap);
    if (b.plan.from_shards) artifacts.push_back(Path::kShards);
  }

  const Batch& batch;
  Report* report;
  BatchMatcher matcher;
  int num_classes;
  // Ladder position: a rung, once taken, switches its path or staging off.
  std::vector<Path> artifacts;  // artifact paths still to try, in order
  bool staging_enabled;
  // The batch's complete sibling groups, planned once per Run.
  std::vector<DerivedNode> derivations;
  // Per-attempt scan state.
  const bool bounded;       // overflow checks apply at all
  size_t cc_available = 0;  // memory left for CC tables during the scan
  bool overflow_checks = false;  // a row scan checks CC memory mid-scan
  bool staging_fault = false;

  /// The derivations `path`'s pass applies. The bitmap and shard passes
  /// evict only from their finished tables (CheckOverflow), so they always
  /// derive; a row scan derives only when no §4.1.1 check can evict a
  /// node mid-scan; a sample pass never derives.
  std::span<const DerivedNode> Derivations(Path path) const {
    if (path == Path::kSample || (path == Path::kRowScan && overflow_checks)) {
      return {};
    }
    return derivations;
  }

  /// Kernel options that count every node of the batch, and nothing more:
  /// no charges, staging, filter or overflow checks.
  ParallelScanOptions CountOptions() const {
    ParallelScanOptions options;
    options.class_column = batch.schema->class_column();
    options.num_classes = num_classes;
    options.matcher = &matcher;
    options.node_attrs.reserve(batch.requests.size());
    for (const CcRequest* request : batch.requests) {
      options.node_attrs.push_back(&request->active_attrs);
    }
    return options;
  }
};

BatchExecutor::BatchExecutor(SqlServer* server, const CountingConfig& config,
                             StagingManager* staging)
    : server_(server),
      config_(config),
      scan_threads_(config.parallel_scan_threads > 0
                        ? config.parallel_scan_threads
                        : ThreadPool::HardwareConcurrency()),
      staging_(staging) {}

void BatchExecutor::DropArtifactReaders() {
  bitmap_reader_.reset();
  sample_reader_.reset();
  shard_coordinator_.reset();
}

Status BatchExecutor::Run(const Batch& batch, Report* report) {
  const int n = static_cast<int>(batch.requests.size());
  std::vector<const Expr*> predicates;
  predicates.reserve(n);
  for (const CcRequest* request : batch.requests) {
    predicates.push_back(request->predicate.get());
  }
  State st(batch, report, predicates);
  st.derivations = PlanDerivations(batch.requests);
  *report = Report();
  report->source = batch.plan.source;
  report->staged.resize(n);

  // Recovery driver: run the pass, and on a recoverable fault walk the
  // degradation ladder. Every rung is taken at most once, except the
  // bounded server retries, so the loop terminates:
  //   sample, bitmap or shard pass failed -> the next path down, finally
  //                                   the row scan over the same source
  //   staging write failed          -> rescan the same source, staging off
  //   staged source failed          -> free the store, degrade to the
  //                                    server (§4.1.2's hierarchy, upwards)
  //   server source failed          -> bounded exponential-backoff retries
  // Anything else — or the retries exhausted — fails the batch with a
  // Status that names the code, table and attempt count.
  int attempt = 1;
  while (true) {
    report->ccs.clear();
    report->ccs.reserve(n);
    for (int i = 0; i < n; ++i) report->ccs.emplace_back(st.num_classes);
    report->evicted.assign(n, Report::Eviction::kNone);
    report->observed_bytes.assign(n, 0);
    report->sample_rows.assign(n, 0);
    report->rows_scanned = 0;
    st.staging_fault = false;
    // CC tables get the memory that staged data, resident or reserved for
    // this batch's memory staging, leaves of the budget.
    size_t reserved = staging_ != nullptr ? staging_->memory_bytes_used() : 0;
    if (st.staging_enabled) {
      StatusOr<size_t> planned = BeginStaging(&st);
      if (!planned.ok()) {
        // Could not even create the stores (staging dir deleted, disk
        // full): give up staging for this batch, keep counting.
        AbortStaging(&st);
        st.staging_enabled = false;
        ++report->counts.staging_aborts;
        SQLCLASS_LOG(kWarning) << "staging disabled for batch "
                               << batch.ordinal << ": "
                               << planned.status().ToString();
        continue;
      }
      reserved += *planned;
    }
    st.cc_available =
        batch.memory_budget > reserved ? batch.memory_budget - reserved : 0;
    st.overflow_checks =
        st.bounded &&
        WorstCaseBytes(batch, st.num_classes) > st.cc_available;
    Status pass = RunPass(&st);
    if (pass.ok()) break;

    AbortStaging(&st);
    report->counts.checksum_failures += pass.code() == StatusCode::kDataLoss;
    const bool recoverable = pass.code() == StatusCode::kIoError ||
                             pass.code() == StatusCode::kDataLoss ||
                             pass.code() == StatusCode::kNotFound;
    if (!recoverable) return pass;
    const char* rung;
    if (!st.artifacts.empty()) {
      // Sample, bitmap and shard passes are optimisations, never a
      // correctness dependency: serve the same batch by the next path down
      // and drop the failed path's reader so a later batch reopens it. (A
      // shard pass fails only when the coordinator's own per-shard
      // recovery failed too.)
      const Path failed = st.artifacts.front();
      st.artifacts.erase(st.artifacts.begin());
      if (failed == Path::kSample) {
        sample_reader_.reset();
        ++report->counts.sample_fallbacks;
      } else if (failed == Path::kBitmap) {
        bitmap_reader_.reset();
        ++report->counts.bitmap_fallbacks;
      } else {
        shard_coordinator_.reset();
        ++report->counts.shard_fallbacks;
      }
      rung = "falling back to the next path";
    } else if (st.staging_fault && st.staging_enabled) {
      // A failed staged *write* poisons only the stores, not the counts.
      st.staging_enabled = false;
      ++report->counts.staging_aborts;
      rung = "rescanning with staging off";
    } else if (report->source.kind != LocationKind::kServer) {
      FreeStore(report->source, "invalidated");
      report->invalidated = report->source;
      report->source = DataLocation{LocationKind::kServer, 0};
      rung = "re-serving the staged source from the server";
    } else if (attempt < config_.scan_retry.max_attempts) {
      ++report->counts.scan_retries;
      SleepForBackoff(config_.scan_retry, attempt);
      ++attempt;
      rung = "retrying the server scan";
    } else {
      return Status(pass.code(), "batch scan over table '" + batch.table +
                                     "' failed after " +
                                     std::to_string(attempt) +
                                     " attempt(s): " + pass.message());
    }
    SQLCLASS_LOG(kWarning) << "batch " << batch.ordinal << " over '"
                           << batch.table << "' failed, " << rung << ": "
                           << pass.ToString();
  }
  // Sample CCs are bounded by the scramble, not the node: eviction applies
  // only to exact passes.
  if (report->path != Path::kSample) CheckOverflow(&st);
  SealStaging(&st);
  report->counts.bitmap_scans = report->path == Path::kBitmap;
  report->counts.shard_scans = report->path == Path::kShards;
  return Status::OK();
}

Status BatchExecutor::RunPass(State* st) {
  Status pass;
  if (st->artifacts.empty()) {
    pass = ScanPass(st);
  } else if (st->artifacts.front() == Path::kSample) {
    pass = SamplePass(st);
  } else if (st->artifacts.front() == Path::kBitmap) {
    pass = BitmapPass(st);
  } else {
    pass = ShardPass(st);
  }
  SQLCLASS_RETURN_IF_ERROR(pass);
  return DeriveTables(st);
}

// The one derivation step of every exact pass (DESIGN.md "Derived
// children"): each derived node's table gains its parent's cells minus its
// siblings' on the attributes the pass left uncounted, and the charge
// counting them would have made is made here. A bitmap pass charged them
// when it fetched the bitmaps, which it does for every active attribute.
Status BatchExecutor::DeriveTables(State* st) {
  Report* report = st->report;
  const std::span<const DerivedNode> derivations =
      st->Derivations(report->path);
  CostCounters& cost = server_->cost_counters();
  std::vector<const CcTable*> siblings;
  for (const DerivedNode& d : derivations) {
    CcTable& cc = report->ccs[d.node];
    siblings.clear();
    for (size_t i : d.siblings) siblings.push_back(&report->ccs[i]);
    const size_t cells = cc.NumEntries();
    SQLCLASS_RETURN_IF_ERROR(cc.AddDifference(
        *st->batch.requests[d.node]->parent_cc, siblings, d.derived));
    if (report->path == Path::kRowScan) {
      cost.mw_cc_updates +=
          static_cast<uint64_t>(cc.TotalRows()) * d.derived.size();
    } else if (report->path == Path::kShards) {
      cost.mw_shard_merge_cells += cc.NumEntries() - cells;
    }
  }
  report->counts.derived_nodes = derivations.size();
  return Status::OK();
}

// Rule 7: every node's *sample* CC from the table's scramble. Whether a
// sampled answer is good enough is the caller's per-node gate.
Status BatchExecutor::SamplePass(State* st) {
  const Batch& batch = st->batch;
  Report* report = st->report;
  if (sample_reader_ == nullptr) {
    SQLCLASS_ASSIGN_OR_RETURN(const std::string path,
                              server_->SampleTablePath(batch.table));
    SQLCLASS_ASSIGN_OR_RETURN(
        sample_reader_, SampleFileReader::Open(path, &server_->io_counters()));
  }
  const int num_columns = batch.schema->num_columns();
  if (sample_reader_->num_columns() != static_cast<uint32_t>(num_columns)) {
    return Status::InvalidArgument("scramble column count mismatch");
  }
  SQLCLASS_ASSIGN_OR_RETURN(const Value* rows, sample_reader_->SampleRows());
  const uint64_t sample_rows = sample_reader_->num_rows();
  SQLCLASS_ASSIGN_OR_RETURN(
      ParallelScanResult scan,
      ParallelCountScan::OverRows(nullptr, rows, sample_rows, num_columns,
                                  st->CountOptions(), /*cost=*/nullptr));
  // Every node's predicate is evaluated against every sample row, so the
  // logical charge is per node and independent of how requests were
  // batched — the same invariance contract the bitmap path keeps.
  server_->cost_counters().mw_sample_rows_read +=
      sample_rows * batch.requests.size();
  report->ccs = std::move(scan.ccs);
  report->sample_rows = std::move(scan.node_matches);
  report->rows_scanned = sample_rows;
  report->path = Path::kSample;
  return Status::OK();
}

// Rule 0: every node straight from the bitmap index. No rows flow — the
// per-word charges of BitmapCountScan::Run replace the per-row scan costs.
// The batch's nodes are counted on scan_threads_ workers.
Status BatchExecutor::BitmapPass(State* st) {
  const Batch& batch = st->batch;
  if (bitmap_reader_ == nullptr) {
    SQLCLASS_ASSIGN_OR_RETURN(const std::string path,
                              server_->BitmapIndexPath(batch.table));
    SQLCLASS_ASSIGN_OR_RETURN(
        bitmap_reader_, BitmapIndexReader::Open(path, &server_->io_counters()));
  }
  auto nodes = ArtifactNodes<BitmapCountScan::Node>(batch, &st->report->ccs);
  for (const DerivedNode& d : st->Derivations(Path::kBitmap)) {
    nodes[d.node].counted_attrs = &d.counted;
  }
  SQLCLASS_RETURN_IF_ERROR(BitmapCountScan::Run(
      bitmap_reader_.get(), *batch.schema, &nodes, &server_->cost_counters(),
      ScanPool()));
  st->report->path = Path::kBitmap;
  return Status::OK();
}

// Rule 8: fan the batch out over the table's shard set and merge the
// per-shard partial CC tables in fixed shard order. A dead shard is
// recovered inside the coordinator (replica, then primary re-scan).
Status BatchExecutor::ShardPass(State* st) {
  const Batch& batch = st->batch;
  Report* report = st->report;
  if (shard_coordinator_ == nullptr) {
    SQLCLASS_ASSIGN_OR_RETURN(const std::string heap_path,
                              server_->TableHeapPath(batch.table));
    SQLCLASS_ASSIGN_OR_RETURN(
        shard_coordinator_,
        ShardCoordinator::Open(heap_path, *batch.schema,
                               &server_->io_counters()));
  }
  auto nodes = ArtifactNodes<ShardCoordinator::Node>(batch, &report->ccs);
  for (const DerivedNode& d : st->Derivations(Path::kShards)) {
    nodes[d.node].active_attrs = &d.counted;
  }
  if (shard_transport_ == nullptr) {
    shard_transport_ = MakeShardTransport(config_.sharding, scan_threads_);
  }
  const uint64_t timeouts_before = shard_transport_->rpc_timeouts();
  const uint64_t restarts_before = shard_transport_->worker_restarts();
  ShardCoordinator::Result result;
  const Status ran =
      shard_coordinator_->Run(ScanPool(), shard_transport_.get(), &nodes,
                              &server_->cost_counters(), &result);
  // RPC hardening activity is metered even when the pass fails — the
  // fault-injection tests reconcile these against the injected faults.
  report->counts.shard_rpc_timeouts +=
      shard_transport_->rpc_timeouts() - timeouts_before;
  report->counts.shard_worker_restarts +=
      shard_transport_->worker_restarts() - restarts_before;
  SQLCLASS_RETURN_IF_ERROR(ran);
  report->rows_scanned = result.rows_scanned;
  report->counts.shard_rescans += result.rescans;
  report->counts.shard_replica_rescans += result.replica_rescans;
  report->path = Path::kShards;
  return Status::OK();
}

// The row scan of the batch's source: the one path that streams rows
// through the middleware, so the one that stages them (§4.1.2) and checks
// CC memory mid-scan (§4.1.1). It fans out over scan_threads_ workers; the
// engine's result does not depend on the worker count (DESIGN.md
// "Parallel counting").
Status BatchExecutor::ScanPass(State* st) {
  const Batch& batch = st->batch;
  Report* report = st->report;
  const Schema& schema = *batch.schema;
  const int n = static_cast<int>(batch.requests.size());
  CostCounters& cost = server_->cost_counters();
  ParallelScanOptions options = st->CountOptions();
  options.staged.resize(n);
  for (int i = 0; i < n; ++i) {
    options.staged[i] = report->staged[i].has_value();
  }
  options.stage = [&](size_t node,
                      std::span<const std::span<const Value>> runs) {
    Status appended = staging_->Append(*report->staged[node], runs);
    // Flag it so the ladder rescans the same source with staging off
    // rather than degrading the source.
    if (!appended.ok()) st->staging_fault = true;
    return appended;
  };
  // §4.1.1's overflow checks run only if one could fire. Otherwise no
  // node is evicted, every sibling table is whole, and the largest child
  // of each complete sibling group is derived rather than counted.
  if (st->overflow_checks) {
    options.cc_available = st->cc_available;
    options.check_interval = batch.overflow_check_interval;
  }
  for (const DerivedNode& d : st->Derivations(Path::kRowScan)) {
    options.node_attrs[d.node] = &d.counted;
  }

  const DataLocation& source = report->source;
  ThreadPool* pool = ScanPool();
  ParallelScanResult scan;
  if (source.kind == LocationKind::kMemory) {
    options.charge.mw_memory_read = true;
    SQLCLASS_ASSIGN_OR_RETURN(const InMemoryRowStore* store,
                              staging_->GetMemoryStore(source.store_id));
    SQLCLASS_ASSIGN_OR_RETURN(
        scan, ParallelCountScan::OverRows(pool, store->RowAt(0),
                                          store->num_rows(),
                                          store->num_columns(), options,
                                          &cost));
  } else {
    std::string path;
    IoCounters* io = nullptr;
    if (source.kind == LocationKind::kServer) {
      options.filter = config_.enable_filter_pushdown;
      options.charge.server_row_evaluated = true;
      options.charge.cursor_transfer = true;
      options.page_fault_point = faults::kServerCursorAdvance;
      ++cost.server_scans;  // what OpenCursor charges at open
      SQLCLASS_ASSIGN_OR_RETURN(path, server_->TableHeapPath(batch.table));
      io = &server_->io_counters();
    } else {
      options.charge.mw_file_read = true;
      SQLCLASS_ASSIGN_OR_RETURN(path, staging_->FileStorePath(source.store_id));
      io = &staging_->io_counters();
    }
    SQLCLASS_ASSIGN_OR_RETURN(
        scan, ParallelCountScan::OverHeapFile(pool, path, schema.num_columns(),
                                              options, &cost, io));
  }
  report->ccs = std::move(scan.ccs);
  report->evicted = std::move(scan.evicted);
  report->observed_bytes = std::move(scan.observed_bytes);
  report->rows_scanned = scan.rows_delivered;
  report->path = Path::kRowScan;
  return Status::OK();
}

// Opens fresh staging stores for the planned nodes (Rule 4: batch nodes
// only); returns the bytes this batch's memory staging will fill as the
// scan proceeds.
StatusOr<size_t> BatchExecutor::BeginStaging(State* st) {
  const Batch& batch = st->batch;
  size_t planned_memory_bytes = 0;
  for (const StageDecision& decision : batch.plan.staging) {
    DataLocation loc;
    loc.kind = decision.target;
    if (decision.target == LocationKind::kFile) {
      SQLCLASS_ASSIGN_OR_RETURN(loc.store_id, staging_->BeginFileStore());
    } else {
      loc.store_id = staging_->BeginMemoryStore();
      planned_memory_bytes +=
          batch.requests[decision.idx]->data_size * staging_->RowBytes();
    }
    st->report->staged[decision.idx] = loc;
  }
  return planned_memory_bytes;
}

// Drops every store this batch has been staging into, tolerating stores
// that half-opened before a create failure.
void BatchExecutor::AbortStaging(State* st) {
  for (std::optional<DataLocation>& stage : st->report->staged) {
    if (!stage.has_value()) continue;
    FreeStore(*stage, "aborted staging");
    stage.reset();
  }
}

// Seals staged files. A seal failure after a successful scan costs only
// the store, never the counts: drop it, and the node's descendants read
// this batch's source instead.
void BatchExecutor::SealStaging(State* st) {
  for (std::optional<DataLocation>& stage : st->report->staged) {
    if (!stage.has_value() || stage->kind != LocationKind::kFile) continue;
    Status sealed = staging_->FinishFileStore(stage->store_id);
    if (sealed.ok()) continue;
    SQLCLASS_LOG(kWarning) << "dropping staged store that failed to seal: "
                           << sealed.ToString();
    FreeStore(*stage, "unsealed");
    stage.reset();
    ++st->report->counts.staging_aborts;
  }
}

// Runtime handling of estimation error (§4.1.1) once the pass is done: an
// evicted node is normally requeued with a corrected estimate and counted
// in a later, smaller scan; only the last node standing — its CC alone
// does not fit — switches to the SQL-based server-side implementation.
void BatchExecutor::CheckOverflow(State* st) {
  if (!st->bounded) return;
  Report* report = st->report;
  EvictOverflow(st->cc_available, &report->ccs, &report->evicted,
                &report->observed_bytes);
}

void BatchExecutor::FreeStore(const DataLocation& loc, const char* what) {
  Status freed = staging_->Free(loc);
  if (!freed.ok()) {
    SQLCLASS_LOG(kWarning) << "could not free " << what
                           << " store: " << freed.ToString();
  }
}

ThreadPool* BatchExecutor::ScanPool() {
  if (scan_threads_ <= 1) return nullptr;
  if (scan_pool_ == nullptr) {
    scan_pool_ = std::make_unique<ThreadPool>(scan_threads_);
  }
  return scan_pool_.get();
}

}  // namespace sqlclass
