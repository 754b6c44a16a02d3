#include "service/shared_scan_batcher.h"

#include <algorithm>
#include <utility>

#include "middleware/bitmap_scan.h"

namespace sqlclass {

SharedScanBatcher::SharedScanBatcher(SqlServer* server, Mutex* server_mu,
                                     const ServiceConfig& config)
    : server_(server),
      server_mu_(server_mu),
      config_(config),
      executor_(server, config, /*staging=*/nullptr) {}

Status SharedScanBatcher::RegisterTable(const std::string& table) {
  Schema schema;
  uint64_t rows = 0;
  {
    MutexLock server_lock(*server_mu_);
    SQLCLASS_ASSIGN_OR_RETURN(const Schema* s, server_->GetSchema(table));
    if (!s->has_class_column()) {
      return Status::InvalidArgument("table has no class column: " + table);
    }
    schema = *s;
    SQLCLASS_ASSIGN_OR_RETURN(rows, server_->TableRowCount(table));
  }

  MutexLock lock(mu_);
  auto [it, added] = tables_.try_emplace(table);
  TableState& t = it->second;
  if (added) {
    t.schema = std::move(schema);
  } else if (t.schema != schema) {
    // Scans and sessions read the cached schema without mu_; it never
    // changes once registered.
    return Status::AlreadyExists(
        "table registered with a different schema: " + table);
  }
  t.rows = rows;
  return Status::OK();
}

const Schema* SharedScanBatcher::GetSchema(const std::string& table) const {
  MutexLock lock(mu_);
  auto it = tables_.find(table);
  return it == tables_.end() ? nullptr : &it->second.schema;
}

uint64_t SharedScanBatcher::TableRows(const std::string& table) const {
  MutexLock lock(mu_);
  auto it = tables_.find(table);
  return it == tables_.end() ? 0 : it->second.rows;
}

Status SharedScanBatcher::RegisterSession(SessionId id,
                                          const std::string& table,
                                          size_t quota_bytes) {
  MutexLock lock(mu_);
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    return Status::InvalidArgument("table not registered: " + table);
  }
  if (sessions_.count(id) != 0) {
    return Status::InvalidArgument("session already registered");
  }
  SessionState state;
  state.table = table;
  state.quota_bytes = quota_bytes;
  sessions_.emplace(id, std::move(state));
  // No wake-up: one more session that does not wait cannot start a scan.
  ++it->second.sessions_registered;
  return Status::OK();
}

void SharedScanBatcher::UnregisterSession(SessionId id) {
  MutexLock lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  TableState& t = tables_.at(it->second.table);
  auto& pending = t.pending;
  pending.erase(std::remove_if(pending.begin(), pending.end(),
                               [id](const PendingReq& p) {
                                 return p.session == id;
                               }),
                pending.end());
  if (it->second.waiting) --t.sessions_waiting;
  --t.sessions_registered;
  sessions_.erase(it);
  cv_.NotifyAll();  // waiters must re-evaluate without this rider
}

Status SharedScanBatcher::Enqueue(SessionId id, CcRequest request) {
  MutexLock lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::InvalidArgument("session not registered");
  }
  SessionState& s = it->second;
  if (!s.error.ok()) return s.error;
  TableState& t = tables_.at(s.table);

  SQLCLASS_RETURN_IF_ERROR(PrepareRequest(t.schema, t.rows, &request));
  PendingReq p;
  p.session = id;
  p.request = std::move(request);
  t.pending.push_back(std::move(p));
  ++s.outstanding;
  return Status::OK();
}

StatusOr<std::vector<CcResult>> SharedScanBatcher::Fulfill(SessionId id) {
  MutexLock lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::InvalidArgument("session not registered");
  }
  SessionState& s = it->second;
  TableState& t = tables_.at(s.table);

  while (true) {
    if (!s.error.ok()) {
      // Sticky: outstanding stays non-zero, so a client loop that keys on
      // PendingRequests() keeps seeing the error instead of silently
      // finishing with a partial model.
      return s.error;
    }
    if (!s.outbox.empty()) {
      std::vector<CcResult> results = std::move(s.outbox);
      s.outbox.clear();
      s.outstanding -= results.size();
      return results;
    }
    if (s.outstanding == 0) {
      return std::vector<CcResult>();
    }

    if (!config_.enable_scan_sharing) {
      // Private scans: serve only this session's queued requests, no
      // cross-session gathering (still one scan per wave per session).
      RunScan(s.table, id);
      continue;
    }

    if (!s.waiting) {
      s.waiting = true;
      ++t.sessions_waiting;
    }

    // The scan-start rule: every registered session is blocked here, so
    // the pending requests are the whole wave. The rule depends on table
    // state only, so the session that completes it leads the scan itself.
    if (!t.scan_in_progress && !t.pending.empty() &&
        t.sessions_waiting == t.sessions_registered) {
      RunScan(s.table, std::nullopt);
      continue;  // results (possibly for us) are deposited; re-check
    }
    cv_.Wait(lock);
  }
}

void SharedScanBatcher::RunScan(const std::string& table,
                                std::optional<SessionId> only_session) {
  TableState& t = tables_.at(table);

  std::vector<PendingReq> batch;
  if (only_session) {
    auto& pending = t.pending;
    for (PendingReq& p : pending) {
      if (p.session == *only_session) batch.push_back(std::move(p));
    }
    pending.erase(std::remove_if(pending.begin(), pending.end(),
                                 [&](const PendingReq& p) {
                                   return p.session == *only_session;
                                 }),
                  pending.end());
  } else {
    t.scan_in_progress = true;
    batch = std::move(t.pending);
    t.pending.clear();
  }
  if (batch.empty()) {
    if (!only_session) t.scan_in_progress = false;
    return;
  }

  // The TableState node and its schema are stable (tables are never
  // erased, a schema never changes once registered), so the scan can read
  // them with mu_ released. Row count is snapshotted here because
  // RegisterTable may refresh it under mu_.
  const uint64_t table_rows = t.rows;
  const uint64_t ordinal = metrics_.scans_executed + 1;
  mu_.Unlock();
  BatchExecutor::Report report;
  CostCounters delta;
  const Status scanned = CountBatch(table, t.schema, table_rows, batch,
                                    ordinal, &report, &delta);
  mu_.Lock();

  // --- Per-rider checks, then deposit results and credit costs. ---
  struct Rider {
    uint64_t requests = 0;
    size_t cc_bytes = 0;
    uint64_t cc_updates = 0;
    Status error = Status::OK();
  };
  std::map<SessionId, Rider> riders;
  const bool row_scan = report.path == BatchExecutor::Path::kRowScan;
  for (size_t i = 0; i < batch.size(); ++i) {
    const PendingReq& p = batch[i];
    Rider& rider = riders[p.session];
    ++rider.requests;
    if (!scanned.ok()) {
      rider.error = scanned;
      continue;
    }
    // Exact-count validation (the invariant the middleware enforces): a
    // mismatch poisons only the owning session, not its co-riders.
    const CcTable& cc = report.ccs[i];
    if (static_cast<uint64_t>(cc.TotalRows()) != p.request.data_size &&
        rider.error.ok()) {
      rider.error =
          Status::Internal("counted " + std::to_string(cc.TotalRows()) +
                           " rows for node " +
                           std::to_string(p.request.node_id) + ", expected " +
                           std::to_string(p.request.data_size));
    }
    rider.cc_bytes += cc.ApproxBytes();
    // Row scans did one CC update per matched row and attribute; the bitmap
    // and shard paths charge mw_bitmap_* / mw_shard_* primitives instead,
    // which the proportional share splits across riders.
    if (row_scan) {
      rider.cc_updates += static_cast<uint64_t>(cc.TotalRows()) *
                          p.request.active_attrs.size();
    }
  }

  // The proportional share excludes CC-update work, which is attributed
  // exactly (riders with small frontiers pay for their own counting).
  delta.mw_cc_updates = 0;
  for (auto& [sid, rider] : riders) {
    auto it = sessions_.find(sid);
    if (it == sessions_.end()) continue;  // unregistered mid-scan: drop
    SessionState& s = it->second;
    // The quota bounds the CC tables one session's wave materializes.
    if (rider.error.ok() && s.quota_bytes != 0 &&
        rider.cc_bytes > s.quota_bytes) {
      rider.error = Status::ResourceExhausted(
          "session CC tables (" + std::to_string(rider.cc_bytes) +
          " bytes) exceed session memory quota (" +
          std::to_string(s.quota_bytes) + " bytes)");
    }
    if (!rider.error.ok() && s.error.ok()) s.error = rider.error;
    s.credited.AddProportional(delta, rider.requests,
                               static_cast<uint64_t>(batch.size()));
    s.credited.mw_cc_updates += rider.cc_updates;
    ++s.scans;
    // The rider has results or an error to collect, so it no longer blocks
    // in Fulfill: the next scan waits until it is back with its next wave.
    if (s.waiting) {
      s.waiting = false;
      --t.sessions_waiting;
    }
  }
  uint64_t delivered = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    auto it = sessions_.find(batch[i].session);
    if (it == sessions_.end() || !riders.at(batch[i].session).error.ok()) {
      continue;
    }
    it->second.outbox.emplace_back(batch[i].request.node_id,
                                   std::move(report.ccs[i]));
    ++delivered;
  }

  ++metrics_.scans_executed;
  ++metrics_.scans_by_table[table];
  metrics_.requests_fulfilled += delivered;
  metrics_.scan_session_slots += riders.size();
  metrics_.rows_scanned += report.rows_scanned;
  metrics_ += report.counts;
  if (!scanned.ok()) ++metrics_.scan_failures;

  if (!only_session) t.scan_in_progress = false;
  cv_.NotifyAll();
}

Status SharedScanBatcher::CountBatch(const std::string& table,
                                     const Schema& schema, uint64_t table_rows,
                                     const std::vector<PendingReq>& batch,
                                     uint64_t ordinal,
                                     BatchExecutor::Report* report,
                                     CostCounters* delta) {
  MutexLock server_lock(*server_mu_);
  const CostCounters before = server_->cost_counters();
  BatchExecutor::Batch request;
  request.table = table;
  request.schema = &schema;
  request.ordinal = ordinal;
  request.plan.from_bitmap =
      config_.use_bitmap_index && server_->HasBitmapIndex(table);
  for (const PendingReq& p : batch) {
    request.requests.push_back(&p.request);
    request.plan.from_bitmap =
        request.plan.from_bitmap &&
        BitmapCountScan::Servable(p.request.predicate.get());
  }
  request.plan.from_shards = config_.sharding.enable &&
                             server_->HasShardSet(table) &&
                             table_rows >= config_.sharding.min_node_rows;
  // The index or shard set may have been rebuilt since the last scan; the
  // header / map re-read is one page.
  executor_.DropArtifactReaders();
  const Status ran = executor_.Run(request, report);
  *delta = CostCounters::Delta(server_->cost_counters(), before);
  return ran;
}

size_t SharedScanBatcher::Outstanding(SessionId id) const {
  MutexLock lock(mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? 0 : it->second.outstanding;
}

CostCounters SharedScanBatcher::CreditedCost(SessionId id) const {
  MutexLock lock(mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? CostCounters() : it->second.credited;
}

uint64_t SharedScanBatcher::ScansParticipated(SessionId id) const {
  MutexLock lock(mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? 0 : it->second.scans;
}

void SharedScanBatcher::FillMetrics(ServiceMetrics* out) const {
  MutexLock lock(mu_);
  static_cast<ScanMetrics&>(*out) = metrics_;
}

}  // namespace sqlclass
