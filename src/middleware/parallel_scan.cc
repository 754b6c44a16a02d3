#include "middleware/parallel_scan.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#include "common/fault_injector.h"
#include "storage/heap_file.h"
#include "storage/row_batch.h"

namespace sqlclass {

namespace {

/// Morsels per worker in one segment of a staging or bounded scan: enough
/// that segment barriers stay rare, few enough that one segment's staged
/// rows stay a small buffer and a recount stays short.
constexpr size_t kSegmentMorselsPerWorker = 8;

/// What one worker counted in the current segment.
struct WorkerTally {
  std::vector<CcTable> ccs;
  std::vector<uint64_t> node_matches;
  uint64_t rows_scanned = 0;
  uint64_t rows_delivered = 0;
  uint64_t cc_updates = 0;
  Status status;
};

/// One segment's staged rows, [morsel in segment][staged node] -> values.
using StageBuffers = std::vector<std::vector<Value>>;

/// The segmented scan behind both ParallelCountScan entry points.
/// `visit(slot, morsel, on_row)` reads one morsel with worker `slot`'s
/// reader, calling on_row(const Value*) per row in source order.
template <typename VisitMorsel>
class SegmentedScan {
 public:
  SegmentedScan(const ParallelScanOptions& options, int num_columns,
                size_t num_morsels, int workers, VisitMorsel visit)
      : options_(options),
        num_columns_(num_columns),
        num_morsels_(num_morsels),
        workers_(workers),
        visit_(std::move(visit)) {}

  StatusOr<ParallelScanResult> Run(ThreadPool* pool, CostCounters* cost) {
    const size_t n = options_.node_attrs.size();
    result_.ccs.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      result_.ccs.emplace_back(options_.num_classes);
    }
    result_.evicted.assign(n, CcEviction::kNone);
    result_.observed_bytes.assign(n, 0);
    result_.node_matches.assign(n, 0);
    live_.assign(n, 1);
    stage_slot_.assign(n, -1);
    for (size_t i = 0; i < options_.staged.size() && i < n; ++i) {
      if (!options_.staged[i]) continue;
      stage_slot_[i] = static_cast<int>(staged_nodes_.size());
      staged_nodes_.push_back(i);
    }
    tallies_.resize(workers_);
    for (WorkerTally& tally : tallies_) {
      for (size_t i = 0; i < n; ++i) {
        tally.ccs.emplace_back(options_.num_classes);
      }
      tally.node_matches.assign(n, 0);
    }

    // An unbounded scan that stages nothing has no reason to stop: one
    // segment, no barriers.
    const bool bounded =
        options_.cc_available != std::numeric_limits<size_t>::max();
    const size_t segment =
        bounded || !staged_nodes_.empty()
            ? static_cast<size_t>(workers_) * kSegmentMorselsPerWorker
            : std::max<size_t>(num_morsels_, 1);
    StageBuffers filling(segment * staged_nodes_.size());
    StageBuffers committing(filling.size());
    uint64_t delivered = 0;  // rows delivered before the current segment
    for (size_t begin = 0; begin < num_morsels_; begin += segment) {
      segment_begin_ = begin;
      segment_end_ = std::min(num_morsels_, begin + segment);
      next_morsel_.store(begin, std::memory_order_relaxed);
      for (WorkerTally& tally : tallies_) {
        for (CcTable& cc : tally.ccs) cc.Clear();
        std::fill(tally.node_matches.begin(), tally.node_matches.end(), 0);
        tally.rows_scanned = tally.rows_delivered = tally.cc_updates = 0;
      }
      // The previous segment's staged rows are appended while the pool
      // counts this one (staging never depends on eviction, so it is never
      // redone). A scan that stages has this thread join the counting as
      // worker 0 once it has committed, so exactly `workers_` threads stay
      // busy; one that does not leaves all counting to the pool.
      const int first_pooled = staged_nodes_.empty() && workers_ > 1 ? 0 : 1;
      for (int w = first_pooled; w < workers_; ++w) {
        pool->Submit([this, w, &filling] { Work(w, &filling); });
      }
      const Status committed = Commit(&committing);
      if (!committed.ok()) {
        failed_.store(true, std::memory_order_relaxed);
      } else if (first_pooled == 1) {
        Work(0, &filling);
      }
      if (workers_ > 1) pool->WaitIdle();
      SQLCLASS_RETURN_IF_ERROR(committed);
      for (WorkerTally& tally : tallies_) {
        SQLCLASS_RETURN_IF_ERROR(tally.status);
      }
      SQLCLASS_ASSIGN_OR_RETURN(const uint64_t segment_delivered,
                                FoldSegment(bounded, delivered, cost));
      delivered += segment_delivered;
      std::swap(filling, committing);
    }
    SQLCLASS_RETURN_IF_ERROR(Commit(&committing));
    return std::move(result_);
  }

 private:
  void Work(int slot, StageBuffers* buffers) {
    WorkerTally& tally = tallies_[slot];
    std::vector<int> matches;
    while (!failed_.load(std::memory_order_relaxed)) {
      const size_t m = next_morsel_.fetch_add(1, std::memory_order_relaxed);
      if (m >= segment_end_) return;
      std::vector<Value>* stage_rows =
          buffers->data() + (m - segment_begin_) * staged_nodes_.size();
      Status status = visit_(slot, m, [&](const Value* row) {
        CountRow(row, &matches, &tally, stage_rows);
      });
      if (!status.ok()) {
        tally.status = std::move(status);
        failed_.store(true, std::memory_order_relaxed);
        return;
      }
    }
  }

  void CountRow(const Value* row, std::vector<int>* matches,
                WorkerTally* tally, std::vector<Value>* stage_rows) {
    ++tally->rows_scanned;
    if (options_.filter != nullptr && !options_.filter->Eval(row)) return;
    ++tally->rows_delivered;
    options_.matcher->Match(row, matches);
    for (int pos : *matches) {
      if (live_[pos]) {
        const std::vector<int>& attrs = *options_.node_attrs[pos];
        tally->ccs[pos].AddRow(row, attrs, options_.class_column);
        tally->cc_updates += attrs.size();
        ++tally->node_matches[pos];
      }
      if (stage_slot_[pos] >= 0) {
        std::vector<Value>& out = stage_rows[stage_slot_[pos]];
        out.insert(out.end(), row, row + num_columns_);
      }
    }
  }

  // Appends one segment's staged rows, one call per staged node, in
  // morsel order — the order a one-row-at-a-time scan appends them in.
  Status Commit(StageBuffers* buffers) {
    const size_t stride = staged_nodes_.size();
    for (size_t j = 0; j < stride; ++j) {
      gather_.clear();
      for (size_t k = j; k < buffers->size(); k += stride) {
        std::vector<Value>& rows = (*buffers)[k];
        gather_.insert(gather_.end(), rows.begin(), rows.end());
        rows.clear();
      }
      if (gather_.empty()) continue;
      SQLCLASS_RETURN_IF_ERROR(options_.stage(
          staged_nodes_[j], gather_.data(), gather_.size() / num_columns_));
    }
    return Status::OK();
  }

  // Folds the segment's partial tables into the result and charges it;
  // returns the rows it delivered. The overflow checks a one-row-at-a-time
  // scan makes inside the segment could only have fired if the merged
  // tables overflow — ApproxBytes never decreases as rows are added — so
  // only then is the segment recounted with the checks at their rows.
  StatusOr<uint64_t> FoldSegment(bool bounded, uint64_t delivered_before,
                                 CostCounters* cost) {
    uint64_t scanned = 0;
    uint64_t delivered = 0;
    for (const WorkerTally& tally : tallies_) {
      scanned += tally.rows_scanned;
      delivered += tally.rows_delivered;
    }
    const uint64_t interval = std::max<uint64_t>(options_.check_interval, 1);
    const bool checked =
        bounded && delivered_before / interval !=
                       (delivered_before + delivered) / interval;
    uint64_t cc_updates = 0;
    if (MergeWithin(checked ? options_.cc_available
                            : std::numeric_limits<size_t>::max())) {
      for (const WorkerTally& tally : tallies_) {
        cc_updates += tally.cc_updates;
        for (size_t i = 0; i < tally.node_matches.size(); ++i) {
          result_.node_matches[i] += tally.node_matches[i];
        }
      }
    } else {
      SQLCLASS_ASSIGN_OR_RETURN(cc_updates, Recount(delivered_before));
    }
    result_.rows_scanned += scanned;
    result_.rows_delivered += delivered;
    result_.cc_updates += cc_updates;
    if (cost != nullptr) {
      if (options_.charge.server_row_evaluated) {
        cost->server_rows_evaluated += scanned;
      }
      if (options_.charge.cursor_transfer) {
        cost->cursor_rows_transferred += delivered;
        cost->cursor_values_transferred +=
            delivered * static_cast<uint64_t>(num_columns_);
      }
      if (options_.charge.mw_file_read) cost->mw_file_rows_read += delivered;
      if (options_.charge.mw_memory_read) {
        cost->mw_memory_rows_read += delivered;
      }
      cost->mw_cc_updates += cc_updates;
    }
    return delivered;
  }

  // Merges the partial tables, in worker order, into the live nodes'
  // tables if the result stays within `limit` bytes; otherwise leaves them
  // untouched and returns false. Cheap test first: the merged tables hold
  // at most the sum of their parts' cells.
  bool MergeWithin(size_t limit) {
    const size_t n = result_.ccs.size();
    size_t bound = 0;
    for (size_t i = 0; i < n; ++i) {
      if (!live_[i]) continue;
      bound += result_.ccs[i].ApproxBytes();
      for (const WorkerTally& tally : tallies_) {
        bound += tally.ccs[i].ApproxBytes();
      }
    }
    if (bound <= limit) {
      for (size_t i = 0; i < n; ++i) {
        if (!live_[i]) continue;
        for (const WorkerTally& tally : tallies_) {
          result_.ccs[i].Merge(tally.ccs[i]);
        }
      }
      return true;
    }
    std::vector<CcTable> merged;
    merged.reserve(n);
    size_t used = 0;
    for (size_t i = 0; i < n; ++i) {
      merged.push_back(result_.ccs[i]);
      if (!live_[i]) continue;
      for (const WorkerTally& tally : tallies_) {
        merged.back().Merge(tally.ccs[i]);
      }
      used += merged.back().ApproxBytes();
    }
    if (used > limit) return false;
    result_.ccs = std::move(merged);
    return true;
  }

  // Counts the current segment again on this thread, one row at a time,
  // running the overflow check after every `check_interval`-th delivered
  // row of the scan, exactly as a serial scan would. Rows are not charged
  // or staged again. Returns the CC updates made.
  StatusOr<uint64_t> Recount(uint64_t delivered) {
    const uint64_t interval = std::max<uint64_t>(options_.check_interval, 1);
    uint64_t cc_updates = 0;
    std::vector<int> matches;
    for (size_t m = segment_begin_; m < segment_end_; ++m) {
      SQLCLASS_RETURN_IF_ERROR(visit_(0, m, [&](const Value* row) {
        if (options_.filter != nullptr && !options_.filter->Eval(row)) return;
        options_.matcher->Match(row, &matches);
        for (int pos : matches) {
          if (!live_[pos]) continue;
          const std::vector<int>& attrs = *options_.node_attrs[pos];
          result_.ccs[pos].AddRow(row, attrs, options_.class_column);
          cc_updates += attrs.size();
          ++result_.node_matches[pos];
        }
        if (++delivered % interval != 0) return;
        EvictOverflow(options_.cc_available, &result_.ccs, &result_.evicted,
                      &result_.observed_bytes);
        for (size_t i = 0; i < live_.size(); ++i) {
          live_[i] = result_.evicted[i] == CcEviction::kNone;
        }
      }));
    }
    return cc_updates;
  }

  const ParallelScanOptions& options_;
  const int num_columns_;
  const size_t num_morsels_;
  const int workers_;
  VisitMorsel visit_;

  ParallelScanResult result_;
  // live_[i]: node i is still counted. Written only between segments.
  std::vector<char> live_;
  std::vector<int> stage_slot_;       // per node: index in staged_nodes_
  std::vector<size_t> staged_nodes_;  // nodes that stage, in node order
  std::vector<WorkerTally> tallies_;
  std::vector<Value> gather_;  // one node's staged rows of one segment
  size_t segment_begin_ = 0;
  size_t segment_end_ = 0;
  std::atomic<size_t> next_morsel_{0};
  std::atomic<bool> failed_{false};
};

template <typename VisitMorsel>
StatusOr<ParallelScanResult> RunSegmented(ThreadPool* pool,
                                          const ParallelScanOptions& options,
                                          int num_columns, size_t num_morsels,
                                          int workers, CostCounters* cost,
                                          VisitMorsel visit) {
  SegmentedScan<VisitMorsel> scan(options, num_columns, num_morsels, workers,
                                  std::move(visit));
  return scan.Run(pool, cost);
}

int WorkerCount(ThreadPool* pool, size_t num_morsels) {
  const size_t threads = pool != nullptr ? pool->size() : 1;
  return static_cast<int>(std::max<size_t>(1, std::min(threads, num_morsels)));
}

}  // namespace

void EvictOverflow(size_t available, std::vector<CcTable>* ccs,
                   std::vector<CcEviction>* evicted,
                   std::vector<size_t>* observed_bytes) {
  const int n = static_cast<int>(ccs->size());
  int live = static_cast<int>(
      std::count(evicted->begin(), evicted->end(), CcEviction::kNone));
  while (live > 0) {
    size_t used = 0;
    int biggest = -1;
    size_t biggest_bytes = 0;
    for (int i = 0; i < n; ++i) {
      if ((*evicted)[i] != CcEviction::kNone) continue;
      const size_t bytes = (*ccs)[i].ApproxBytes();
      used += bytes;
      if (bytes >= biggest_bytes) {
        biggest_bytes = bytes;
        biggest = i;
      }
    }
    if (used <= available || biggest < 0) break;
    (*observed_bytes)[biggest] = biggest_bytes;
    (*evicted)[biggest] =
        live == 1 ? CcEviction::kSqlFallback : CcEviction::kRequeue;
    (*ccs)[biggest] = CcTable((*ccs)[biggest].num_classes());
    --live;
  }
}

StatusOr<ParallelScanResult> ParallelCountScan::OverHeapFile(
    ThreadPool* pool, const std::string& path, int num_columns,
    const ParallelScanOptions& options, CostCounters* cost, IoCounters* io) {
  // Per-worker physical counters: IoCounters is a plain struct, so workers
  // must not share one.
  std::vector<IoCounters> local_io(pool != nullptr ? pool->size() : 1);
  SQLCLASS_ASSIGN_OR_RETURN(
      std::unique_ptr<HeapFileReader> first,
      HeapFileReader::Open(path, num_columns, &local_io[0]));
  const std::vector<PageRange> morsels =
      MakePageMorsels(first->num_pages(), options.pages_per_morsel);
  const int workers = WorkerCount(pool, morsels.size());

  std::vector<std::unique_ptr<HeapFileReader>> readers;
  readers.reserve(workers);
  readers.push_back(std::move(first));
  for (int w = 1; w < workers; ++w) {
    SQLCLASS_ASSIGN_OR_RETURN(
        std::unique_ptr<HeapFileReader> reader,
        HeapFileReader::Open(path, num_columns, &local_io[w]));
    readers.push_back(std::move(reader));
  }
  std::vector<RowBatch> batches(workers);
  const uint64_t slots_per_page =
      SlotsPerPage(RowCodec(num_columns).row_bytes());
  auto visit = [&](int slot, size_t m, auto&& on_row) -> Status {
    RowBatch& batch = batches[slot];
    for (uint64_t page = morsels[m].begin; page < morsels[m].end; ++page) {
      if (options.page_fault_point != nullptr) {
        SQLCLASS_FAULT_POINT(options.page_fault_point);
      }
      SQLCLASS_RETURN_IF_ERROR(readers[slot]->ReadPageInto(page, &batch));
      if (!options.row_filter) {
        for (size_t r = 0; r < batch.num_rows(); ++r) on_row(batch.RowAt(r));
        continue;
      }
      const uint64_t first_ordinal = page * slots_per_page;
      for (size_t r = 0; r < batch.num_rows(); ++r) {
        if (options.row_filter(first_ordinal + r)) on_row(batch.RowAt(r));
      }
    }
    return Status::OK();
  };
  StatusOr<ParallelScanResult> result = RunSegmented(
      pool, options, num_columns, morsels.size(), workers, cost, visit);
  if (io != nullptr) {
    for (const IoCounters& local : local_io) io->Add(local);
  }
  return result;
}

StatusOr<ParallelScanResult> ParallelCountScan::OverRows(
    ThreadPool* pool, const Value* rows, size_t num_rows, int num_columns,
    const ParallelScanOptions& options, CostCounters* cost) {
  const size_t per_morsel = std::max<size_t>(options.rows_per_morsel, 1);
  const size_t num_morsels = (num_rows + per_morsel - 1) / per_morsel;
  auto visit = [&](int, size_t m, auto&& on_row) -> Status {
    const size_t end = std::min(num_rows, (m + 1) * per_morsel);
    for (size_t r = m * per_morsel; r < end; ++r) {
      on_row(rows + r * num_columns);
    }
    return Status::OK();
  };
  return RunSegmented(pool, options, num_columns, num_morsels,
                      WorkerCount(pool, num_morsels), cost, visit);
}

}  // namespace sqlclass
