#include "middleware/parallel_scan.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <exception>
#include <memory>
#include <span>
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

/// Rows in one block of a row-block scan (OverRows): a cache-resident
/// slice, about the rows of a heap page (a census page holds 185).
constexpr size_t kRowsPerSlice = 256;

/// The most rows a block holds: a heap page of one-byte, one-column rows.
constexpr size_t kMaxBlockRows = SlotsPerPage(1);
static_assert(kRowsPerSlice <= kMaxBlockRows);

/// Row indexes 0, 1, 2, ...: the selection of every row of a block.
constexpr std::array<uint32_t, kMaxBlockRows> kEveryRow = [] {
  std::array<uint32_t, kMaxBlockRows> rows{};
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<uint32_t>(i);
  return rows;
}();

std::span<const uint32_t> EveryRow(size_t num_rows) {
  return {kEveryRow.data(), num_rows};
}

/// Pauses a thread waiting at a segment boundary spins through before it
/// parks: the hand-off is usually microseconds away, a futex wake-up costs
/// more than that.
constexpr int kSpinPauses = 4096;

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Returns once `word` holds a value `reached` accepts: spins through up to
/// `spins` pauses, then parks on the word until a notify changes it.
template <typename T, typename Reached>
void SpinThenWait(const std::atomic<T>& word, int spins, Reached reached) {
  for (int i = 0; i < spins; ++i) {
    if (reached(word.load(std::memory_order_acquire))) return;
    CpuRelax();
  }
  for (T v; !reached(v = word.load(std::memory_order_acquire));) {
    word.wait(v, std::memory_order_acquire);
  }
}

/// What one worker counted in the current segment, on cache lines no other
/// worker writes. A node's matched rows are its table's TotalRows().
struct alignas(64) WorkerTally {
  std::vector<CcTable> ccs;
  std::vector<uint8_t> hit;            // per block row: some node matched it
  std::vector<uint32_t> delivered;     // a block's rows some node matched
  BatchMatcher::BlockScratch matches;  // MatchBlock's selections
  uint64_t rows_scanned = 0;
  uint64_t rows_delivered = 0;
  Status status;
  std::exception_ptr thrown;  // a visit that threw, rethrown by the caller
};

/// One morsel's staged rows of one staged node. Padded: the vector header
/// is rewritten on every staged run while other workers fill the buffers
/// of the morsels next to it.
struct alignas(64) StageBuffer {
  std::vector<Value> rows;
};

/// One segment's staged rows, [morsel in segment][staged node].
using StageBuffers = std::vector<StageBuffer>;

/// How a source splits into work: its morsels, the most rows one morsel
/// and one block hold, and the workers that count it.
struct ScanShape {
  size_t num_morsels = 0;
  size_t morsel_rows = 0;
  size_t block_rows = 0;
  int workers = 1;
};

/// The segmented scan behind both ParallelCountScan entry points.
/// `visit(slot, morsel, on_block)` reads one morsel with worker `slot`'s
/// reader, calling on_block(rows, selection) per block in source order:
/// row r of a block starts at rows + r * num_columns, and `selection`
/// lists the rows to scan, ascending, at most `shape.block_rows` of them.
///
/// The pool's workers are submitted once per scan, as a crew. The calling
/// thread opens one segment at a time by raising `open_end_` and bumping
/// `generation_`; crew members claim the segment's morsels, park on
/// `generation_` when none is left, and the member finishing a segment's
/// last morsel wakes the calling thread, which waits on `done_`. Between
/// segments no crew member touches the tallies, so the calling thread
/// folds, recounts and charges them alone.
template <typename VisitMorsel>
class SegmentedScan {
 public:
  SegmentedScan(const ParallelScanOptions& options, int num_columns,
                const ScanShape& shape, VisitMorsel visit)
      : options_(options),
        num_columns_(num_columns),
        shape_(shape),
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
    // The buffers a worker fills whose size is known up front are
    // allocated here, on the calling thread: allocations made on pool
    // threads land in per-thread malloc arenas and raise peak RSS. The
    // partial tables' slabs are not: sized for every value of every
    // counted attribute, a shared service scan's hundreds of nodes would
    // hold far more than they fill.
    tallies_.resize(shape_.workers);
    for (WorkerTally& tally : tallies_) {
      for (size_t i = 0; i < n; ++i) {
        tally.ccs.emplace_back(options_.num_classes);
      }
      tally.hit.resize(shape_.block_rows);
      tally.delivered.resize(shape_.block_rows);
      options_.matcher->PrepareScratch(shape_.block_rows, &tally.matches);
    }

    // An unbounded scan that stages nothing has no reason to stop: one
    // segment, no barriers.
    const bool bounded =
        options_.cc_available != std::numeric_limits<size_t>::max();
    segment_ =
        bounded || !staged_nodes_.empty()
            ? static_cast<size_t>(shape_.workers) * kSegmentMorselsPerWorker
            : std::max<size_t>(shape_.num_morsels, 1);
    ReserveStageBuffers();
    // A scan that stages has this thread join the counting as worker 0
    // once it has committed, so exactly `shape_.workers` threads stay
    // busy; one that does not leaves all counting to the crew.
    const int first_crew = staged_nodes_.empty() && shape_.workers > 1 ? 0 : 1;
    Crew crew(this, pool);
    for (int w = first_crew; w < shape_.workers; ++w) crew.Add(w);

    uint64_t delivered = 0;  // rows delivered before the current segment
    size_t filling = 0;      // stage_ half the current segment fills
    for (size_t begin = 0; begin < shape_.num_morsels; begin += segment_) {
      segment_begin_ = begin;
      segment_end_ = std::min(shape_.num_morsels, begin + segment_);
      filling = (begin / segment_) % 2;
      for (WorkerTally& tally : tallies_) {
        for (CcTable& cc : tally.ccs) cc.Clear();
        tally.rows_scanned = tally.rows_delivered = 0;
      }
      done_.store(0, std::memory_order_relaxed);
      open_end_.store(segment_end_, std::memory_order_release);
      generation_.fetch_add(1, std::memory_order_release);
      generation_.notify_all();
      // The previous segment's staged rows are appended while the crew
      // counts this one (staging never depends on eviction, so it is never
      // redone).
      SQLCLASS_RETURN_IF_ERROR(Commit(&stage_[1 - filling]));
      if (first_crew == 1) CountClaimed(0);
      // Having counted, this thread waits only for the crew's last
      // morsels; otherwise for the whole segment, parked so that it does
      // not take a core from the crew.
      const size_t count = segment_end_ - segment_begin_;
      SpinThenWait(done_, first_crew == 1 ? kSpinPauses : 0,
                   [count](size_t done) { return done == count; });
      for (WorkerTally& tally : tallies_) {
        if (tally.thrown) std::rethrow_exception(tally.thrown);
        SQLCLASS_RETURN_IF_ERROR(tally.status);
      }
      SQLCLASS_ASSIGN_OR_RETURN(const uint64_t segment_delivered,
                                FoldSegment(bounded, delivered, cost));
      delivered += segment_delivered;
    }
    SQLCLASS_RETURN_IF_ERROR(Commit(&stage_[filling]));
    return std::move(result_);
  }

 private:
  /// The pool workers of one scan. Disbanding on destruction — the scan's
  /// end or any early return — stops every member and waits for it, so no
  /// member outlives the scan's state.
  class Crew {
   public:
    Crew(SegmentedScan* scan, ThreadPool* pool) : scan_(scan), pool_(pool) {}
    Crew(const Crew&) = delete;
    Crew& operator=(const Crew&) = delete;
    ~Crew() {
      if (members_ == 0) return;
      scan_->stopping_.store(true, std::memory_order_relaxed);
      scan_->generation_.fetch_add(1, std::memory_order_release);
      scan_->generation_.notify_all();
      pool_->WaitIdle();
    }

    void Add(int slot) {
      pool_->Submit([scan = scan_, slot] { scan->CrewMember(slot); });
      ++members_;
    }

   private:
    SegmentedScan* scan_;
    ThreadPool* pool_;
    int members_ = 0;
  };

  void CrewMember(int slot) {
    while (true) {
      const uint32_t seen = generation_.load(std::memory_order_acquire);
      if (stopping_.load(std::memory_order_relaxed)) return;
      CountClaimed(slot);
      SpinThenWait(generation_, kSpinPauses,
                   [seen](uint32_t now) { return now != seen; });
    }
  }

  // Sizes both halves of the stage buffers, each morsel's buffer of a
  // staged node for its share of the morsel's rows: what it holds when
  // the staged nodes split the rows evenly, as a frontier's disjoint nodes
  // do. A buffer that outgrows it keeps the larger capacity for its later
  // segments.
  void ReserveStageBuffers() {
    const size_t staged = staged_nodes_.size();
    if (staged == 0) return;
    const size_t share = (shape_.morsel_rows + staged - 1) / staged *
                         static_cast<size_t>(num_columns_);
    for (size_t half = 0; half < stage_.size(); ++half) {
      stage_[half].resize(segment_ * staged);
      // Segments half, half + 2, ... fill this half; the first of them
      // fills the most of its slots.
      const size_t first = half * segment_;
      const size_t used = first >= shape_.num_morsels
                              ? 0
                              : std::min(segment_, shape_.num_morsels - first);
      for (size_t k = 0; k < used * staged; ++k) {
        stage_[half][k].rows.reserve(share);
      }
    }
    runs_.reserve(segment_);
  }

  // Counts morsels of the open segment until none is left to claim.
  void CountClaimed(int slot) {
    size_t m = next_morsel_.load(std::memory_order_relaxed);
    while (!stopping_.load(std::memory_order_relaxed)) {
      if (m >= open_end_.load(std::memory_order_acquire)) return;
      if (next_morsel_.compare_exchange_weak(m, m + 1,
                                             std::memory_order_relaxed)) {
        CountMorsel(slot, m);
        m = next_morsel_.load(std::memory_order_relaxed);
      }
    }
  }

  // Counts morsel `m` into worker `slot`'s tally (or, once the scan has
  // failed, skips it) and marks it done.
  void CountMorsel(int slot, size_t m) {
    WorkerTally& tally = tallies_[slot];
    const size_t segment = m / segment_;
    if (!failed_.load(std::memory_order_relaxed)) {
      StageBuffer* stage_rows = stage_[segment % 2].data() +
                                (m - segment * segment_) * staged_nodes_.size();
      try {
        Status status = visit_(
            slot, m,
            [&](const Value* rows, std::span<const uint32_t> selection) {
              CountBlock(rows, selection, &tally, stage_rows);
            });
        if (!status.ok()) {
          tally.status = std::move(status);
          failed_.store(true, std::memory_order_relaxed);
        }
      } catch (...) {
        tally.thrown = std::current_exception();
        failed_.store(true, std::memory_order_relaxed);
      }
    }
    const size_t in_segment =
        std::min(shape_.num_morsels, (segment + 1) * segment_) -
        segment * segment_;
    if (done_.fetch_add(1, std::memory_order_acq_rel) + 1 == in_segment) {
      done_.notify_one();
    }
  }

  // Counts one block into `tally`: routes the selection through the trie
  // once and hands each node's rows to its partial table, one attribute
  // column at a time, and its stage buffer. Under pushdown the delivered
  // rows are the union of the nodes' hits.
  void CountBlock(const Value* rows, std::span<const uint32_t> selection,
                  WorkerTally* tally, StageBuffer* stage_rows) {
    tally->rows_scanned += selection.size();
    options_.matcher->MatchBlock(
        rows, num_columns_, selection, &tally->matches,
        [&](int pos, std::span<const uint32_t> hits) {
          if (options_.filter) {
            for (uint32_t r : hits) tally->hit[r] = 1;
          }
          if (live_[pos]) {
            tally->ccs[pos].AddRows(rows, num_columns_, hits,
                                    *options_.node_attrs[pos],
                                    options_.class_column);
          }
          if (stage_slot_[pos] >= 0) {
            Stage(rows, hits, &stage_rows[stage_slot_[pos]].rows);
          }
        });
    tally->rows_delivered +=
        options_.filter ? TakeMarked(selection, tally).size()
                        : selection.size();
  }

  // The rows of `selection` some node hit, in order, written branch-free
  // to the tally's delivered buffer; clears the hits for the next block.
  static std::span<const uint32_t> TakeMarked(
      std::span<const uint32_t> selection, WorkerTally* tally) {
    size_t n = 0;
    for (uint32_t r : selection) {
      tally->delivered[n] = r;
      n += tally->hit[r];
      tally->hit[r] = 0;
    }
    return {tally->delivered.data(), n};
  }

  // Appends rows `hits` of a block to `out`, each run of consecutive rows
  // with one copy.
  void Stage(const Value* rows, std::span<const uint32_t> hits,
             std::vector<Value>* out) const {
    const size_t width = static_cast<size_t>(num_columns_);
    for (size_t i = 0; i < hits.size();) {
      size_t end = i + 1;
      while (end < hits.size() && hits[end] == hits[end - 1] + 1) ++end;
      const Value* first = rows + hits[i] * width;
      out->insert(out->end(), first, first + (end - i) * width);
      i = end;
    }
  }

  // Appends one segment's staged rows, one call per staged node with one
  // run per morsel, in morsel order — the order a one-row-at-a-time scan
  // appends them in.
  Status Commit(StageBuffers* buffers) {
    const size_t stride = staged_nodes_.size();
    for (size_t j = 0; j < stride; ++j) {
      runs_.clear();
      for (size_t k = j; k < buffers->size(); k += stride) {
        const std::vector<Value>& rows = (*buffers)[k].rows;
        if (!rows.empty()) runs_.emplace_back(rows);
      }
      if (runs_.empty()) continue;
      SQLCLASS_RETURN_IF_ERROR(options_.stage(staged_nodes_[j], runs_));
      for (size_t k = j; k < buffers->size(); k += stride) {
        (*buffers)[k].rows.clear();
      }
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
        for (size_t i = 0; i < tally.ccs.size(); ++i) {
          const uint64_t matched = tally.ccs[i].TotalRows();
          result_.node_matches[i] += matched;
          cc_updates += matched * options_.node_attrs[i]->size();
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

  // Counts the current segment again on this thread through the same
  // block path, with each block's delivered rows (under pushdown, the
  // union of one trie walk's hits) cut at the scan's `check_interval`
  // boundaries and, after each cut that ends on one, the overflow check a
  // serial scan makes there. live_ changes only at a check, so each cut
  // counts into exactly the nodes a serial scan counts those rows into.
  // Rows are not charged or staged again. Returns the CC updates made.
  StatusOr<uint64_t> Recount(uint64_t delivered) {
    const uint64_t interval = std::max<uint64_t>(options_.check_interval, 1);
    uint64_t cc_updates = 0;
    WorkerTally& scratch = tallies_[0];  // idle between segments
    for (size_t m = segment_begin_; m < segment_end_; ++m) {
      SQLCLASS_RETURN_IF_ERROR(visit_(
          0, m, [&](const Value* rows, std::span<const uint32_t> selection) {
            if (options_.filter) {
              options_.matcher->MatchBlock(
                  rows, num_columns_, selection, &scratch.matches,
                  [&](int, std::span<const uint32_t> hits) {
                    for (uint32_t r : hits) scratch.hit[r] = 1;
                  });
              selection = TakeMarked(selection, &scratch);
            }
            while (!selection.empty()) {
              const size_t cut = static_cast<size_t>(std::min<uint64_t>(
                  selection.size(), interval - delivered % interval));
              options_.matcher->MatchBlock(
                  rows, num_columns_, selection.first(cut), &scratch.matches,
                  [&](int pos, std::span<const uint32_t> hits) {
                    if (!live_[pos]) return;
                    const std::vector<int>& attrs = *options_.node_attrs[pos];
                    result_.ccs[pos].AddRows(rows, num_columns_, hits, attrs,
                                             options_.class_column);
                    result_.node_matches[pos] += hits.size();
                    cc_updates += hits.size() * attrs.size();
                  });
              selection = selection.subspan(cut);
              delivered += cut;
              if (delivered % interval != 0) continue;
              EvictOverflow(options_.cc_available, &result_.ccs,
                            &result_.evicted, &result_.observed_bytes);
              for (size_t i = 0; i < live_.size(); ++i) {
                live_[i] = result_.evicted[i] == CcEviction::kNone;
              }
            }
          }));
    }
    return cc_updates;
  }

  const ParallelScanOptions& options_;
  const int num_columns_;
  const ScanShape shape_;
  VisitMorsel visit_;

  ParallelScanResult result_;
  // live_[i]: node i is still counted. Written only between segments.
  std::vector<char> live_;
  std::vector<int> stage_slot_;       // per node: index in staged_nodes_
  std::vector<size_t> staged_nodes_;  // nodes that stage, in node order
  std::vector<WorkerTally> tallies_;
  // Staged rows by segment parity: the crew fills one half while the
  // calling thread commits the other.
  std::array<StageBuffers, 2> stage_;
  // One staged node's runs of one segment, as Commit hands them over.
  std::vector<std::span<const Value>> runs_;
  size_t segment_ = 1;         // morsels per segment
  size_t segment_begin_ = 0;   // the open segment, for the calling thread
  size_t segment_end_ = 0;

  // Crew hand-off. Morsels below open_end_ may be claimed; next_morsel_ is
  // the next unclaimed one (never reset, so a late claim cannot take a
  // morsel twice); done_ counts the open segment's finished morsels.
  alignas(64) std::atomic<size_t> next_morsel_{0};
  alignas(64) std::atomic<size_t> open_end_{0};
  alignas(64) std::atomic<size_t> done_{0};
  alignas(64) std::atomic<uint32_t> generation_{0};  // segments opened
  std::atomic<bool> stopping_{false};
  std::atomic<bool> failed_{false};
};

template <typename VisitMorsel>
StatusOr<ParallelScanResult> RunSegmented(ThreadPool* pool,
                                          const ParallelScanOptions& options,
                                          int num_columns,
                                          const ScanShape& shape,
                                          CostCounters* cost,
                                          VisitMorsel visit) {
  SegmentedScan<VisitMorsel> scan(options, num_columns, shape,
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
  // One worker's reader state, on cache lines no other worker writes:
  // IoCounters is a plain struct bumped per page, so workers must not
  // share one.
  struct alignas(64) WorkerPages {
    IoCounters io;
    RowBatch batch;
    std::vector<uint32_t> kept;  // a page's rows the row filter keeps
    std::unique_ptr<HeapFileReader> reader;
  };
  std::vector<WorkerPages> workers_pages(pool != nullptr ? pool->size() : 1);
  SQLCLASS_ASSIGN_OR_RETURN(
      workers_pages[0].reader,
      HeapFileReader::Open(path, num_columns, &workers_pages[0].io));
  // A morsel holds about the rows of pages_per_morsel four-byte pages,
  // in whole pages of the file's own width (at least one): a one-byte
  // page holds four times the rows, and morsels of as many of them would
  // make every segment's stage buffers four times larger.
  const size_t slots_per_page = workers_pages[0].reader->slots_per_page();
  const size_t wide_rows = std::max<uint64_t>(options.pages_per_morsel, 1) *
                           SlotsPerPage(RowCodec(num_columns).row_bytes());
  const uint64_t pages_per_morsel = std::max<size_t>(
      1, (wide_rows + slots_per_page / 2) / slots_per_page);
  const std::vector<PageRange> morsels = MakePageMorsels(
      workers_pages[0].reader->num_pages(), pages_per_morsel);
  const int workers = WorkerCount(pool, morsels.size());
  for (int w = 0; w < workers; ++w) {
    WorkerPages& local = workers_pages[w];
    if (w > 0) {
      SQLCLASS_ASSIGN_OR_RETURN(
          local.reader, HeapFileReader::Open(path, num_columns, &local.io));
    }
    // Sized here, not on the worker, like the scan's own buffers.
    local.batch.Reserve(num_columns, slots_per_page);
    if (options.row_filter) local.kept.resize(slots_per_page);
  }
  // A page is one block; the row filter narrows its selection.
  auto visit = [&](int slot, size_t m, auto&& on_block) -> Status {
    WorkerPages& local = workers_pages[slot];
    for (uint64_t page = morsels[m].begin; page < morsels[m].end; ++page) {
      if (options.page_fault_point != nullptr) {
        SQLCLASS_FAULT_POINT(options.page_fault_point);
      }
      SQLCLASS_RETURN_IF_ERROR(local.reader->ReadPageInto(page, &local.batch));
      std::span<const uint32_t> selection = EveryRow(local.batch.num_rows());
      if (options.row_filter) {
        const uint64_t first_ordinal = page * slots_per_page;
        size_t n = 0;
        for (uint32_t r : selection) {
          local.kept[n] = r;
          n += options.row_filter(first_ordinal + r);
        }
        selection = {local.kept.data(), n};
      }
      on_block(local.batch.RowAt(0), selection);
    }
    return Status::OK();
  };
  const ScanShape shape{morsels.size(), pages_per_morsel * slots_per_page,
                        slots_per_page, workers};
  StatusOr<ParallelScanResult> result =
      RunSegmented(pool, options, num_columns, shape, cost, visit);
  if (io != nullptr) {
    for (const WorkerPages& local : workers_pages) io->Add(local.io);
  }
  return result;
}

StatusOr<ParallelScanResult> ParallelCountScan::OverRows(
    ThreadPool* pool, const Value* rows, size_t num_rows, int num_columns,
    const ParallelScanOptions& options, CostCounters* cost) {
  const size_t per_morsel = std::max<size_t>(options.rows_per_morsel, 1);
  const size_t num_morsels = (num_rows + per_morsel - 1) / per_morsel;
  // A morsel is cut into slices of kRowsPerSlice rows, one block each.
  auto visit = [&](int, size_t m, auto&& on_block) -> Status {
    const size_t end = std::min(num_rows, (m + 1) * per_morsel);
    for (size_t r = m * per_morsel; r < end; r += kRowsPerSlice) {
      on_block(rows + r * num_columns,
               EveryRow(std::min(kRowsPerSlice, end - r)));
    }
    return Status::OK();
  };
  const ScanShape shape{num_morsels, std::min(per_morsel, num_rows),
                        kRowsPerSlice, WorkerCount(pool, num_morsels)};
  return RunSegmented(pool, options, num_columns, shape, cost, visit);
}

}  // namespace sqlclass
