#ifndef SQLCLASS_MIDDLEWARE_PARALLEL_SCAN_H_
#define SQLCLASS_MIDDLEWARE_PARALLEL_SCAN_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "middleware/batch_matcher.h"
#include "mining/cc_table.h"
#include "server/cost_model.h"
#include "storage/io_counters.h"

namespace sqlclass {

/// Which logical costs a counting scan charges per row, so the one engine
/// stands in for each scan shape the paper meters:
///  * a server cursor scan (every row evaluated at the server, passing
///    rows additionally paying the cursor transfer),
///  * a staged-file scan (one middleware file read per row),
///  * a memory-store scan (one middleware memory read per row).
/// CC updates are always charged per matched (node, attribute) bump.
/// Totals are sums over the same row set a one-row-at-a-time scan touches,
/// so they are identical at any thread count.
struct ScanCharge {
  bool server_row_evaluated = false;  // ++server_rows_evaluated per row
  bool cursor_transfer = false;       // transfer charges per delivered row
  bool mw_file_read = false;          // ++mw_file_rows_read per delivered row
  bool mw_memory_read = false;        // ++mw_memory_rows_read per row
};

/// Why a node's CC table was dropped mid-batch under CC-memory pressure
/// (§4.1.1): a requeued node is counted again in a later batch, the last
/// node left falls back to the server's SQL.
enum class CcEviction : uint8_t { kNone, kRequeue, kSqlFallback };

/// §4.1.1's runtime handling of estimation error: while the tables of the
/// nodes not yet evicted hold more than `available` bytes, evicts the
/// largest (ties: the later node) — clears its table, records its size in
/// `observed_bytes` and marks it kRequeue, or kSqlFallback when it is the
/// last node standing. All three vectors are indexed by node.
void EvictOverflow(size_t available, std::vector<CcTable>* ccs,
                   std::vector<CcEviction>* evicted,
                   std::vector<size_t>* observed_bytes);

struct ParallelScanOptions {
  /// Morsel granularity. Heap-file scans hand out page ranges of about
  /// the rows of `pages_per_morsel` four-byte pages (whole pages of the
  /// file's width, at least one); row blocks hand out row ranges. Within a
  /// morsel rows are counted a block at a time: a heap page, or a slice of
  /// a row block.
  uint64_t pages_per_morsel = 4;
  size_t rows_per_morsel = 8192;

  int class_column = -1;
  int num_classes = 0;

  /// Routes rows to batch nodes; read-only and shared by all workers.
  const BatchMatcher* matcher = nullptr;

  /// node_attrs[i]: attribute columns counted for the node behind matcher
  /// predicate i. Pointees must outlive the scan.
  std::vector<const std::vector<int>*> node_attrs;

  /// Server-side pushdown of the nodes' OR (§4.3.1): rows no node matches
  /// are charged the per-row evaluation but not delivered — the
  /// ServerCursor contract. Off: every row is delivered.
  bool filter = false;

  ScanCharge charge;

  /// Fault point crossed once per heap page read, before the read (server
  /// scans cross `server/cursor_advance`, the cursor's point). Null: none.
  const char* page_fault_point = nullptr;

  /// Heap-file scans only: rows whose ordinal (their Tid, page x
  /// slots_per_page() + slot) fails it are skipped before they are scanned,
  /// so they are neither counted nor charged. Empty: every row.
  std::function<bool(uint64_t row_ordinal)> row_filter;

  /// §4.1.2 staging. staged[i]: node i's delivered matching rows are also
  /// handed to `stage`, on the calling thread, in source order, one call
  /// per node and segment with one run of whole rows per morsel that has
  /// any (a node evicted mid-scan keeps staging). Empty: no node stages.
  /// An error from `stage` fails the scan.
  std::vector<bool> staged;
  std::function<Status(size_t node,
                       std::span<const std::span<const Value>> runs)>
      stage;

  /// §4.1.1 overflow checks. A one-row-at-a-time scan would call
  /// EvictOverflow(cc_available, ...) after every `check_interval`
  /// delivered rows; the engine evicts exactly the nodes those checks
  /// would, at the same rows. The maximum means unbounded: no checks.
  size_t cc_available = std::numeric_limits<size_t>::max();
  uint64_t check_interval = 1024;
};

struct ParallelScanResult {
  /// One CC table per node, identical to a one-row-at-a-time scan's (cell
  /// counts are commutative int64 sums over disjoint row partitions);
  /// an evicted node's table is empty.
  std::vector<CcTable> ccs;
  std::vector<CcEviction> evicted;     // per node
  std::vector<size_t> observed_bytes;  // per node: table size at eviction

  /// Rows counted per node (drives per-session CC-update attribution).
  std::vector<uint64_t> node_matches;

  uint64_t rows_scanned = 0;    // rows read from the source (pre-filter)
  uint64_t rows_delivered = 0;  // rows passing the filter
  uint64_t cc_updates = 0;      // total (node, attribute) bumps
};

/// The one row-counting loop outside the mining layer (DESIGN.md "Parallel
/// counting"): every row-scan batch — staged or not, bounded or not — the
/// scramble pass, every shard, replica and primary rescan, and the
/// subprocess shard worker count through it, with one worker or many.
///
/// Workers own a private reader, row batch and per-node partial CC tables,
/// each on cache lines no other worker writes, and claim morsels off one
/// atomic counter. A worker counts a block of rows at a time — a page, or
/// a slice of a row block — with a selection vector of the rows to count:
/// it routes the selection through the batch's trie once (MatchBlock;
/// under pushdown the delivered rows are the union of its hits) and folds
/// each node's rows into its table a column at a time (AddRows). The
/// pool's workers join a scan once, as its crew, and cross segment
/// boundaries without a new task. The source is walked in
/// *segments* of consecutive morsels (the whole source when the scan
/// neither stages nor is bounded). At each segment end the calling thread
/// merges the partial tables in worker order — or, if an overflow check
/// inside the segment could have fired, recounts the segment itself
/// through the same block path, cut at the checks' exact rows — and
/// charges the segment's logical costs. It appends the segment's staged
/// rows to their stores, in morsel order, while the crew counts the next
/// segment. Physical IoCounters are merged from per-worker locals.
class ParallelCountScan {
 public:
  /// Scans the heap file at `path` (a server table or a sealed staged
  /// file) at whatever value width its pages record. Each worker opens its
  /// own reader.
  [[nodiscard]] static StatusOr<ParallelScanResult> OverHeapFile(
      ThreadPool* pool, const std::string& path, int num_columns,
      const ParallelScanOptions& options, CostCounters* cost, IoCounters* io);

  /// Scans `num_rows` decoded rows of `num_columns` values stored
  /// contiguously at `rows` (a memory store's values, a scramble's sample);
  /// workers count straight off them.
  [[nodiscard]] static StatusOr<ParallelScanResult> OverRows(
      ThreadPool* pool, const Value* rows, size_t num_rows, int num_columns,
      const ParallelScanOptions& options, CostCounters* cost);
};

}  // namespace sqlclass

#endif  // SQLCLASS_MIDDLEWARE_PARALLEL_SCAN_H_
