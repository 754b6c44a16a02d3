#ifndef SQLCLASS_MIDDLEWARE_BITMAP_SCAN_H_
#define SQLCLASS_MIDDLEWARE_BITMAP_SCAN_H_

#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "mining/cc_table.h"
#include "server/cost_model.h"
#include "sql/expr.h"
#include "storage/bitmap/bitmap_index.h"

namespace sqlclass {

class ThreadPool;

/// Answers CC requests from a persisted bitmap index instead of a row
/// scan: the node bitmap is the AND of its conjunction's value bitmaps,
/// and every (attribute value x class) count is a popcount of a three-way
/// intersection. Produces CC tables byte-identical to the row-scan path —
/// cells exist exactly for the (attribute, value) pairs present in the
/// node's data — while charging per-bitmap-word costs (mw_bitmap_*) in
/// place of per-row cursor costs.
class BitmapCountScan {
 public:
  /// True iff `predicate` can be served from the index: null, TRUE, or a
  /// (nested) conjunction of column =/<> literal tests. Disjunctions and
  /// negations never occur in node predicates and are not servable.
  static bool Servable(const Expr* predicate);

  /// One CC request inside a bitmap batch. Every active attribute's
  /// bitmaps are fetched and charged; only the `counted_attrs` (null: all
  /// active attributes) get cells. The class totals are always counted.
  struct Node {
    const Expr* predicate = nullptr;  // bound; null means TRUE
    const std::vector<int>* active_attrs = nullptr;
    const std::vector<int>* counted_attrs = nullptr;  // a subset, or null
    CcTable* cc = nullptr;  // out: populated by Run
  };

  /// Builds every node's CC table from `index`. `cost` (nullable) takes
  /// the logical mw_bitmap_* charges; physical reads land on the counters
  /// the index reader was opened with. Charges are per node and per
  /// logical word, independent of the reader's cache state and of how
  /// sparse the node is, so simulated cost is deterministic across
  /// batchings and repeat runs. Every index access and charge happens on
  /// the calling thread; with a `pool` the nodes are then counted in
  /// parallel, one task per node, and the results do not depend on the
  /// pool's size.
  [[nodiscard]] static Status Run(BitmapIndexReader* index,
                                  const Schema& schema,
                                  std::vector<Node>* nodes, CostCounters* cost,
                                  ThreadPool* pool = nullptr);
};

}  // namespace sqlclass

#endif  // SQLCLASS_MIDDLEWARE_BITMAP_SCAN_H_
