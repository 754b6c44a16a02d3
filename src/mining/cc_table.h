#ifndef SQLCLASS_MINING_CC_TABLE_H_
#define SQLCLASS_MINING_CC_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "catalog/row.h"
#include "common/status.h"

namespace sqlclass {

/// The counts (CC) table of §2.2: for one tree node, the co-occurrence
/// count of every (attribute, value, class) triple in the node's data set,
/// plus the per-class row totals. This is the *sufficient statistic* — once
/// a node's CC table exists, the data is never consulted again
/// (Observation 1).
///
/// Layout: the dense AVC-group of RainForest [GRG98]. Each attribute column
/// owns one flat int64 slab of rows `num_classes` wide; the row for `value`
/// starts at `value * num_classes` and holds the state's per-class counts,
/// nothing else. A cell (attr, value) exists iff any of its class counts is
/// non-zero, so updating a cell is one array bump (its liveness is tested
/// only when the bumped count was zero), merging is a slab-wise add, and
/// cells iterate in (attribute, value) order for free. Slabs grow lazily to
/// the largest value seen, so memory is bounded by that value per
/// attribute, not by the number of cells present.
///
/// Two ways to fold rows in: AddRow takes one row, AddRows a block of rows
/// and a selection of them — the counting kernel's unit. AddRows walks one
/// attribute column at a time over the whole selection, so each pass bumps
/// one slab, and it leaves the table exactly as AddRow over the same rows
/// would.
///
/// ApproxBytes/BytesPerEntry stay *logical*: they price each live cell as
/// the paper's §5 binary-tree entry did. The middleware's CC-memory
/// accounting (Rule 3 admission, overflow eviction) and hence every
/// simulated cost are therefore independent of this physical layout.
class CcTable {
 public:
  /// `num_classes` is the domain size of the class column.
  explicit CcTable(int num_classes);

  int num_classes() const { return num_classes_; }

  /// Adds `count` co-occurrences of attribute `attr` (a column index)
  /// having `value` with class `class_value`. `attr` and `value` must be
  /// non-negative: callers validate anything that arrives from outside the
  /// process.
  void Add(int attr, Value value, Value class_value, int64_t count = 1);

  /// Folds one data row in: bumps the (attr, value, class) cell for every
  /// listed attribute column and the per-class node total.
  void AddRow(const Row& row, const std::vector<int>& attr_columns,
              int class_column);

  /// Pointer-row overload for batch-decoded rows (RowBatch::RowAt); avoids
  /// materializing a Row. `values` must span all referenced columns.
  void AddRow(const Value* values, const std::vector<int>& attr_columns,
              int class_column);

  /// Folds the selected rows of a block in, one attribute column at a time:
  /// row r's values start at rows + r * row_width. The same cells, totals,
  /// NumEntries and ApproxBytes as AddRow over each selected row.
  void AddRows(const Value* rows, size_t row_width,
               std::span<const uint32_t> selection,
               const std::vector<int>& attr_columns, int class_column);

  /// Folds another CC table built over a disjoint row partition into this
  /// one. Cell counts and class totals are int64 sums, so merging
  /// per-partition tables in any grouping yields exactly the table a serial
  /// scan of the union would build (the parallel-scan determinism argument).
  void Merge(const CcTable& other);

  /// Histogram subtraction (LightGBM's, Ke et al. 2017): for each of
  /// `attr_columns`, adds `whole`'s cells minus the sum of `parts`' cells —
  /// the cells of those of `whole`'s rows that no part holds. Class totals
  /// are left alone. When `parts` are disjoint subsets of `whole`'s rows,
  /// this table holds the rest of them and `whole` counted every listed
  /// attribute, the result equals counting those attributes directly.
  /// Returns Internal, leaving the table unchanged, if a difference is
  /// negative: the parts were not subsets of `whole`.
  [[nodiscard]] Status AddDifference(const CcTable& whole,
                                     std::span<const CcTable* const> parts,
                                     const std::vector<int>& attr_columns);

  /// Empties the table (no cells, zero totals) but keeps its slabs'
  /// capacity, so refilling a reused partial table does not reallocate.
  void Clear();

  /// Adds `count` to the per-class node totals only (used when building
  /// from pre-aggregated SQL results, where totals come from one attribute).
  void AddClassTotal(Value class_value, int64_t count);

  /// Per-class counts for attribute state (attr, value); zeros if unseen or
  /// out of range. The view is valid until the table is next modified.
  std::span<const int64_t> GetCounts(int attr, Value value) const;

  /// Row count of the node's data set (sum of class totals).
  int64_t TotalRows() const { return total_rows_; }

  /// Per-class row counts at this node.
  const std::vector<int64_t>& ClassTotals() const { return class_totals_; }

  /// card(n, A): number of distinct values attribute `attr` takes in the
  /// node's data (§4.2.1's estimator input).
  int DistinctValues(int attr) const;

  /// Distinct values and their per-class counts for one attribute, in value
  /// order. The views are valid until the table is next modified.
  std::vector<std::pair<Value, std::span<const int64_t>>> AttributeStates(
      int attr) const;

  /// Every cell's attribute column is below this bound, so iterating
  /// AttributeStates over [0, AttributeBound()) visits all cells in
  /// (attribute, value) order.
  int AttributeBound() const { return static_cast<int>(slabs_.size()); }

  /// Number of (attr, value) entries across all attributes.
  size_t NumEntries() const { return num_entries_; }

  /// Approximate heap bytes held — the unit of the middleware's CC-memory
  /// accounting (Rule 3 admission). Logical: NumEntries() entries at
  /// BytesPerEntry each, plus the class totals.
  size_t ApproxBytes() const;

  /// Bytes one entry costs, for converting entry estimates to byte budgets.
  static size_t BytesPerEntry(int num_classes);

  /// Structural equality (same cells, same counts, same totals), whatever
  /// the insertion order or slab extents.
  bool operator==(const CcTable& other) const;

  std::string ToString() const;

 private:
  size_t stride() const { return static_cast<size_t>(num_classes_); }

  /// True when any of a slab row's class counts is non-zero.
  bool Live(const int64_t* counts) const {
    return std::any_of(counts, counts + num_classes_,
                       [](int64_t c) { return c != 0; });
  }

  /// The (attr, value) row of class counts, growing the slabs to reach it.
  int64_t* MutableRow(int attr, Value value);

  /// Attribute `attr`'s slab; empty when the attribute holds no cells.
  std::span<const int64_t> Slab(int attr) const;

  /// Adds a slab laid out like attribute `attr`'s, row by row.
  void AddSlab(int attr, std::span<const int64_t> add);

  int num_classes_;
  int64_t total_rows_ = 0;
  size_t num_entries_ = 0;
  std::vector<int64_t> class_totals_;
  std::vector<std::vector<int64_t>> slabs_;  // [attr][value * stride + class]
  std::vector<int64_t> zeros_;               // returned for unseen states
};

}  // namespace sqlclass

#endif  // SQLCLASS_MINING_CC_TABLE_H_
