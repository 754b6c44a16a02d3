#ifndef SQLCLASS_MIDDLEWARE_BATCH_MATCHER_H_
#define SQLCLASS_MIDDLEWARE_BATCH_MATCHER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "catalog/row.h"
#include "sql/expr.h"

namespace sqlclass {

/// Routes each scanned row to the batch nodes whose predicates it satisfies.
///
/// This is where the middleware exploits the *structure* of the query wave
/// (§1): node predicates are conjunctions of edge literals in root-to-leaf
/// order, and requests from one frontier share long prefixes. Inserting the
/// conjunct sequences into a trie lets one row be matched against hundreds
/// of node predicates in O(tree depth) literal evaluations instead of
/// O(batch size x depth).
///
/// Predicates that are not conjunctions of (column = v) / (column <> v)
/// literals fall back to direct evaluation, so the matcher is exact for any
/// client.
///
/// Two ways to route rows: Match walks the trie once per row (the
/// baselines and tests), MatchBlock once per block of rows — the counting
/// kernel's unit (DESIGN.md "Parallel counting"). A block is a run of rows
/// a fixed stride apart plus a selection vector of the row indexes to
/// route, as in MonetDB/X100's vectorized execution (Boncz, Zukowski &
/// Nes, CIDR 2005): each child literal filters its parent's selection in
/// one branch-free loop, so the trie's interpretation cost is paid per
/// block, not per row.
class BatchMatcher {
 public:
  /// `predicates` must be bound and outlive the matcher; index i in Match
  /// output refers to predicates[i].
  explicit BatchMatcher(const std::vector<const Expr*>& predicates);

  /// Clears and fills `*out` with the indexes of all matching predicates.
  void Match(const Row& row, std::vector<int>* out) const {
    Match(row.data(), out);
  }

  /// Pointer-row overload for batch-decoded rows (RowBatch::RowAt);
  /// `values` must span every column any predicate references.
  void Match(const Value* values, std::vector<int>* out) const;

  /// Selection buffers MatchBlock filters into: one per trie level below
  /// the root and one for fallback predicates.
  struct BlockScratch {
    std::vector<std::vector<uint32_t>> levels;
  };

  /// Sizes `scratch` for blocks of up to `max_rows` rows, so MatchBlock
  /// never allocates. Call it on the thread that should own the memory.
  void PrepareScratch(size_t max_rows, BlockScratch* scratch) const;

  /// Routes the selected rows of a block through the trie once. Row r's
  /// values start at rows + r * stride; `selection` lists the rows to
  /// route, ascending, at most the `max_rows` `scratch` was prepared for.
  /// Calls on_match(index, hits) once per predicate that matches at least
  /// one selected row, `hits` being those rows in block order; a predicate
  /// matching no row gets no call. `hits` may point into `scratch` and is
  /// valid only during the call.
  template <typename OnMatch>
  void MatchBlock(const Value* rows, size_t stride,
                  std::span<const uint32_t> selection, BlockScratch* scratch,
                  OnMatch&& on_match) const {
    if (selection.empty()) return;
    MatchNode(root_, 0, rows, stride, selection, scratch, on_match);
    uint32_t* kept = scratch->levels[0].data();
    for (const auto& [pred, index] : fallback_) {
      if (pred == nullptr) {
        on_match(index, selection);
        continue;
      }
      size_t n = 0;
      for (uint32_t r : selection) {
        kept[n] = r;
        n += pred->Eval(rows + r * stride);
      }
      if (n != 0) on_match(index, std::span<const uint32_t>(kept, n));
    }
  }

  /// True when every predicate was trie-indexable (exposed for tests).
  bool fully_indexed() const { return fallback_.empty(); }

 private:
  struct Literal {
    int column = -1;     // resolved index (literals are built post-Bind)
    bool equals = true;  // true: column == value, false: column != value
    Value value = 0;

    bool Eval(const Value* values) const {
      return equals ? values[column] == value : values[column] != value;
    }
    /// Writes the rows of `selection` that satisfy the literal to `out`,
    /// in order, and returns how many there are. Branch-free: every row is
    /// written, and the count advances only past the ones that pass.
    size_t Filter(const Value* rows, size_t stride,
                  std::span<const uint32_t> selection, uint32_t* out) const {
      const Value* col = rows + column;
      size_t n = 0;
      if (equals) {
        for (uint32_t r : selection) {
          out[n] = r;
          n += col[r * stride] == value;
        }
      } else {
        for (uint32_t r : selection) {
          out[n] = r;
          n += col[r * stride] != value;
        }
      }
      return n;
    }
    bool operator==(const Literal& other) const {
      return column == other.column && equals == other.equals &&
             value == other.value;
    }
  };

  struct TrieNode {
    std::vector<std::pair<Literal, std::unique_ptr<TrieNode>>> children;
    std::vector<int> terminals;  // predicate indexes fully matched here
  };

  /// Flattens `expr` into literals; false if not a pure conjunction.
  static bool FlattenConjunction(const Expr& expr,
                                 std::vector<Literal>* literals);

  void Insert(const std::vector<Literal>& literals, int index);
  void MatchRec(const TrieNode& node, const Value* values,
                std::vector<int>* out) const;

  // MatchBlock below `node`, at trie level `depth`, whose rows are
  // `selection`; children filter into scratch->levels[depth + 1].
  template <typename OnMatch>
  void MatchNode(const TrieNode& node, int depth, const Value* rows,
                 size_t stride, std::span<const uint32_t> selection,
                 BlockScratch* scratch, OnMatch& on_match) const {
    for (int terminal : node.terminals) on_match(terminal, selection);
    if (node.children.empty()) return;
    uint32_t* kept = scratch->levels[depth + 1].data();
    for (const auto& [literal, child] : node.children) {
      const size_t n = literal.Filter(rows, stride, selection, kept);
      if (n != 0) {
        MatchNode(*child, depth + 1, rows, stride,
                  std::span<const uint32_t>(kept, n), scratch, on_match);
      }
    }
  }

  TrieNode root_;
  int depth_ = 0;  // literals on the longest root-to-terminal path
  std::vector<std::pair<const Expr*, int>> fallback_;  // (pred, index)
};

}  // namespace sqlclass

#endif  // SQLCLASS_MIDDLEWARE_BATCH_MATCHER_H_
