#include "middleware/bitmap_scan.h"

#include <algorithm>

#include "storage/bitmap/bitmap.h"

namespace sqlclass {

namespace {

struct Literal {
  int column = -1;
  Value value = 0;
  bool equal = true;  // false: column <> value
};

/// Flattens a servable predicate into its literal list. Returns false on a
/// non-conjunctive shape (callers gate on Servable, so this is defensive).
bool CollectLiterals(const Expr* expr, std::vector<Literal>* out) {
  if (expr == nullptr) return true;
  switch (expr->kind()) {
    case ExprKind::kTrue:
      return true;
    case ExprKind::kColumnEq:
    case ExprKind::kColumnNe:
      out->push_back(Literal{expr->BoundColumnIndex(), expr->literal(),
                             expr->kind() == ExprKind::kColumnEq});
      return true;
    case ExprKind::kAnd:
      for (const std::unique_ptr<Expr>& child : expr->children()) {
        if (!CollectLiterals(child.get(), out)) return false;
      }
      return true;
    case ExprKind::kOr:
    case ExprKind::kNot:
      return false;
  }
  return false;
}

}  // namespace

bool BitmapCountScan::Servable(const Expr* predicate) {
  if (predicate == nullptr) return true;
  switch (predicate->kind()) {
    case ExprKind::kTrue:
    case ExprKind::kColumnEq:
    case ExprKind::kColumnNe:
      return true;
    case ExprKind::kAnd:
      for (const std::unique_ptr<Expr>& child : predicate->children()) {
        if (!Servable(child.get())) return false;
      }
      return true;
    case ExprKind::kOr:
    case ExprKind::kNot:
      return false;
  }
  return false;
}

Status BitmapCountScan::Run(BitmapIndexReader* index, const Schema& schema,
                            std::vector<Node>* nodes, CostCounters* cost) {
  const int class_column = schema.class_column();
  if (class_column < 0) {
    return Status::InvalidArgument("bitmap scan needs a class column");
  }
  const int num_classes = schema.attribute(class_column).cardinality;
  const uint64_t words = index->words_per_bitmap();
  CostCounters scratch;  // charge sink when the caller passes none
  CostCounters& charges = cost != nullptr ? *cost : scratch;

  std::vector<uint64_t> node_bm(words);
  std::vector<std::vector<uint64_t>> slices(
      num_classes, std::vector<uint64_t>(words));
  std::vector<int64_t> counts(num_classes, 0);

  for (Node& node : *nodes) {
    if (node.cc == nullptr || node.active_attrs == nullptr) {
      return Status::InvalidArgument("bitmap scan node missing cc/attrs");
    }
    std::vector<Literal> literals;
    if (!CollectLiterals(node.predicate, &literals)) {
      return Status::InvalidArgument(
          "bitmap scan cannot serve a non-conjunctive predicate");
    }

    // Node bitmap: all rows, narrowed by each conjunct. An equality on an
    // out-of-domain value empties the node; an inequality on one is a
    // no-op (no row carries the value). Unbound literals are a caller bug.
    FillAllRows(node_bm.data(), index->num_rows());
    bool node_empty = false;
    for (const Literal& lit : literals) {
      if (lit.column < 0) {
        return Status::InvalidArgument("bitmap scan predicate is not bound");
      }
      const bool in_domain =
          lit.value >= 0 && static_cast<uint32_t>(lit.value) <
                                index->cardinality(lit.column);
      if (!in_domain) {
        if (lit.equal) node_empty = true;
        continue;
      }
      SQLCLASS_ASSIGN_OR_RETURN(const uint64_t* bm,
                                index->BitmapWords(lit.column, lit.value));
      charges.mw_bitmap_words_read += words;
      if (lit.equal) {
        FoldAnd(node_bm.data(), bm, words);
      } else {
        FoldAndNot(node_bm.data(), bm, words);
      }
      charges.mw_bitmap_and_ops += words;
    }
    if (node_empty) std::fill(node_bm.begin(), node_bm.end(), 0);

    // Per-class slices of the node bitmap; their popcounts are the class
    // totals (and sum to the node's row count — the invariant the
    // middleware checks against request.data_size).
    node.node_rows = 0;
    for (int k = 0; k < num_classes; ++k) {
      SQLCLASS_ASSIGN_OR_RETURN(const uint64_t* class_bm,
                                index->BitmapWords(class_column, k));
      charges.mw_bitmap_words_read += words;
      AndInto(node_bm.data(), class_bm, slices[k].data(), words);
      charges.mw_bitmap_and_ops += words;
      const uint64_t total = PopcountWords(slices[k].data(), words);
      charges.mw_bitmap_popcounts += words;
      node.cc->AddClassTotal(k, static_cast<int64_t>(total));
      node.node_rows += total;
    }

    // Every (attribute value x class) count is one AND+popcount against
    // the class slice. Cells are created only when the (attribute, value)
    // pair occurs in the node's data, and only occurring classes are
    // added — the exact cell/count structure a row scan builds, which is
    // what makes the two paths' CC tables compare equal.
    for (int attr : *node.active_attrs) {
      const uint32_t card = index->cardinality(attr);
      for (uint32_t v = 0; v < card; ++v) {
        SQLCLASS_ASSIGN_OR_RETURN(
            const uint64_t* bm,
            index->BitmapWords(attr, static_cast<Value>(v)));
        charges.mw_bitmap_words_read += words;
        int64_t any = 0;
        for (int k = 0; k < num_classes; ++k) {
          counts[k] =
              static_cast<int64_t>(AndPopcount(slices[k].data(), bm, words));
          charges.mw_bitmap_and_ops += words;
          charges.mw_bitmap_popcounts += words;
          any += counts[k];
        }
        if (any == 0) continue;
        for (int k = 0; k < num_classes; ++k) {
          if (counts[k] > 0) {
            node.cc->Add(attr, static_cast<Value>(v), k, counts[k]);
          }
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace sqlclass
