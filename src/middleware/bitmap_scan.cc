#include "middleware/bitmap_scan.h"

#include <algorithm>
#include <atomic>
#include <limits>

#include "common/thread_pool.h"
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

/// One node's bitmaps, fetched and charged by the load phase on the calling
/// thread: the count phase reads only these pointers, never the reader.
struct LoadedNode {
  struct Fold {
    const uint64_t* words;
    bool equal;  // FoldAnd for =, FoldAndNot for <>
  };
  std::vector<Fold> folds;  // in-domain literals, in predicate order
  bool empty = false;       // an out-of-domain equality empties the node
  std::vector<const uint64_t*> classes;             // [class]
  std::vector<std::vector<const uint64_t*>> values;  // [active attr][value]
};

/// Per-worker buffers, sized once per Run for the widest node and reused
/// across the nodes that worker counts.
struct Scratch {
  std::vector<uint64_t> node_bm;  // full width; compacted in place
  std::vector<uint32_t> live;     // indices of the node's non-zero words
  std::vector<uint64_t> slices;   // [class][live word]
  std::vector<int64_t> counts;    // [class]
};

/// Fetches every bitmap `node` touches, in a fixed order: literals, class
/// bitmaps, then each active attribute's values. Each access charges, on
/// the spot, the logical words of every AND and popcount that bitmap
/// feeds, so a failed fetch leaves exactly the charges of the accesses
/// before it, whatever the worker count.
Status LoadNode(BitmapIndexReader* index, int class_column, int num_classes,
                const BitmapCountScan::Node& node, CostCounters& charges,
                LoadedNode* out) {
  if (node.cc == nullptr || node.active_attrs == nullptr) {
    return Status::InvalidArgument("bitmap scan node missing cc/attrs");
  }
  std::vector<Literal> literals;
  if (!CollectLiterals(node.predicate, &literals)) {
    return Status::InvalidArgument(
        "bitmap scan cannot serve a non-conjunctive predicate");
  }
  const uint64_t words = index->words_per_bitmap();
  const uint64_t per_class = words * static_cast<uint64_t>(num_classes);

  // An equality on an out-of-domain value empties the node; an inequality
  // on one is a no-op (no row carries the value). Unbound literals are a
  // caller bug.
  for (const Literal& lit : literals) {
    if (lit.column < 0) {
      return Status::InvalidArgument("bitmap scan predicate is not bound");
    }
    const bool in_domain =
        lit.value >= 0 &&
        static_cast<uint32_t>(lit.value) < index->cardinality(lit.column);
    if (!in_domain) {
      if (lit.equal) out->empty = true;
      continue;
    }
    SQLCLASS_ASSIGN_OR_RETURN(const uint64_t* bm,
                              index->BitmapWords(lit.column, lit.value));
    charges.mw_bitmap_words_read += words;
    charges.mw_bitmap_and_ops += words;
    out->folds.push_back(LoadedNode::Fold{bm, lit.equal});
  }
  for (int k = 0; k < num_classes; ++k) {
    SQLCLASS_ASSIGN_OR_RETURN(const uint64_t* class_bm,
                              index->BitmapWords(class_column, k));
    charges.mw_bitmap_words_read += words;
    charges.mw_bitmap_and_ops += words;
    charges.mw_bitmap_popcounts += words;
    out->classes.push_back(class_bm);
  }
  for (int attr : *node.active_attrs) {
    const uint32_t card = index->cardinality(attr);
    std::vector<const uint64_t*>& values = out->values.emplace_back();
    for (uint32_t v = 0; v < card; ++v) {
      SQLCLASS_ASSIGN_OR_RETURN(
          const uint64_t* bm, index->BitmapWords(attr, static_cast<Value>(v)));
      charges.mw_bitmap_words_read += words;
      charges.mw_bitmap_and_ops += per_class;
      charges.mw_bitmap_popcounts += per_class;
      values.push_back(bm);
    }
  }
  return Status::OK();
}

/// Fills `node`'s CC table from its loaded bitmaps. Only the node bitmap is
/// built over every word; the class slices and every (attribute value x
/// class) count run over its live words alone, so a deep node with few
/// rows costs a fraction of the root. Attributes outside the node's
/// `counted_attrs` are loaded but not counted.
void CountNode(const LoadedNode& loaded, uint64_t num_rows, uint64_t words,
               const BitmapCountScan::Node& node, Scratch* s) {
  const int num_classes = static_cast<int>(loaded.classes.size());
  uint64_t* bm = s->node_bm.data();
  s->live.clear();
  if (!loaded.empty) {
    FillAllRows(bm, num_rows);
    for (const LoadedNode::Fold& fold : loaded.folds) {
      if (fold.equal) {
        FoldAnd(bm, fold.words, words);
      } else {
        FoldAndNot(bm, fold.words, words);
      }
    }
    // Compact in place: the j-th live word never sits before word j.
    for (uint64_t w = 0; w < words; ++w) {
      if (bm[w] == 0) continue;
      bm[s->live.size()] = bm[w];
      s->live.push_back(static_cast<uint32_t>(w));
    }
  }
  const uint64_t n = s->live.size();
  const uint32_t* live = s->live.data();
  s->slices.resize(n * static_cast<uint64_t>(num_classes));

  // Per-class slices of the node bitmap; their popcounts are the class
  // totals (and sum to the node's row count — the invariant the
  // middleware checks against request.data_size).
  for (int k = 0; k < num_classes; ++k) {
    const uint64_t total = GatherAndInto(bm, loaded.classes[k], live, n,
                                         s->slices.data() + k * n);
    node.cc->AddClassTotal(k, static_cast<int64_t>(total));
  }

  // Every (attribute value x class) count is one AND+popcount against the
  // class slice. Cells are created only when the (attribute, value) pair
  // occurs in the node's data, and only occurring classes are added — the
  // exact cell/count structure a row scan builds, which is what makes the
  // two paths' CC tables compare equal.
  const std::vector<int>& attrs = *node.active_attrs;
  for (size_t a = 0; a < attrs.size(); ++a) {
    if (node.counted_attrs != nullptr &&
        std::find(node.counted_attrs->begin(), node.counted_attrs->end(),
                  attrs[a]) == node.counted_attrs->end()) {
      continue;
    }
    const std::vector<const uint64_t*>& values = loaded.values[a];
    for (size_t v = 0; v < values.size(); ++v) {
      int64_t any = 0;
      for (int k = 0; k < num_classes; ++k) {
        s->counts[k] = static_cast<int64_t>(GatherAndPopcount(
            s->slices.data() + k * n, values[v], live, n));
        any += s->counts[k];
      }
      if (any == 0) continue;
      for (int k = 0; k < num_classes; ++k) {
        if (s->counts[k] > 0) {
          node.cc->Add(attrs[a], static_cast<Value>(v), k, s->counts[k]);
        }
      }
    }
  }
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
                            std::vector<Node>* nodes, CostCounters* cost,
                            ThreadPool* pool) {
  const int class_column = schema.class_column();
  if (class_column < 0) {
    return Status::InvalidArgument("bitmap scan needs a class column");
  }
  const int num_classes = schema.attribute(class_column).cardinality;
  const uint64_t words = index->words_per_bitmap();
  // A live-word index must fit the uint32_t the gather kernels take.
  if (words > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("bitmap index too wide for live words");
  }
  const uint64_t num_rows = index->num_rows();
  CostCounters scratch;  // charge sink when the caller passes none
  CostCounters& charges = cost != nullptr ? *cost : scratch;

  // Load phase: the reader is not thread-safe, so every fetch and every
  // charge happens here, on the calling thread, in node order.
  std::vector<LoadedNode> loaded(nodes->size());
  for (size_t i = 0; i < nodes->size(); ++i) {
    SQLCLASS_RETURN_IF_ERROR(LoadNode(index, class_column, num_classes,
                                      (*nodes)[i], charges, &loaded[i]));
  }

  // Count phase: one task per node, claimed in order by each worker. A
  // node fills only its own CC table, so the result does not depend on
  // the worker count or on which worker took which node.
  const int workers =
      pool == nullptr
          ? 1
          : static_cast<int>(std::min<size_t>(pool->size(), nodes->size()));
  // Scratch is allocated here, not in the workers: allocations made on
  // pool threads land in per-thread malloc arenas and raise peak RSS.
  std::vector<Scratch> buffers(std::max(workers, 1));
  for (Scratch& s : buffers) {
    s.node_bm.resize(words);
    s.live.reserve(words);
    s.slices.reserve(words * static_cast<uint64_t>(num_classes));
    s.counts.resize(num_classes);
  }
  std::atomic<size_t> next_node{0};
  auto work = [&](int slot) {
    Scratch& s = buffers[slot];
    for (size_t i = next_node++; i < nodes->size(); i = next_node++) {
      CountNode(loaded[i], num_rows, words, (*nodes)[i], &s);
    }
  };
  if (workers > 1) {
    pool->RunTasks(workers, work);
  } else {
    work(0);
  }
  return Status::OK();
}

}  // namespace sqlclass
