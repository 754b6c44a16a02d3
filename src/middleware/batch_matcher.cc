#include "middleware/batch_matcher.h"

#include <algorithm>

namespace sqlclass {

bool BatchMatcher::FlattenConjunction(const Expr& expr,
                                      std::vector<Literal>* literals) {
  switch (expr.kind()) {
    case ExprKind::kTrue:
      return true;  // contributes no literal
    case ExprKind::kColumnEq:
    case ExprKind::kColumnNe: {
      if (!expr.bound()) return false;
      Literal literal;
      literal.column = expr.BoundColumnIndex();
      literal.equals = expr.kind() == ExprKind::kColumnEq;
      literal.value = expr.literal();
      literals->push_back(literal);
      return true;
    }
    case ExprKind::kAnd:
      for (const auto& child : expr.children()) {
        if (!FlattenConjunction(*child, literals)) return false;
      }
      return true;
    case ExprKind::kOr:
    case ExprKind::kNot:
      return false;
  }
  return false;
}

BatchMatcher::BatchMatcher(const std::vector<const Expr*>& predicates) {
  for (size_t i = 0; i < predicates.size(); ++i) {
    std::vector<Literal> literals;
    if (predicates[i] != nullptr &&
        FlattenConjunction(*predicates[i], &literals)) {
      Insert(literals, static_cast<int>(i));
    } else {
      fallback_.emplace_back(predicates[i], static_cast<int>(i));
    }
  }
}

void BatchMatcher::Insert(const std::vector<Literal>& literals, int index) {
  TrieNode* node = &root_;
  depth_ = std::max(depth_, static_cast<int>(literals.size()));
  for (const Literal& literal : literals) {
    TrieNode* next = nullptr;
    for (auto& [existing, child] : node->children) {
      if (existing == literal) {
        next = child.get();
        break;
      }
    }
    if (next == nullptr) {
      node->children.emplace_back(literal, std::make_unique<TrieNode>());
      next = node->children.back().second.get();
    }
    node = next;
  }
  node->terminals.push_back(index);
}

void BatchMatcher::MatchRec(const TrieNode& node, const Value* values,
                            std::vector<int>* out) const {
  for (int terminal : node.terminals) out->push_back(terminal);
  for (const auto& [literal, child] : node.children) {
    if (literal.Eval(values)) MatchRec(*child, values, out);
  }
}

void BatchMatcher::PrepareScratch(size_t max_rows,
                                  BlockScratch* scratch) const {
  // Level 0 holds the fallback predicates' rows, level d the rows that
  // reach a trie node d literals deep.
  scratch->levels.resize(depth_ + 1);
  for (std::vector<uint32_t>& level : scratch->levels) level.resize(max_rows);
}

void BatchMatcher::Match(const Value* values, std::vector<int>* out) const {
  out->clear();
  MatchRec(root_, values, out);
  for (const auto& [pred, index] : fallback_) {
    if (pred == nullptr || pred->Eval(values)) out->push_back(index);
  }
}

}  // namespace sqlclass
