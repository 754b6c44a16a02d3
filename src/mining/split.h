#ifndef SQLCLASS_MINING_SPLIT_H_
#define SQLCLASS_MINING_SPLIT_H_

#include <optional>
#include <span>
#include <vector>

#include "catalog/row.h"
#include "mining/cc_table.h"

namespace sqlclass {

/// Impurity measures for partition scoring. The paper's experiments use the
/// standard entropy measure of ID3 / C4.5 / CART (§3.1); Gini and gain
/// ratio are supported because the scheme accommodates "several measures
/// proposed in the literature" (§2.1).
enum class SplitCriterion {
  kEntropy,
  kGini,
  kGainRatio,
};

/// A chosen binary partition: left branch `attr = value`, right branch
/// `attr <> value` (the A = v / A = other form of §4.2.1).
struct BinarySplit {
  int attr = -1;
  Value value = 0;
  double gain = 0.0;
  int64_t left_rows = 0;
  int64_t right_rows = 0;
};

/// Impurity of a class histogram under `criterion` (entropy in bits; Gini
/// in [0, 1)). `total` must equal the sum of `counts`.
double Impurity(std::span<const int64_t> counts, int64_t total,
                SplitCriterion criterion);

/// True iff every row at the node belongs to one class.
bool IsPure(const CcTable& cc);

/// A complete (multiway) partition on one attribute: one branch per value
/// present at the node (branching on attribute values, [F94]).
struct MultiwaySplit {
  int attr = -1;
  double gain = 0.0;
  /// Values present and their row counts, in ascending value order.
  std::vector<std::pair<Value, int64_t>> branches;
};

/// Scores complete splits on every attribute with >= 2 present values and
/// returns the best by `criterion` (gain ratio is advisable here: plain
/// information gain favours high-cardinality attributes). Deterministic
/// tie-break on the lower attribute index.
std::optional<MultiwaySplit> ChooseBestMultiwaySplit(
    const CcTable& cc, const std::vector<int>& attr_columns,
    SplitCriterion criterion);

/// Scores every candidate binary split (one per (attribute, value) state
/// with non-empty both sides) from the CC table alone and returns the best,
/// or nullopt when no attribute can split the node (all attributes constant
/// in the node's data — the paper's second termination criterion).
///
/// Ties are broken deterministically by (lower attr, lower value) so the
/// produced tree is independent of the order in which CC tables arrive.
std::optional<BinarySplit> ChooseBestBinarySplit(
    const CcTable& cc, const std::vector<int>& attr_columns,
    SplitCriterion criterion);

// ------------------------------------------------- approximate counting
// Helpers for the confidence-bounded split-selection gate of scheduler
// Rule 7 (middleware/sample_scan.h, DESIGN.md "Approximate counting").

/// Inverse standard-normal CDF (Acklam's rational approximation, relative
/// error < 1.2e-9). Domain (0, 1); used for the one-sided z of the
/// configured confidence level.
double NormalQuantile(double p);

/// Delta-method sampling variance of the weighted-children impurity
/// I = sum_b w_b * Impurity(branch b) of one binary split, when the CC
/// cell counts come from `sample_rows` iid sampled rows. The multinomial
/// cells are (branch, class); gradients are log2(w_b / q_bk) for entropy
/// and sum_j (q_bj / w_b)^2 - 2 q_bk / w_b for Gini. Only kEntropy and
/// kGini are meaningful (map kGainRatio to kEntropy — the gate compares
/// impurity gaps, not ratios).
double SplitImpurityVariance(const CcTable& cc, const BinarySplit& split,
                             SplitCriterion criterion, int64_t sample_rows);

/// The two highest-gain binary splits under ChooseBestBinarySplit's exact
/// ordering (identical tie-breaks, so `best` always equals what the exact
/// chooser would pick on the same CC), plus the impurity gap between them
/// and its conservative sampling variance Var(best) + Var(second).
struct TopTwoSplits {
  BinarySplit best;
  bool has_second = false;
  BinarySplit second;
  /// children-impurity(second) - children-impurity(best), >= 0. The parent
  /// impurity cancels, so this equals best.gain - second.gain.
  double gap = 0.0;
  double gap_variance = 0.0;
};

/// Scores every candidate like ChooseBestBinarySplit but keeps the top two
/// and their gap variance for a sample of `sample_rows` rows. nullopt when
/// no attribute can split the node. `criterion` should be kEntropy or
/// kGini (callers on kGainRatio pass kEntropy).
std::optional<TopTwoSplits> ChooseTopTwoBinarySplits(
    const CcTable& cc, const std::vector<int>& attr_columns,
    SplitCriterion criterion, int64_t sample_rows);

}  // namespace sqlclass

#endif  // SQLCLASS_MINING_SPLIT_H_
