#include "middleware/sample_scan.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace sqlclass {

namespace {

/// Largest-remainder apportionment: scales `counts` (non-negative, summing
/// to `source_total` > 0) to integers summing to exactly `target`,
/// preserving proportions. Ties on the fractional remainder go to the lower
/// index. Cells with zero count never receive units, so the scaled table
/// has cells exactly where the sample does.
std::vector<int64_t> Apportion(const std::vector<int64_t>& counts,
                               int64_t source_total, int64_t target) {
  std::vector<int64_t> out(counts.size(), 0);
  if (source_total <= 0 || target <= 0) return out;
  std::vector<int64_t> rem(counts.size(), 0);
  int64_t assigned = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    const int64_t scaled = counts[i] * target;
    out[i] = scaled / source_total;
    rem[i] = scaled % source_total;
    assigned += out[i];
  }
  int64_t leftover = target - assigned;
  std::vector<size_t> order(counts.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (rem[a] != rem[b]) return rem[a] > rem[b];
    return a < b;
  });
  for (size_t i = 0; i < order.size() && leftover > 0; ++i) {
    if (rem[order[i]] == 0) break;  // only fractional cells earn a unit
    ++out[order[i]];
    --leftover;
  }
  return out;
}

}  // namespace

SampleGateResult EvaluateSampleGate(const CcTable& sample_cc,
                                    const std::vector<int>& active_attrs,
                                    SplitCriterion criterion,
                                    uint64_t sample_rows, double confidence,
                                    double exactness) {
  SampleGateResult result;
  // The gate's normal approximation needs a moderate slice to mean
  // anything; below this, even a "clear" gap is an artifact of a handful
  // of rows (z ~ 0 settings would otherwise rubber-stamp them). Escalation
  // is cheap for such nodes — they ride the next exact batch.
  constexpr uint64_t kMinGateSampleRows = 50;
  if (sample_rows < kMinGateSampleRows) return result;
  if (IsPure(sample_cc)) {
    // A pure sample does not prove a pure node: a rare class may simply
    // have been missed. Leaf decisions always escalate.
    return result;
  }
  const SplitCriterion gate_criterion =
      criterion == SplitCriterion::kGainRatio ? SplitCriterion::kEntropy
                                              : criterion;
  std::optional<TopTwoSplits> top = ChooseTopTwoBinarySplits(
      sample_cc, active_attrs, gate_criterion,
      static_cast<int64_t>(sample_rows));
  if (!top.has_value() || !top->has_second) {
    // Unsplittable (or only one candidate) in the sample: the exact data
    // may still hold states the sample missed, so the decision escalates.
    return result;
  }
  result.gap = top->gap;
  result.threshold =
      NormalQuantile(confidence) * std::sqrt(top->gap_variance);
  if (exactness > 0.0 && exactness < 1.0) {
    result.threshold /= 1.0 - exactness;
  }
  result.accept = result.gap > result.threshold;
  return result;
}

CcTable ScaleCcToTotal(const CcTable& sample_cc,
                       const std::vector<int>& active_attrs,
                       uint64_t target_total) {
  const int num_classes = sample_cc.num_classes();
  CcTable scaled(num_classes);
  const int64_t sample_total = sample_cc.TotalRows();
  const int64_t target = static_cast<int64_t>(target_total);
  if (sample_total <= 0 || target <= 0) return scaled;

  const std::vector<int64_t> class_totals =
      Apportion(sample_cc.ClassTotals(), sample_total, target);
  for (int k = 0; k < num_classes; ++k) {
    if (class_totals[k] > 0) scaled.AddClassTotal(k, class_totals[k]);
  }

  // Each attribute partitions the node's rows, so per class the cell counts
  // across an attribute's values sum to the class total — apportion each
  // (attribute, class) column to its scaled class total and the structural
  // invariants of an exact CC all hold.
  std::vector<int64_t> column;
  for (int attr : active_attrs) {
    const auto states = sample_cc.AttributeStates(attr);
    if (states.empty()) continue;
    for (int k = 0; k < num_classes; ++k) {
      if (class_totals[k] <= 0) continue;
      column.clear();
      column.reserve(states.size());
      for (const auto& [value, counts] : states) {
        (void)value;
        column.push_back(counts[k]);
      }
      const std::vector<int64_t> scaled_column = Apportion(
          column, sample_cc.ClassTotals()[k], class_totals[k]);
      for (size_t i = 0; i < states.size(); ++i) {
        if (scaled_column[i] > 0) {
          scaled.Add(attr, states[i].first, static_cast<Value>(k),
                     scaled_column[i]);
        }
      }
    }
  }
  return scaled;
}

}  // namespace sqlclass
