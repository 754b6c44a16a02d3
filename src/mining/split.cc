#include "mining/split.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace sqlclass {

double Impurity(std::span<const int64_t> counts, int64_t total,
                SplitCriterion criterion) {
  if (total <= 0) return 0.0;
  const double n = static_cast<double>(total);
  switch (criterion) {
    case SplitCriterion::kEntropy:
    case SplitCriterion::kGainRatio: {
      double h = 0.0;
      for (int64_t c : counts) {
        if (c <= 0) continue;
        const double p = static_cast<double>(c) / n;
        h -= p * std::log2(p);
      }
      return h;
    }
    case SplitCriterion::kGini: {
      double sum_sq = 0.0;
      for (int64_t c : counts) {
        const double p = static_cast<double>(c) / n;
        sum_sq += p * p;
      }
      return 1.0 - sum_sq;
    }
  }
  return 0.0;
}

bool IsPure(const CcTable& cc) {
  int nonzero = 0;
  for (int64_t c : cc.ClassTotals()) {
    if (c > 0) ++nonzero;
  }
  return nonzero <= 1;
}

std::optional<MultiwaySplit> ChooseBestMultiwaySplit(
    const CcTable& cc, const std::vector<int>& attr_columns,
    SplitCriterion criterion) {
  const int64_t total = cc.TotalRows();
  if (total <= 1) return std::nullopt;
  const double parent_impurity =
      Impurity(cc.ClassTotals(), total, criterion);

  std::optional<MultiwaySplit> best;
  for (int attr : attr_columns) {
    auto states = cc.AttributeStates(attr);
    if (states.size() < 2) continue;
    double children_impurity = 0.0;
    double split_info = 0.0;
    std::vector<std::pair<Value, int64_t>> branches;
    branches.reserve(states.size());
    for (const auto& [value, counts] : states) {
      int64_t branch_total = 0;
      for (int64_t c : counts) branch_total += c;
      const double w = static_cast<double>(branch_total) / total;
      children_impurity += w * Impurity(counts, branch_total, criterion);
      if (w > 0) split_info -= w * std::log2(w);
      branches.emplace_back(value, branch_total);
    }
    double gain = parent_impurity - children_impurity;
    if (criterion == SplitCriterion::kGainRatio && split_info > 0) {
      gain /= split_info;
    }
    if (!best.has_value() || gain > best->gain + 1e-12) {
      MultiwaySplit split;
      split.attr = attr;
      split.gain = gain;
      split.branches = std::move(branches);
      best = std::move(split);
    }
  }
  return best;
}

std::optional<BinarySplit> ChooseBestBinarySplit(
    const CcTable& cc, const std::vector<int>& attr_columns,
    SplitCriterion criterion) {
  const int64_t total = cc.TotalRows();
  if (total <= 1) return std::nullopt;
  const std::vector<int64_t>& totals = cc.ClassTotals();
  const double parent_impurity = Impurity(totals, total, criterion);

  std::optional<BinarySplit> best;
  std::vector<int64_t> right(cc.num_classes());
  for (int attr : attr_columns) {
    auto states = cc.AttributeStates(attr);
    if (states.size() < 2) continue;  // attribute constant at this node
    for (const auto& [value, left_counts] : states) {
      int64_t left_total = 0;
      for (int64_t c : left_counts) left_total += c;
      const int64_t right_total = total - left_total;
      if (left_total == 0 || right_total == 0) continue;
      for (int k = 0; k < cc.num_classes(); ++k) {
        right[k] = totals[k] - left_counts[k];
      }
      const double wl = static_cast<double>(left_total) / total;
      const double wr = static_cast<double>(right_total) / total;
      double gain = parent_impurity -
                    wl * Impurity(left_counts, left_total, criterion) -
                    wr * Impurity(right, right_total, criterion);
      if (criterion == SplitCriterion::kGainRatio) {
        // Split info of the binary partition.
        const double split_info = -(wl * std::log2(wl) + wr * std::log2(wr));
        if (split_info > 0) gain /= split_info;
      }
      const bool better =
          !best.has_value() || gain > best->gain + 1e-12 ||
          (std::abs(gain - best->gain) <= 1e-12 &&
           (attr < best->attr || (attr == best->attr && value < best->value)));
      if (better) {
        BinarySplit split;
        split.attr = attr;
        split.value = value;
        split.gain = gain;
        split.left_rows = left_total;
        split.right_rows = right_total;
        best = split;
      }
    }
  }
  return best;
}

// ------------------------------------------------- approximate counting

double NormalQuantile(double p) {
  assert(p > 0.0 && p < 1.0);
  // Acklam's rational approximation: central region plus two tails.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double kLow = 0.02425;
  if (p < kLow) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > 1.0 - kLow) {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
          a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

double SplitImpurityVariance(const CcTable& cc, const BinarySplit& split,
                             SplitCriterion criterion, int64_t sample_rows) {
  if (sample_rows <= 0) return 0.0;
  const int64_t total = cc.TotalRows();
  if (total <= 0) return 0.0;
  const std::vector<int64_t>& totals = cc.ClassTotals();
  const std::span<const int64_t> left = cc.GetCounts(split.attr, split.value);
  if (std::all_of(left.begin(), left.end(), [](int64_t c) { return c == 0; })) {
    return 0.0;  // the split's state does not occur at this node
  }

  const double n = static_cast<double>(total);
  const int num_classes = cc.num_classes();
  // Multinomial cell probabilities q_bk over (branch, class), estimated
  // from the CC itself.
  std::vector<double> q(2 * num_classes, 0.0);
  double w[2] = {0.0, 0.0};
  for (int k = 0; k < num_classes; ++k) {
    q[k] = static_cast<double>(left[k]) / n;
    q[num_classes + k] = static_cast<double>(totals[k] - left[k]) / n;
    w[0] += q[k];
    w[1] += q[num_classes + k];
  }
  // Delta method: Var(f) ~= (E[g^2] - E[g]^2) / n_sample with g the
  // gradient of the weighted-children impurity at q. Zero-probability cells
  // contribute nothing to either expectation.
  double mean_g = 0.0;
  double mean_g2 = 0.0;
  for (int branch = 0; branch < 2; ++branch) {
    if (w[branch] <= 0.0) continue;
    double sum_sq = 0.0;
    for (int k = 0; k < num_classes; ++k) {
      const double qk = q[branch * num_classes + k];
      sum_sq += qk * qk;
    }
    const double gini_base = sum_sq / (w[branch] * w[branch]);
    for (int k = 0; k < num_classes; ++k) {
      const double qk = q[branch * num_classes + k];
      if (qk <= 0.0) continue;
      const double g = criterion == SplitCriterion::kGini
                           ? gini_base - 2.0 * qk / w[branch]
                           : std::log2(w[branch] / qk);
      mean_g += qk * g;
      mean_g2 += qk * g * g;
    }
  }
  const double var =
      (mean_g2 - mean_g * mean_g) / static_cast<double>(sample_rows);
  return var > 0.0 ? var : 0.0;
}

std::optional<TopTwoSplits> ChooseTopTwoBinarySplits(
    const CcTable& cc, const std::vector<int>& attr_columns,
    SplitCriterion criterion, int64_t sample_rows) {
  const int64_t total = cc.TotalRows();
  if (total <= 1) return std::nullopt;
  const std::vector<int64_t>& totals = cc.ClassTotals();
  const double parent_impurity = Impurity(totals, total, criterion);

  // Same candidate enumeration and ordering as ChooseBestBinarySplit, with
  // a second slot trailing the first.
  auto better_than = [](double gain, int attr, Value value,
                        const BinarySplit& other) {
    return gain > other.gain + 1e-12 ||
           (std::abs(gain - other.gain) <= 1e-12 &&
            (attr < other.attr ||
             (attr == other.attr && value < other.value)));
  };
  std::optional<BinarySplit> best;
  std::optional<BinarySplit> second;
  std::vector<int64_t> right(cc.num_classes());
  for (int attr : attr_columns) {
    auto states = cc.AttributeStates(attr);
    if (states.size() < 2) continue;
    // When exactly two of the attribute's values carry rows, their two
    // one-vs-rest candidates induce the *same* partition (they are
    // complements, with identical gain). The runner-up slot must hold a
    // split the client could actually have chosen instead — a different
    // partition — or the gap degenerates to a phantom zero.
    int usable = 0;
    for (const auto& [value, left_counts] : states) {
      int64_t left_total = 0;
      for (int64_t c : left_counts) left_total += c;
      if (left_total > 0 && left_total < total) ++usable;
    }
    auto complements_best = [&](int candidate_attr) {
      return best.has_value() && best->attr == candidate_attr && usable == 2;
    };
    for (const auto& [value, left_counts] : states) {
      int64_t left_total = 0;
      for (int64_t c : left_counts) left_total += c;
      const int64_t right_total = total - left_total;
      if (left_total == 0 || right_total == 0) continue;
      for (int k = 0; k < cc.num_classes(); ++k) {
        right[k] = totals[k] - left_counts[k];
      }
      const double wl = static_cast<double>(left_total) / total;
      const double wr = static_cast<double>(right_total) / total;
      const double gain = parent_impurity -
                          wl * Impurity(left_counts, left_total, criterion) -
                          wr * Impurity(right, right_total, criterion);
      BinarySplit split;
      split.attr = attr;
      split.value = value;
      split.gain = gain;
      split.left_rows = left_total;
      split.right_rows = right_total;
      if (!best.has_value() || better_than(gain, attr, value, *best)) {
        // A complement can never displace the best (equal gain loses every
        // tie-break), so the demoted best is always a distinct partition.
        std::optional<BinarySplit> demoted = best;
        best = split;
        if (demoted.has_value() &&
            (!second.has_value() || better_than(demoted->gain, demoted->attr,
                                                demoted->value, *second))) {
          second = demoted;
        }
      } else if (!complements_best(attr) &&
                 (!second.has_value() ||
                  better_than(gain, attr, value, *second))) {
        second = split;
      }
    }
  }
  if (!best.has_value()) return std::nullopt;

  TopTwoSplits result;
  result.best = *best;
  if (second.has_value()) {
    result.has_second = true;
    result.second = *second;
    result.gap = std::max(0.0, best->gain - second->gain);
    result.gap_variance =
        SplitImpurityVariance(cc, *best, criterion, sample_rows) +
        SplitImpurityVariance(cc, *second, criterion, sample_rows);
  }
  return result;
}

}  // namespace sqlclass
