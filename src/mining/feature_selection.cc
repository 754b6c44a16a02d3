#include "mining/feature_selection.h"

#include <algorithm>
#include <cmath>

namespace sqlclass {

std::vector<AttributeScore> RankAttributes(
    const CcTable& cc, const std::vector<int>& attr_columns) {
  std::vector<AttributeScore> scores;
  const int64_t total = cc.TotalRows();
  const double class_entropy =
      Impurity(cc.ClassTotals(), total, SplitCriterion::kEntropy);

  for (int attr : attr_columns) {
    AttributeScore score;
    score.attr = attr;
    auto states = cc.AttributeStates(attr);
    score.distinct_values = static_cast<int>(states.size());
    if (total > 0 && !states.empty()) {
      // H(C | A) = sum_v p(v) H(C | A = v);  I(A; C) = H(C) - H(C | A).
      double conditional = 0.0;
      double attr_entropy = 0.0;
      for (const auto& [value, counts] : states) {
        int64_t branch = 0;
        for (int64_t c : counts) branch += c;
        const double p = static_cast<double>(branch) / total;
        conditional += p * Impurity(counts, branch, SplitCriterion::kEntropy);
        if (p > 0) attr_entropy -= p * std::log2(p);
      }
      score.mutual_information = std::max(0.0, class_entropy - conditional);
      score.gain_ratio =
          attr_entropy > 0 ? score.mutual_information / attr_entropy : 0.0;
    }
    scores.push_back(score);
  }
  std::sort(scores.begin(), scores.end(),
            [](const AttributeScore& a, const AttributeScore& b) {
              if (a.mutual_information != b.mutual_information) {
                return a.mutual_information > b.mutual_information;
              }
              return a.attr < b.attr;
            });
  return scores;
}

std::vector<int> SelectTopAttributes(const CcTable& cc,
                                     const std::vector<int>& attr_columns,
                                     int k) {
  std::vector<AttributeScore> scores = RankAttributes(cc, attr_columns);
  std::vector<int> selected;
  for (const AttributeScore& score : scores) {
    if (static_cast<int>(selected.size()) >= k) break;
    selected.push_back(score.attr);
  }
  return selected;
}

}  // namespace sqlclass
