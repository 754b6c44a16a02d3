#ifndef SQLCLASS_MIDDLEWARE_SAMPLE_SCAN_H_
#define SQLCLASS_MIDDLEWARE_SAMPLE_SCAN_H_

#include <cstdint>
#include <vector>

#include "mining/cc_table.h"
#include "mining/split.h"

namespace sqlclass {

// Rule 7 answers CC requests from the table's scramble (storage/sample):
// BatchExecutor's sample pass counts every batch node's *sample* CC table
// in one ParallelCountScan over the pre-shuffled sample rows, at
// mw_sample_row_read_us per sample row per node instead of server-cursor
// cost per base row. The counts estimate the exact CC scaled down by the
// sampling fraction; the split-selection gate below decides per node
// whether that estimate is decision-equivalent to the exact answer.

/// Outcome of the confidence-bounded split-selection gate for one node.
struct SampleGateResult {
  /// True: the sampled CC identifies the same best split the exact CC
  /// would, at the configured confidence — serve the node from the sample.
  /// False: escalate the node to the exact path.
  bool accept = false;
  double gap = 0.0;        // impurity gap between the two best splits
  double threshold = 0.0;  // z * sqrt(Var(gap)) / (1 - exactness)
};

/// The Rule 7 gate: accept a node's sampled CC iff the impurity gap between
/// its two best binary splits clears the gap's delta-method confidence
/// interval at `confidence`, widened by 1 / (1 - exactness). Escalates
/// (accept = false) conservatively whenever the sample cannot speak for the
/// exact data: a pure sample slice, fewer than 50 matching sample rows
/// (`sample_rows` — below that the normal approximation is meaningless and
/// low-confidence settings would rubber-stamp noise), or fewer than two
/// candidate splits. kGainRatio gates as kEntropy.
SampleGateResult EvaluateSampleGate(const CcTable& sample_cc,
                                    const std::vector<int>& active_attrs,
                                    SplitCriterion criterion,
                                    uint64_t sample_rows, double confidence,
                                    double exactness);

/// Scales a sampled CC up to `target_total` rows by largest-remainder
/// apportionment: class totals are scaled first (they sum to exactly
/// `target_total`), then each attribute's per-class count vector is scaled
/// to sum to its class total. The result satisfies every structural
/// invariant of an exact CC — TotalRows() == target_total and each
/// attribute's cells sum to the class totals — so downstream consumers
/// (split scoring, the estimator) need no special casing. Ties break on
/// lower value for determinism.
CcTable ScaleCcToTotal(const CcTable& sample_cc,
                       const std::vector<int>& active_attrs,
                       uint64_t target_total);

}  // namespace sqlclass

#endif  // SQLCLASS_MIDDLEWARE_SAMPLE_SCAN_H_
