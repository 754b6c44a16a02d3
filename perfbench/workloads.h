#ifndef SQLCLASS_PERFBENCH_WORKLOADS_H_
#define SQLCLASS_PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

/// census_scan, census_bitmap and census_sharded: one client growing
/// max_depth=8 trees back to back over a 1M-row census table at
/// memory/data = 0.1 (the paper's Fig-6 regime).
void RunCensus(const Options& options, JsonWriter* json);

/// service_mixed: 4 closed-loop clients submitting a mix of depth-4/6/8 tree
/// and Naive Bayes sessions to a ClassificationService.
void RunService(const Options& options, JsonWriter* json);

}  // namespace perfbench

#endif  // SQLCLASS_PERFBENCH_WORKLOADS_H_
