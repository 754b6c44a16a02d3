#ifndef SQLCLASS_PERFBENCH_PROBES_H_
#define SQLCLASS_PERFBENCH_PROBES_H_

#include <string>

#include "harness.h"
#include "server/server.h"

namespace perfbench {

/// Times single layers from outside by calling their public entry points on
/// the workload's own table: ServerCursor::Next, CcTable::AddRow,
/// ParallelCountScan::OverHeapFile at 1 and at all hardware threads,
/// BitmapCountScan::Run and ShardCoordinator::Run for the root node. Builds
/// the bitmap index and the 4-shard set when the workload has none, after
/// the timed part of the run. Every probe's root CC table must equal the
/// one AddRow builds; the verdict is written as "root_cc_agree".
void RunProbes(sqlclass::SqlServer* server, const std::string& table,
               JsonWriter* json);

}  // namespace perfbench

#endif  // SQLCLASS_PERFBENCH_PROBES_H_
