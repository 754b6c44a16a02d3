// Out-of-process shard worker (DESIGN.md "Distributed scan-out"): serves
// WireShardTask frames on stdin, replies on stdout, exits 0 when the
// coordinator closes the pipe. All behavior — including the deterministic
// crash injection via SQLCLASS_CRASH_AT and the inherited SQLCLASS_FAULTS
// spec — lives in middleware/worker_loop.cc so it is testable in-process.
#include <csignal>

#include "middleware/worker_loop.h"

int main() {
  // A coordinator that dies mid-exchange must surface as EPIPE on our
  // writes, not kill us silently before we can exit with a real code.
  std::signal(SIGPIPE, SIG_IGN);
  return sqlclass::ShardWorkerServe(/*in_fd=*/0, /*out_fd=*/1);
}
