#ifndef SQLCLASS_MIDDLEWARE_WORKER_LOOP_H_
#define SQLCLASS_MIDDLEWARE_WORKER_LOOP_H_

namespace sqlclass {

/// Serve loop of the `sqlclass_shard_worker` binary (DESIGN.md "Distributed
/// scan-out"): reads WireShardTask frames from `in_fd`, counts the named
/// shard heap file through CountShardTask — as the in-process transport
/// does — and replies with a kShardResult frame (partial CC tables +
/// IoCounters) or a kShardError frame carrying the scan's Status. Returns
/// the process exit code: 0 after the coordinator closes the pipe (orderly
/// shutdown), nonzero on a garbled input stream or an unsendable reply.
///
/// Deterministic crash injection, so the coordinator's torn-frame /
/// timeout / respawn paths are exercised for real:
///   - The `shard/worker_crash` fault point (armed through the inherited
///     SQLCLASS_FAULTS spec) makes the worker _exit mid-task before any
///     reply bytes are written.
///   - SQLCLASS_CRASH_AT=<point>[,after:N] crashes at a named point while
///     serving the (N+1)-th task (default N=0, the first task):
///       shard/rpc_recv     _exit right after reading the task frame
///       shard/worker_crash _exit after the scan, before the reply
///       shard/rpc_send     write half the reply frame, then _exit (a torn
///                          frame the coordinator must reject by checksum)
///       shard/hang         sleep far past any RPC deadline before replying
///                          (exercises SIGKILL-on-timeout)
int ShardWorkerServe(int in_fd, int out_fd);

}  // namespace sqlclass

#endif  // SQLCLASS_MIDDLEWARE_WORKER_LOOP_H_
