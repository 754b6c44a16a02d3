#ifndef SQLCLASS_SHARD_WIRE_H_
#define SQLCLASS_SHARD_WIRE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "catalog/row.h"
#include "catalog/schema.h"
#include "common/status.h"
#include "mining/cc_table.h"
#include "storage/io_counters.h"

namespace sqlclass {

class Expr;

/// Message framing for the out-of-process shard transport (DESIGN.md
/// "Distributed scan-out"): the coordinator ships WireShardTask work orders
/// to pre-forked `sqlclass_shard_worker` processes and receives partial CC
/// tables + IoCounters back, each as one length-prefixed, Checksum32-framed
/// message over a pipe.
///
/// Frame layout (all integers little-endian):
///   [magic: u32][type: u32][payload length: u32]
///   [payload checksum: u32][header checksum: u32][payload bytes...]
///
/// The payload checksum is Checksum32 over the payload bytes; the header
/// checksum covers the 16 header bytes before it. Every single-byte
/// corruption of a frame is therefore caught by one of the two checksums
/// (kDataLoss), and every truncation surfaces as a short read (kIoError) —
/// a torn or corrupt frame can never decode into a wrong CC table.
/// Fault-injection points: `shard/rpc_send` guards WireSend,
/// `shard/rpc_recv` guards WireRecv (see common/fault_injector.h).
inline constexpr uint32_t kWireMagic = 0x52575153;  // "SQWR"
inline constexpr size_t kWireHeaderBytes = 5 * sizeof(uint32_t);

/// Upper bound on one frame's payload. Far above any real shard reply;
/// exists so a corrupt length field cannot drive a huge allocation.
inline constexpr uint32_t kWireMaxPayloadBytes = 1u << 28;  // 256 MiB

enum class WireFrameType : uint32_t {
  kShardTask = 1,    // coordinator -> worker: one shard work order
  kShardResult = 2,  // worker -> coordinator: partial CC tables + IO
  kShardError = 3,   // worker -> coordinator: the shard scan's error Status
};

struct WireFrame {
  uint32_t type = 0;
  std::string payload;
};

/// Serializes one frame (header + payload) into `out` without sending it.
/// WireSend uses this internally; the worker's torn-frame crash injection
/// uses it to write exactly half a valid frame before exiting.
void WireEncodeFrame(WireFrameType type, const std::string& payload,
                     std::string* out);

/// Writes one complete frame to `fd`, retrying short writes and EINTR.
/// `deadline_ms > 0` bounds the whole send: if the pipe stays unwritable
/// past the deadline the send fails (kIoError) and `*timed_out` (nullable)
/// is set. EPIPE — the peer died — surfaces as kIoError naming the broken
/// pipe. Callers must ignore SIGPIPE process-wide.
[[nodiscard]] Status WireSend(int fd, WireFrameType type,
                              const std::string& payload, int deadline_ms = 0,
                              bool* timed_out = nullptr);

/// Reads one complete frame from `fd`. `deadline_ms > 0` bounds the whole
/// receive via poll; expiry returns kIoError with `*timed_out` (nullable)
/// set — the caller's cue to SIGKILL the worker. EOF before the first
/// header byte sets `*clean_eof` (nullable) — the worker's orderly-shutdown
/// signal; EOF mid-frame is a torn frame (kIoError). Corruption — bad
/// magic, implausible length, either checksum mismatch — returns kDataLoss.
[[nodiscard]] Status WireRecv(int fd, int deadline_ms, WireFrame* frame,
                              bool* timed_out = nullptr,
                              bool* clean_eof = nullptr);

/// Wire form of a bound node predicate: the Expr lowered to column
/// indexes, so the worker needs no table schema. Kinds mirror ExprKind.
/// CountShardTask raises it back to an Expr (ExprFromWirePredicate) in the
/// coordinator and in the worker alike, so both make the same per-node
/// match decisions.
struct WirePredicate {
  uint8_t kind = 0;     // 0 TRUE, 1 col==lit, 2 col!=lit, 3 AND, 4 OR, 5 NOT
  int32_t column = -1;  // bound column index (comparison kinds)
  int32_t literal = 0;
  std::vector<WirePredicate> children;
};

/// Lowers a bound Expr to its wire form. Null means TRUE (the coordinator's
/// convention for match-everything nodes).
WirePredicate WirePredicateFromExpr(const Expr* expr);

/// The inverse of WirePredicateFromExpr: an unbound Expr over the column
/// names of WireSchema. `pred` must be well formed, as DecodeShardTask
/// guarantees.
std::unique_ptr<Expr> ExprFromWirePredicate(const WirePredicate& pred);

/// A schema of `num_columns` index-named columns (no class column), for
/// binding the Exprs ExprFromWirePredicate raises.
Schema WireSchema(int num_columns);

/// One CC request inside a shipped shard task.
struct WireTaskNode {
  WirePredicate predicate;
  std::vector<int32_t> attrs;  // active attribute columns
};

/// The work order for one shard: count the heap file into a partial CC
/// table per node. Every transport, the replica rung and the primary
/// rescan count it through CountShardTask (middleware/shard_scan.h).
struct WireShardTask {
  uint32_t shard = 0;
  std::string shard_heap_path;
  uint64_t expected_rows = 0;  // from the distribution map; mismatch = stale
  int32_t num_columns = 0;
  int32_t class_column = 0;
  int32_t num_classes = 0;
  std::vector<WireTaskNode> nodes;
  /// Domain size of every column. Not encoded: the coordinator keeps it to
  /// reject a reply whose CC cells fall outside it (DecodeShardResult).
  std::vector<int32_t> cardinalities;
};

void EncodeShardTask(const WireShardTask& task, std::string* out);

/// Rejects (kDataLoss) a task the worker could not count safely as well as
/// a truncated one: a row wider than a heap page, a comparison on a column
/// outside [0, num_columns), a NOT without exactly one child, an AND or OR
/// without children, or a node or child count the remaining payload cannot
/// hold — all before allocating for it.
[[nodiscard]] Status DecodeShardTask(const std::string& payload,
                                     WireShardTask* out);

/// A counted shard — what every transport returns and a worker replies
/// with: the shard's row tally, its private physical IO, and one partial
/// CC table per task node.
struct WireShardResult {
  uint64_t rows_scanned = 0;
  IoCounters io;
  std::vector<CcTable> partials;
};

void EncodeShardResult(const WireShardResult& result, std::string* out);

/// Decodes a result for a task of `num_nodes` nodes over `num_classes`
/// classes; any disagreement (table count, class count, a cell whose
/// (attribute, value) lies outside `cardinalities` — one domain size per
/// column — a negative count, truncation, trailing bytes) is kDataLoss. The rebuilt tables
/// are structurally identical to the encoded ones, so the coordinator's
/// fixed-order merge is byte-identical to the in-process transport's.
[[nodiscard]] Status DecodeShardResult(const std::string& payload,
                                       int num_classes,
                                       const std::vector<int>& cardinalities,
                                       size_t num_nodes, WireShardResult* out);

/// Status <-> kShardError payload (code + message).
void EncodeStatusPayload(const Status& status, std::string* out);
[[nodiscard]] Status DecodeStatusPayload(const std::string& payload,
                                         Status* out);

}  // namespace sqlclass

#endif  // SQLCLASS_SHARD_WIRE_H_
