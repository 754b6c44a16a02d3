// Shard RPC wire layer: frame roundtrips over real pipes, exhaustive
// single-byte-corruption and truncation sweeps (every mutation must surface
// as kDataLoss or kIoError — never a wrong payload), deadline expiry,
// clean-EOF detection, codec roundtrips for tasks / results / statuses,
// rejection of malformed tasks, and Expr -> wire -> Expr evaluation
// equivalence.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <csignal>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/fault_injector.h"
#include "shard/wire.h"
#include "sql/expr.h"
#include "test_util.h"

namespace sqlclass {
namespace {

using testing_util::FaultScope;
using testing_util::MakeSchema;
using testing_util::RandomRows;

/// A unidirectional pipe that closes leftover ends on destruction.
class Pipe {
 public:
  Pipe() {
    EXPECT_EQ(::pipe(fds_), 0);
    std::signal(SIGPIPE, SIG_IGN);
  }
  ~Pipe() {
    CloseRead();
    CloseWrite();
  }
  int read_fd() const { return fds_[0]; }
  int write_fd() const { return fds_[1]; }
  void CloseRead() {
    if (fds_[0] >= 0) ::close(fds_[0]);
    fds_[0] = -1;
  }
  void CloseWrite() {
    if (fds_[1] >= 0) ::close(fds_[1]);
    fds_[1] = -1;
  }

 private:
  int fds_[2] = {-1, -1};
};

void WriteAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t r = ::write(fd, bytes.data() + sent, bytes.size() - sent);
    ASSERT_GT(r, 0);
    sent += static_cast<size_t>(r);
  }
}

std::string SamplePayload() {
  std::string payload;
  for (int i = 0; i < 300; ++i) payload.push_back(static_cast<char>(i * 7));
  return payload;
}

TEST(WireFrameTest, SendRecvRoundtripAndCleanEof) {
  Pipe pipe;
  const std::string payload = SamplePayload();
  ASSERT_TRUE(
      WireSend(pipe.write_fd(), WireFrameType::kShardResult, payload).ok());
  WireFrame frame;
  bool clean_eof = false;
  ASSERT_TRUE(
      WireRecv(pipe.read_fd(), 0, &frame, nullptr, &clean_eof).ok());
  EXPECT_FALSE(clean_eof);
  EXPECT_EQ(frame.type, static_cast<uint32_t>(WireFrameType::kShardResult));
  EXPECT_EQ(frame.payload, payload);

  // Empty payload frames are legal.
  ASSERT_TRUE(WireSend(pipe.write_fd(), WireFrameType::kShardTask, "").ok());
  ASSERT_TRUE(WireRecv(pipe.read_fd(), 0, &frame, nullptr, nullptr).ok());
  EXPECT_EQ(frame.type, static_cast<uint32_t>(WireFrameType::kShardTask));
  EXPECT_TRUE(frame.payload.empty());

  // EOF before the first byte is the orderly-shutdown signal.
  pipe.CloseWrite();
  clean_eof = false;
  Status eof = WireRecv(pipe.read_fd(), 0, &frame, nullptr, &clean_eof);
  EXPECT_EQ(eof.code(), StatusCode::kIoError);
  EXPECT_TRUE(clean_eof);
}

TEST(WireFrameTest, EveryByteFlipIsRejected) {
  const std::string payload = SamplePayload();
  std::string pristine;
  WireEncodeFrame(WireFrameType::kShardResult, payload, &pristine);

  for (size_t i = 0; i < pristine.size(); ++i) {
    std::string mutated = pristine;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x40);
    Pipe pipe;
    WriteAll(pipe.write_fd(), mutated);
    pipe.CloseWrite();
    WireFrame frame;
    const Status received = WireRecv(pipe.read_fd(), 0, &frame, nullptr,
                                     nullptr);
    ASSERT_FALSE(received.ok()) << "flip at byte " << i << " got through";
    EXPECT_TRUE(received.code() == StatusCode::kDataLoss ||
                received.code() == StatusCode::kIoError)
        << "flip at byte " << i << ": " << received.ToString();
  }
}

TEST(WireFrameTest, EveryTruncationIsRejected) {
  const std::string payload = SamplePayload();
  std::string pristine;
  WireEncodeFrame(WireFrameType::kShardResult, payload, &pristine);

  for (size_t keep = 0; keep < pristine.size(); ++keep) {
    Pipe pipe;
    WriteAll(pipe.write_fd(), pristine.substr(0, keep));
    pipe.CloseWrite();
    WireFrame frame;
    bool clean_eof = false;
    const Status received =
        WireRecv(pipe.read_fd(), 0, &frame, nullptr, &clean_eof);
    ASSERT_FALSE(received.ok()) << "truncation at " << keep << " got through";
    EXPECT_EQ(received.code(), StatusCode::kIoError) << "at " << keep;
    // Only the zero-byte case is a clean shutdown; every other prefix is a
    // torn frame.
    EXPECT_EQ(clean_eof, keep == 0) << "at " << keep;
  }
}

TEST(WireFrameTest, RecvDeadlineExpires) {
  Pipe pipe;
  WireFrame frame;
  bool timed_out = false;
  const Status received =
      WireRecv(pipe.read_fd(), 25, &frame, &timed_out, nullptr);
  EXPECT_EQ(received.code(), StatusCode::kIoError);
  EXPECT_TRUE(timed_out);
}

TEST(WireFrameTest, SendDeadlineExpiresOnFullPipe) {
  Pipe pipe;
  // Saturate the pipe buffer so POLLOUT never fires.
  ASSERT_EQ(::fcntl(pipe.write_fd(), F_SETFL, O_NONBLOCK), 0);
  std::string junk(1 << 16, 'x');
  while (::write(pipe.write_fd(), junk.data(), junk.size()) > 0) {
  }
  ASSERT_EQ(::fcntl(pipe.write_fd(), F_SETFL, 0), 0);
  bool timed_out = false;
  const Status sent = WireSend(pipe.write_fd(), WireFrameType::kShardTask,
                               junk, 25, &timed_out);
  EXPECT_EQ(sent.code(), StatusCode::kIoError);
  EXPECT_TRUE(timed_out);
}

TEST(WireFrameTest, SendToClosedPipeIsEpipeNotCrash) {
  Pipe pipe;
  pipe.CloseRead();
  const Status sent =
      WireSend(pipe.write_fd(), WireFrameType::kShardTask, "payload");
  EXPECT_EQ(sent.code(), StatusCode::kIoError);
}

TEST(WireFrameTest, FaultPointsGuardSendAndRecv) {
  FaultScope guard;
  Pipe pipe;
  {
    FaultInjector::PointConfig fault;
    fault.times = 1;
    FaultInjector::Global().Arm(faults::kShardRpcSend, fault);
    EXPECT_FALSE(
        WireSend(pipe.write_fd(), WireFrameType::kShardTask, "x").ok());
    // The injected failure fired before any byte hit the pipe.
    EXPECT_TRUE(
        WireSend(pipe.write_fd(), WireFrameType::kShardTask, "x").ok());
  }
  {
    FaultInjector::PointConfig fault;
    fault.times = 1;
    FaultInjector::Global().Arm(faults::kShardRpcRecv, fault);
    WireFrame frame;
    EXPECT_FALSE(WireRecv(pipe.read_fd(), 0, &frame, nullptr, nullptr).ok());
    EXPECT_TRUE(WireRecv(pipe.read_fd(), 0, &frame, nullptr, nullptr).ok());
    EXPECT_EQ(frame.payload, "x");
  }
}

// ---------------------------------------------------------------------------
// Payload codecs.
// ---------------------------------------------------------------------------

WireShardTask SampleTask() {
  WireShardTask task;
  task.shard = 3;
  task.shard_heap_path = "/tmp/does-not-matter.heap.shard3";
  task.expected_rows = 12345;
  task.num_columns = 5;
  task.class_column = 4;
  task.num_classes = 3;
  task.nodes.resize(2);
  task.nodes[0].predicate.kind = 0;  // TRUE
  task.nodes[0].attrs = {0, 1, 2, 3};
  WirePredicate eq;
  eq.kind = 1;
  eq.column = 2;
  eq.literal = 1;
  WirePredicate ne;
  ne.kind = 2;
  ne.column = 0;
  ne.literal = 3;
  WirePredicate andp;
  andp.kind = 3;
  andp.children = {eq, ne};
  WirePredicate notp;
  notp.kind = 5;
  notp.children = {andp};
  task.nodes[1].predicate = notp;
  task.nodes[1].attrs = {1, 3};
  return task;
}

TEST(WireCodecTest, ShardTaskRoundtrip) {
  const WireShardTask task = SampleTask();
  std::string payload;
  EncodeShardTask(task, &payload);
  WireShardTask decoded;
  ASSERT_TRUE(DecodeShardTask(payload, &decoded).ok());
  EXPECT_EQ(decoded.shard, task.shard);
  EXPECT_EQ(decoded.shard_heap_path, task.shard_heap_path);
  EXPECT_EQ(decoded.expected_rows, task.expected_rows);
  EXPECT_EQ(decoded.num_columns, task.num_columns);
  EXPECT_EQ(decoded.class_column, task.class_column);
  EXPECT_EQ(decoded.num_classes, task.num_classes);
  ASSERT_EQ(decoded.nodes.size(), task.nodes.size());
  EXPECT_EQ(decoded.nodes[0].attrs, task.nodes[0].attrs);
  EXPECT_EQ(decoded.nodes[1].attrs, task.nodes[1].attrs);
  // Re-encoding the decoded task must be byte-identical — the codec is
  // canonical.
  std::string reencoded;
  EncodeShardTask(decoded, &reencoded);
  EXPECT_EQ(reencoded, payload);
}

// A derived node whose every attribute is derived ships with none: the
// shard counts only its class totals.
TEST(WireCodecTest, TaskNodeWithNoAttributesRoundtrips) {
  WireShardTask task = SampleTask();
  task.nodes[1].attrs.clear();
  std::string payload;
  EncodeShardTask(task, &payload);
  WireShardTask decoded;
  ASSERT_TRUE(DecodeShardTask(payload, &decoded).ok());
  ASSERT_EQ(decoded.nodes.size(), 2u);
  EXPECT_EQ(decoded.nodes[0].attrs, task.nodes[0].attrs);
  EXPECT_TRUE(decoded.nodes[1].attrs.empty());
  std::string reencoded;
  EncodeShardTask(decoded, &reencoded);
  EXPECT_EQ(reencoded, payload);

  // Its partial table holds class totals and no cells.
  WireShardResult result;
  result.rows_scanned = 9;
  result.partials.emplace_back(3);
  result.partials[0].AddClassTotal(0, 4);
  result.partials[0].AddClassTotal(2, 5);
  std::string result_payload;
  EncodeShardResult(result, &result_payload);
  WireShardResult decoded_result;
  ASSERT_TRUE(DecodeShardResult(result_payload, 3, {4, 3, 5, 3}, 1,
                                &decoded_result)
                  .ok());
  ASSERT_EQ(decoded_result.partials.size(), 1u);
  EXPECT_TRUE(decoded_result.partials[0] == result.partials[0]);
  EXPECT_EQ(decoded_result.partials[0].NumEntries(), 0u);
  EXPECT_EQ(decoded_result.partials[0].TotalRows(), 9);
}

TEST(WireCodecTest, MalformedShardTasksAreRejectedAtDecode) {
  WireShardTask task = SampleTask();
  task.num_columns = 3;
  task.class_column = 2;
  task.nodes.resize(1);
  task.nodes[0].attrs = {0, 1};
  std::string payload;
  WireShardTask decoded;
  {
    SCOPED_TRACE("comparison on column 999 of a 3-column row");
    task.nodes[0].predicate.kind = 1;
    task.nodes[0].predicate.column = 999;
    EncodeShardTask(task, &payload);
    EXPECT_EQ(DecodeShardTask(payload, &decoded).code(),
              StatusCode::kDataLoss);
  }
  {
    SCOPED_TRACE("NOT with zero children");
    task.nodes[0].predicate = WirePredicate();
    task.nodes[0].predicate.kind = 5;
    EncodeShardTask(task, &payload);
    EXPECT_EQ(DecodeShardTask(payload, &decoded).code(),
              StatusCode::kDataLoss);
  }
  {
    SCOPED_TRACE("AND with zero children");
    task.nodes[0].predicate.kind = 3;
    EncodeShardTask(task, &payload);
    EXPECT_EQ(DecodeShardTask(payload, &decoded).code(),
              StatusCode::kDataLoss);
  }
  {
    SCOPED_TRACE("a row wider than a heap page");
    task.nodes[0].predicate = WirePredicate();
    task.num_columns = 1 << 20;
    EncodeShardTask(task, &payload);
    EXPECT_EQ(DecodeShardTask(payload, &decoded).code(),
              StatusCode::kDataLoss);
  }
  {
    SCOPED_TRACE("2^32-1 nodes in a 33-byte payload");
    payload.clear();
    PutFixed32(&payload, 0);                // shard
    PutFixed32(&payload, 1);                // heap path length
    payload.push_back('x');                 // heap path
    PutFixed64(&payload, 10);               // expected rows
    PutFixed32(&payload, 3);                // columns
    PutFixed32(&payload, 2);                // class column
    PutFixed32(&payload, 2);                // classes
    PutFixed32(&payload, 0xFFFFFFFFu);      // nodes
    ASSERT_EQ(payload.size(), 33u);
    EXPECT_EQ(DecodeShardTask(payload, &decoded).code(),
              StatusCode::kDataLoss);
  }
}

TEST(WireCodecTest, EveryShardTaskTruncationIsRejected) {
  std::string payload;
  EncodeShardTask(SampleTask(), &payload);
  for (size_t keep = 0; keep < payload.size(); ++keep) {
    WireShardTask decoded;
    const Status status = DecodeShardTask(payload.substr(0, keep), &decoded);
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << "at " << keep;
  }
  // Trailing garbage is rejected too.
  WireShardTask decoded;
  EXPECT_EQ(DecodeShardTask(payload + "x", &decoded).code(),
            StatusCode::kDataLoss);
}

TEST(WireCodecTest, ShardResultRoundtripRebuildsIdenticalTables) {
  Schema schema = MakeSchema({4, 3, 5}, 3);
  std::vector<Row> rows = RandomRows(schema, 400, 17);
  const std::vector<int> attrs = {0, 1, 2};

  WireShardResult result;
  result.rows_scanned = rows.size();
  result.io.pages_read = 7;
  result.io.rows_read = rows.size();
  result.partials.emplace_back(3);
  result.partials.emplace_back(3);
  for (const Row& row : rows) {
    result.partials[0].AddRow(row, attrs, schema.class_column());
    if (row[0] == 1) {
      result.partials[1].AddRow(row, attrs, schema.class_column());
    }
  }

  std::string payload;
  EncodeShardResult(result, &payload);
  WireShardResult decoded;
  ASSERT_TRUE(
      DecodeShardResult(payload, 3, {4, 3, 5, 3}, 2, &decoded).ok());
  EXPECT_EQ(decoded.rows_scanned, result.rows_scanned);
  EXPECT_EQ(decoded.io.pages_read, result.io.pages_read);
  EXPECT_EQ(decoded.io.rows_read, result.io.rows_read);
  ASSERT_EQ(decoded.partials.size(), 2u);
  EXPECT_TRUE(decoded.partials[0] == result.partials[0]);
  EXPECT_TRUE(decoded.partials[1] == result.partials[1]);
}

TEST(WireCodecTest, ShardResultGeometryMismatchesAreRejected) {
  WireShardResult result;
  result.partials.emplace_back(3);
  std::string payload;
  EncodeShardResult(result, &payload);

  const std::vector<int> cards = {4, 3};
  WireShardResult decoded;
  // Wrong node count.
  EXPECT_EQ(DecodeShardResult(payload, 3, cards, 2, &decoded).code(),
            StatusCode::kDataLoss);
  // Wrong class count.
  EXPECT_EQ(DecodeShardResult(payload, 4, cards, 1, &decoded).code(),
            StatusCode::kDataLoss);
  // Every truncation.
  for (size_t keep = 0; keep < payload.size(); ++keep) {
    EXPECT_EQ(
        DecodeShardResult(payload.substr(0, keep), 3, cards, 1, &decoded)
            .code(),
        StatusCode::kDataLoss)
        << "at " << keep;
  }
}

TEST(WireCodecTest, ShardResultCellsOutsideTheDomainAreRejected) {
  // One cell (attr 1, value 2) over 3 classes: its attr and value words sit
  // just before its three counts at the end of the payload.
  WireShardResult result;
  result.partials.emplace_back(3);
  result.partials[0].Add(1, 2, 0, 5);
  std::string payload;
  EncodeShardResult(result, &payload);
  const size_t value_at = payload.size() - 3 * 8 - 4;
  const std::vector<int> cards = {4, 3, 3};
  WireShardResult decoded;
  ASSERT_TRUE(DecodeShardResult(payload, 3, cards, 1, &decoded).ok());
  for (size_t at : {value_at - 4, value_at}) {
    for (int32_t word : {-1, 3, 1 << 30}) {
      std::string bad = payload;
      EncodeFixed32(bad.data() + at, static_cast<uint32_t>(word));
      EXPECT_EQ(DecodeShardResult(bad, 3, cards, 1, &decoded).code(),
                StatusCode::kDataLoss)
          << "offset " << at << " word " << word;
    }
  }
}

TEST(WireCodecTest, ShardResultNegativeCountsAreRejected) {
  // One cell over 2 classes: the payload ends with the two class totals,
  // the cell count, the cell's attr and value words and its two counts.
  WireShardResult result;
  result.partials.emplace_back(2);
  result.partials[0].AddRow({1, 0}, {0}, 1);
  std::string payload;
  EncodeShardResult(result, &payload);
  const size_t counts_at = payload.size() - 2 * 8;
  const size_t totals_at = counts_at - 4 - 4 - 4 - 2 * 8;
  const std::vector<int> cards = {2, 2};
  WireShardResult decoded;
  ASSERT_TRUE(DecodeShardResult(payload, 2, cards, 1, &decoded).ok());
  for (size_t at : {totals_at, totals_at + 8, counts_at, counts_at + 8}) {
    std::string bad = payload;
    EncodeFixed64(bad.data() + at, static_cast<uint64_t>(int64_t{-1}));
    // Re-sealed: the frame's checksums cover the edit, so only the codec
    // can reject it.
    Pipe pipe;
    ASSERT_TRUE(WireSend(pipe.write_fd(), WireFrameType::kShardResult, bad)
                    .ok());
    WireFrame frame;
    ASSERT_TRUE(WireRecv(pipe.read_fd(), 0, &frame).ok());
    EXPECT_EQ(DecodeShardResult(frame.payload, 2, cards, 1, &decoded).code(),
              StatusCode::kDataLoss)
        << "offset " << at;
  }
}

TEST(WireCodecTest, StatusPayloadRoundtripsEveryCode) {
  for (StatusCode code :
       {StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kOutOfMemory,
        StatusCode::kIoError, StatusCode::kParseError, StatusCode::kInternal,
        StatusCode::kResourceExhausted, StatusCode::kUnimplemented,
        StatusCode::kDataLoss}) {
    const Status original(code, "shard scan failed: details");
    std::string payload;
    EncodeStatusPayload(original, &payload);
    Status decoded = Status::OK();
    ASSERT_TRUE(DecodeStatusPayload(payload, &decoded).ok());
    EXPECT_EQ(decoded.code(), code);
    EXPECT_EQ(decoded.message(), original.message());
  }
  Status decoded = Status::OK();
  EXPECT_EQ(DecodeStatusPayload("zz", &decoded).code(), StatusCode::kDataLoss);
  // Codes past the last StatusCode decode to kDataLoss, not a bogus code.
  for (uint32_t code : {11u, 0xFFFFFFFFu}) {
    std::string payload;
    EncodeStatusPayload(Status(static_cast<StatusCode>(code), "x"), &payload);
    EXPECT_EQ(DecodeStatusPayload(payload, &decoded).code(),
              StatusCode::kDataLoss)
        << code;
  }
}

// ---------------------------------------------------------------------------
// Predicate lowering.
// ---------------------------------------------------------------------------

TEST(WirePredicateTest, EvalMatchesExprOverRandomRows) {
  Schema schema = MakeSchema({4, 3, 5, 2}, 3);
  std::vector<Row> rows = RandomRows(schema, 500, 91);

  std::vector<std::unique_ptr<Expr>> exprs;
  exprs.push_back(Expr::True());
  exprs.push_back(Expr::ColEq("A1", 2));
  exprs.push_back(Expr::ColNe("A3", 1));
  {
    std::vector<std::unique_ptr<Expr>> clauses;
    clauses.push_back(Expr::ColEq("A1", 1));
    clauses.push_back(Expr::ColNe("A2", 0));
    exprs.push_back(Expr::And(std::move(clauses)));
  }
  {
    std::vector<std::unique_ptr<Expr>> clauses;
    clauses.push_back(Expr::ColEq("A2", 2));
    std::vector<std::unique_ptr<Expr>> inner;
    inner.push_back(Expr::ColEq("A4", 0));
    inner.push_back(Expr::ColNe("A1", 3));
    clauses.push_back(Expr::And(std::move(inner)));
    exprs.push_back(Expr::Or(std::move(clauses)));
  }
  exprs.push_back(Expr::Not(Expr::ColEq("A3", 4)));

  // Expr -> wire -> encode/decode -> Expr, as the worker receives it.
  auto round_trip = [&](const Expr* expr) -> std::unique_ptr<Expr> {
    WireShardTask task = SampleTask();
    task.num_columns = schema.num_columns();
    task.class_column = schema.class_column();
    task.nodes.resize(1);
    task.nodes[0].predicate = WirePredicateFromExpr(expr);
    task.nodes[0].attrs = {0};
    std::string payload;
    EncodeShardTask(task, &payload);
    WireShardTask decoded;
    EXPECT_TRUE(DecodeShardTask(payload, &decoded).ok());
    std::unique_ptr<Expr> raised =
        ExprFromWirePredicate(decoded.nodes[0].predicate);
    EXPECT_TRUE(raised->Bind(WireSchema(schema.num_columns())).ok());
    return raised;
  };
  for (const auto& expr : exprs) {
    ASSERT_TRUE(expr->Bind(schema).ok());
    const std::unique_ptr<Expr> raised = round_trip(expr.get());
    for (const Row& row : rows) {
      EXPECT_EQ(raised->Eval(row.data()), expr->Eval(row.data()))
          << expr->ToSql();
    }
  }

  // The null-predicate convention (match everything).
  const std::unique_ptr<Expr> everything = round_trip(nullptr);
  for (const Row& row : rows) EXPECT_TRUE(everything->Eval(row.data()));
}

TEST(WirePredicateTest, DeeplyNestedDecodeIsBounded) {
  // 80 nested NOTs: decoding must refuse (depth cap), not blow the stack.
  WireShardTask task = SampleTask();
  WirePredicate deep;
  deep.kind = 0;
  for (int i = 0; i < 80; ++i) {
    WirePredicate wrap;
    wrap.kind = 5;  // NOT
    wrap.children = {deep};
    deep = wrap;
  }
  task.nodes[0].predicate = deep;
  std::string payload;
  EncodeShardTask(task, &payload);
  WireShardTask decoded;
  EXPECT_EQ(DecodeShardTask(payload, &decoded).code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace sqlclass
