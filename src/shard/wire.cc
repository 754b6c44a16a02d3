#include "shard/wire.h"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>

#include "common/bytes.h"
#include "common/fault_injector.h"
#include "sql/expr.h"
#include "storage/checksum.h"
#include "storage/heap_file.h"

namespace sqlclass {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// Milliseconds until `deadline`, clamped to [0, INT_MAX] for poll().
int RemainingMs(SteadyClock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - SteadyClock::now());
  if (left.count() <= 0) return 0;
  if (left.count() > std::numeric_limits<int>::max()) {
    return std::numeric_limits<int>::max();
  }
  return static_cast<int>(left.count());
}

/// Waits until `fd` is ready for `events` or the deadline passes. Returns
/// OK when ready; kIoError with `*timed_out` set on expiry.
Status PollFd(int fd, short events, SteadyClock::time_point deadline,
              bool* timed_out) {
  while (true) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    const int ready = ::poll(&pfd, 1, RemainingMs(deadline));
    if (ready > 0) return Status::OK();
    if (ready == 0) {
      if (timed_out != nullptr) *timed_out = true;
      return Status::IoError("shard rpc deadline expired");
    }
    if (errno == EINTR) continue;
    return Status::IoError(std::string("poll on shard rpc pipe failed: ") +
                           std::strerror(errno));
  }
}

/// Reads exactly `n` bytes. EOF at offset 0 sets `*clean_eof` (when the
/// caller passed one); EOF mid-buffer is a torn frame. A positive deadline
/// bounds the whole read.
Status ReadExact(int fd, char* buf, size_t n, int deadline_ms,
                 bool* timed_out, bool* clean_eof) {
  const SteadyClock::time_point deadline =
      SteadyClock::now() + std::chrono::milliseconds(deadline_ms);
  size_t got = 0;
  while (got < n) {
    if (deadline_ms > 0) {
      SQLCLASS_RETURN_IF_ERROR(PollFd(fd, POLLIN, deadline, timed_out));
    }
    const ssize_t r = ::read(fd, buf + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("shard rpc read failed: ") +
                             std::strerror(errno));
    }
    if (r == 0) {
      if (got == 0 && clean_eof != nullptr) {
        *clean_eof = true;
        return Status::IoError("shard rpc pipe closed");
      }
      return Status::IoError("torn shard rpc frame: pipe closed mid-message");
    }
    got += static_cast<size_t>(r);
  }
  return Status::OK();
}

/// Writes exactly `n` bytes, retrying short writes. A positive deadline
/// bounds the whole write via POLLOUT.
Status WriteExact(int fd, const char* buf, size_t n, int deadline_ms,
                  bool* timed_out) {
  const SteadyClock::time_point deadline =
      SteadyClock::now() + std::chrono::milliseconds(deadline_ms);
  size_t sent = 0;
  while (sent < n) {
    if (deadline_ms > 0) {
      SQLCLASS_RETURN_IF_ERROR(PollFd(fd, POLLOUT, deadline, timed_out));
    }
    const ssize_t r = ::write(fd, buf + sent, n - sent);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE) {
        return Status::IoError("shard rpc peer closed the pipe (EPIPE)");
      }
      return Status::IoError(std::string("shard rpc write failed: ") +
                             std::strerror(errno));
    }
    sent += static_cast<size_t>(r);
  }
  return Status::OK();
}

/// Bounds-checked sequential reader over a decoded payload. Every decode
/// failure is kDataLoss: the frame checksum already passed, so a malformed
/// payload means the sender and receiver disagree on the format.
class Decoder {
 public:
  explicit Decoder(const std::string& buf) : buf_(buf) {}

  [[nodiscard]] Status ReadU8(uint8_t* out) {
    if (pos_ + 1 > buf_.size()) return Truncated();
    *out = static_cast<uint8_t>(buf_[pos_]);
    pos_ += 1;
    return Status::OK();
  }

  [[nodiscard]] Status ReadU32(uint32_t* out) {
    if (pos_ + 4 > buf_.size()) return Truncated();
    *out = DecodeFixed32(buf_.data() + pos_);
    pos_ += 4;
    return Status::OK();
  }

  [[nodiscard]] Status ReadI32(int32_t* out) {
    uint32_t raw = 0;
    SQLCLASS_RETURN_IF_ERROR(ReadU32(&raw));
    *out = static_cast<int32_t>(raw);
    return Status::OK();
  }

  [[nodiscard]] Status ReadU64(uint64_t* out) {
    if (pos_ + 8 > buf_.size()) return Truncated();
    *out = DecodeFixed64(buf_.data() + pos_);
    pos_ += 8;
    return Status::OK();
  }

  [[nodiscard]] Status ReadI64(int64_t* out) {
    uint64_t raw = 0;
    SQLCLASS_RETURN_IF_ERROR(ReadU64(&raw));
    *out = static_cast<int64_t>(raw);
    return Status::OK();
  }

  [[nodiscard]] Status ReadString(std::string* out) {
    uint32_t len = 0;
    SQLCLASS_RETURN_IF_ERROR(ReadU32(&len));
    if (pos_ + len > buf_.size()) return Truncated();
    out->assign(buf_.data() + pos_, len);
    pos_ += len;
    return Status::OK();
  }

  bool exhausted() const { return pos_ == buf_.size(); }
  size_t remaining() const { return buf_.size() - pos_; }

 private:
  static Status Truncated() {
    return Status::DataLoss("truncated shard wire payload");
  }

  const std::string& buf_;
  size_t pos_ = 0;
};

void PutString(std::string* out, const std::string& s) {
  PutFixed32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

constexpr uint8_t kPredTrue = 0;
constexpr uint8_t kPredEq = 1;
constexpr uint8_t kPredNe = 2;
constexpr uint8_t kPredAnd = 3;
constexpr uint8_t kPredOr = 4;
constexpr uint8_t kPredNot = 5;

/// Cap on predicate-tree recursion while decoding, so a malformed payload
/// cannot blow the stack. Real node predicates are a few levels deep.
constexpr uint32_t kMaxPredicateDepth = 64;

/// Encoded size of a childless predicate (kind, column, literal, child
/// count) and of a task node with it and no attributes: the floors a
/// decoded count is checked against before anything is allocated for it.
constexpr size_t kMinPredicateBytes = 1 + 3 * sizeof(uint32_t);
constexpr size_t kMinTaskNodeBytes = kMinPredicateBytes + sizeof(uint32_t);

std::string WireColumnName(int column) {
  return "c" + std::to_string(column);
}

void EncodePredicate(const WirePredicate& pred, std::string* out) {
  out->push_back(static_cast<char>(pred.kind));
  PutFixed32(out, static_cast<uint32_t>(pred.column));
  PutFixed32(out, static_cast<uint32_t>(pred.literal));
  PutFixed32(out, static_cast<uint32_t>(pred.children.size()));
  for (const WirePredicate& child : pred.children) {
    EncodePredicate(child, out);
  }
}

Status DecodePredicate(Decoder* dec, uint32_t depth, int32_t num_columns,
                       WirePredicate* out) {
  if (depth > kMaxPredicateDepth) {
    return Status::DataLoss("shard wire predicate nested too deeply");
  }
  SQLCLASS_RETURN_IF_ERROR(dec->ReadU8(&out->kind));
  if (out->kind > kPredNot) {
    return Status::DataLoss("unknown shard wire predicate kind");
  }
  SQLCLASS_RETURN_IF_ERROR(dec->ReadI32(&out->column));
  SQLCLASS_RETURN_IF_ERROR(dec->ReadI32(&out->literal));
  uint32_t num_children = 0;
  SQLCLASS_RETURN_IF_ERROR(dec->ReadU32(&num_children));
  const bool comparison = out->kind == kPredEq || out->kind == kPredNe;
  if (comparison && (out->column < 0 || out->column >= num_columns)) {
    return Status::DataLoss("shard wire predicate column out of range");
  }
  if ((out->kind == kPredNot && num_children != 1) ||
      ((out->kind == kPredAnd || out->kind == kPredOr) && num_children == 0)) {
    return Status::DataLoss("shard wire predicate has the wrong child count");
  }
  if (num_children > dec->remaining() / kMinPredicateBytes) {
    return Status::DataLoss("implausible shard wire predicate child count");
  }
  out->children.resize(num_children);
  for (uint32_t i = 0; i < num_children; ++i) {
    SQLCLASS_RETURN_IF_ERROR(
        DecodePredicate(dec, depth + 1, num_columns, &out->children[i]));
  }
  return Status::OK();
}

void EncodeCcTable(const CcTable& table, std::string* out) {
  PutFixed32(out, static_cast<uint32_t>(table.num_classes()));
  for (int64_t total : table.ClassTotals()) {
    PutFixed64(out, static_cast<uint64_t>(total));
  }
  PutFixed32(out, static_cast<uint32_t>(table.NumEntries()));
  for (int attr = 0; attr < table.AttributeBound(); ++attr) {
    for (const auto& [value, counts] : table.AttributeStates(attr)) {
      PutFixed32(out, static_cast<uint32_t>(attr));
      PutFixed32(out, static_cast<uint32_t>(value));
      for (int64_t count : counts) {
        PutFixed64(out, static_cast<uint64_t>(count));
      }
    }
  }
}

Status DecodeCcTable(Decoder* dec, int num_classes,
                     const std::vector<int>& cardinalities, CcTable* out) {
  uint32_t classes = 0;
  SQLCLASS_RETURN_IF_ERROR(dec->ReadU32(&classes));
  if (classes != static_cast<uint32_t>(num_classes)) {
    return Status::DataLoss("shard wire CC table class count mismatch");
  }
  for (int c = 0; c < num_classes; ++c) {
    int64_t total = 0;
    SQLCLASS_RETURN_IF_ERROR(dec->ReadI64(&total));
    if (total < 0) {
      return Status::DataLoss("shard wire CC class total is negative");
    }
    out->AddClassTotal(c, total);
  }
  uint32_t num_cells = 0;
  SQLCLASS_RETURN_IF_ERROR(dec->ReadU32(&num_cells));
  for (uint32_t i = 0; i < num_cells; ++i) {
    int32_t attr = 0;
    int32_t value = 0;
    SQLCLASS_RETURN_IF_ERROR(dec->ReadI32(&attr));
    SQLCLASS_RETURN_IF_ERROR(dec->ReadI32(&value));
    if (attr < 0 || static_cast<size_t>(attr) >= cardinalities.size() ||
        value < 0 || value >= cardinalities[attr]) {
      return Status::DataLoss("shard wire CC cell outside the schema domain");
    }
    for (int c = 0; c < num_classes; ++c) {
      int64_t count = 0;
      SQLCLASS_RETURN_IF_ERROR(dec->ReadI64(&count));
      if (count < 0) {
        return Status::DataLoss("shard wire CC cell count is negative");
      }
      out->Add(attr, value, c, count);
    }
  }
  return Status::OK();
}

}  // namespace

void WireEncodeFrame(WireFrameType type, const std::string& payload,
                     std::string* out) {
  out->clear();
  out->reserve(kWireHeaderBytes + payload.size());
  PutFixed32(out, kWireMagic);
  PutFixed32(out, static_cast<uint32_t>(type));
  PutFixed32(out, static_cast<uint32_t>(payload.size()));
  PutFixed32(out, Checksum32(payload.data(), payload.size()));
  PutFixed32(out, Checksum32(out->data(), out->size()));
  out->append(payload);
}

Status WireSend(int fd, WireFrameType type, const std::string& payload,
                int deadline_ms, bool* timed_out) {
  SQLCLASS_FAULT_POINT(faults::kShardRpcSend);
  if (payload.size() > kWireMaxPayloadBytes) {
    return Status::InvalidArgument("shard rpc payload exceeds frame limit");
  }
  std::string frame;
  WireEncodeFrame(type, payload, &frame);
  return WriteExact(fd, frame.data(), frame.size(), deadline_ms, timed_out);
}

Status WireRecv(int fd, int deadline_ms, WireFrame* frame, bool* timed_out,
                bool* clean_eof) {
  SQLCLASS_FAULT_POINT(faults::kShardRpcRecv);
  char header[kWireHeaderBytes];
  SQLCLASS_RETURN_IF_ERROR(ReadExact(fd, header, sizeof(header), deadline_ms,
                                     timed_out, clean_eof));
  const uint32_t stored_header_checksum =
      DecodeFixed32(header + kWireHeaderBytes - 4);
  if (Checksum32(header, kWireHeaderBytes - 4) != stored_header_checksum) {
    return Status::DataLoss("shard rpc frame header checksum mismatch");
  }
  if (DecodeFixed32(header) != kWireMagic) {
    return Status::DataLoss("bad shard rpc frame magic");
  }
  frame->type = DecodeFixed32(header + 4);
  const uint32_t payload_len = DecodeFixed32(header + 8);
  const uint32_t payload_checksum = DecodeFixed32(header + 12);
  if (payload_len > kWireMaxPayloadBytes) {
    return Status::DataLoss("implausible shard rpc payload length");
  }
  frame->payload.resize(payload_len);
  if (payload_len > 0) {
    SQLCLASS_RETURN_IF_ERROR(ReadExact(fd, frame->payload.data(), payload_len,
                                       deadline_ms, timed_out, nullptr));
  }
  if (Checksum32(frame->payload.data(), frame->payload.size()) !=
      payload_checksum) {
    return Status::DataLoss("shard rpc payload checksum mismatch");
  }
  return Status::OK();
}

WirePredicate WirePredicateFromExpr(const Expr* expr) {
  WirePredicate pred;
  if (expr == nullptr) {
    pred.kind = kPredTrue;
    return pred;
  }
  switch (expr->kind()) {
    case ExprKind::kTrue:
      pred.kind = kPredTrue;
      break;
    case ExprKind::kColumnEq:
      pred.kind = kPredEq;
      pred.column = expr->BoundColumnIndex();
      pred.literal = expr->literal();
      break;
    case ExprKind::kColumnNe:
      pred.kind = kPredNe;
      pred.column = expr->BoundColumnIndex();
      pred.literal = expr->literal();
      break;
    case ExprKind::kAnd:
      pred.kind = kPredAnd;
      break;
    case ExprKind::kOr:
      pred.kind = kPredOr;
      break;
    case ExprKind::kNot:
      pred.kind = kPredNot;
      break;
  }
  if (pred.kind >= kPredAnd) {
    pred.children.reserve(expr->children().size());
    for (const auto& child : expr->children()) {
      pred.children.push_back(WirePredicateFromExpr(child.get()));
    }
  }
  return pred;
}

std::unique_ptr<Expr> ExprFromWirePredicate(const WirePredicate& pred) {
  switch (pred.kind) {
    case kPredEq:
      return Expr::ColEq(WireColumnName(pred.column), pred.literal);
    case kPredNe:
      return Expr::ColNe(WireColumnName(pred.column), pred.literal);
    case kPredAnd:
    case kPredOr: {
      std::vector<std::unique_ptr<Expr>> children;
      children.reserve(pred.children.size());
      for (const WirePredicate& child : pred.children) {
        children.push_back(ExprFromWirePredicate(child));
      }
      return pred.kind == kPredAnd ? Expr::And(std::move(children))
                                   : Expr::Or(std::move(children));
    }
    case kPredNot:
      return Expr::Not(ExprFromWirePredicate(pred.children[0]));
    default:
      return Expr::True();
  }
}

Schema WireSchema(int num_columns) {
  std::vector<AttributeDef> columns(num_columns);
  for (int i = 0; i < num_columns; ++i) columns[i].name = WireColumnName(i);
  return Schema(std::move(columns), /*class_column=*/-1);
}

void EncodeShardTask(const WireShardTask& task, std::string* out) {
  out->clear();
  PutFixed32(out, task.shard);
  PutString(out, task.shard_heap_path);
  PutFixed64(out, task.expected_rows);
  PutFixed32(out, static_cast<uint32_t>(task.num_columns));
  PutFixed32(out, static_cast<uint32_t>(task.class_column));
  PutFixed32(out, static_cast<uint32_t>(task.num_classes));
  PutFixed32(out, static_cast<uint32_t>(task.nodes.size()));
  for (const WireTaskNode& node : task.nodes) {
    EncodePredicate(node.predicate, out);
    PutFixed32(out, static_cast<uint32_t>(node.attrs.size()));
    for (int32_t attr : node.attrs) {
      PutFixed32(out, static_cast<uint32_t>(attr));
    }
  }
}

Status DecodeShardTask(const std::string& payload, WireShardTask* out) {
  Decoder dec(payload);
  SQLCLASS_RETURN_IF_ERROR(dec.ReadU32(&out->shard));
  SQLCLASS_RETURN_IF_ERROR(dec.ReadString(&out->shard_heap_path));
  SQLCLASS_RETURN_IF_ERROR(dec.ReadU64(&out->expected_rows));
  SQLCLASS_RETURN_IF_ERROR(dec.ReadI32(&out->num_columns));
  SQLCLASS_RETURN_IF_ERROR(dec.ReadI32(&out->class_column));
  SQLCLASS_RETURN_IF_ERROR(dec.ReadI32(&out->num_classes));
  if (out->num_columns <= 0 ||
      static_cast<size_t>(out->num_columns) * sizeof(Value) >
          kPageSize - kPageHeaderBytes ||
      out->class_column < 0 || out->class_column >= out->num_columns ||
      out->num_classes <= 0) {
    return Status::DataLoss("implausible shard task geometry");
  }
  uint32_t num_nodes = 0;
  SQLCLASS_RETURN_IF_ERROR(dec.ReadU32(&num_nodes));
  if (num_nodes > dec.remaining() / kMinTaskNodeBytes) {
    return Status::DataLoss("implausible shard task node count");
  }
  out->nodes.clear();
  out->nodes.resize(num_nodes);
  for (uint32_t i = 0; i < num_nodes; ++i) {
    WireTaskNode& node = out->nodes[i];
    SQLCLASS_RETURN_IF_ERROR(
        DecodePredicate(&dec, 0, out->num_columns, &node.predicate));
    uint32_t num_attrs = 0;
    SQLCLASS_RETURN_IF_ERROR(dec.ReadU32(&num_attrs));
    if (num_attrs > static_cast<uint32_t>(out->num_columns)) {
      return Status::DataLoss("shard task lists more attrs than columns");
    }
    node.attrs.resize(num_attrs);
    for (uint32_t a = 0; a < num_attrs; ++a) {
      SQLCLASS_RETURN_IF_ERROR(dec.ReadI32(&node.attrs[a]));
      if (node.attrs[a] < 0 || node.attrs[a] >= out->num_columns) {
        return Status::DataLoss("shard task attr column out of range");
      }
    }
  }
  if (!dec.exhausted()) {
    return Status::DataLoss("trailing bytes after shard task payload");
  }
  return Status::OK();
}

void EncodeShardResult(const WireShardResult& result, std::string* out) {
  out->clear();
  PutFixed64(out, result.rows_scanned);
  PutFixed64(out, result.io.pages_read);
  PutFixed64(out, result.io.pages_written);
  PutFixed64(out, result.io.rows_read);
  PutFixed64(out, result.io.rows_written);
  PutFixed64(out, result.io.checksum_failures);
  PutFixed32(out, static_cast<uint32_t>(result.partials.size()));
  for (const CcTable& table : result.partials) {
    EncodeCcTable(table, out);
  }
}

Status DecodeShardResult(const std::string& payload, int num_classes,
                         const std::vector<int>& cardinalities,
                         size_t num_nodes, WireShardResult* out) {
  Decoder dec(payload);
  SQLCLASS_RETURN_IF_ERROR(dec.ReadU64(&out->rows_scanned));
  SQLCLASS_RETURN_IF_ERROR(dec.ReadU64(&out->io.pages_read));
  SQLCLASS_RETURN_IF_ERROR(dec.ReadU64(&out->io.pages_written));
  SQLCLASS_RETURN_IF_ERROR(dec.ReadU64(&out->io.rows_read));
  SQLCLASS_RETURN_IF_ERROR(dec.ReadU64(&out->io.rows_written));
  SQLCLASS_RETURN_IF_ERROR(dec.ReadU64(&out->io.checksum_failures));
  uint32_t num_tables = 0;
  SQLCLASS_RETURN_IF_ERROR(dec.ReadU32(&num_tables));
  if (num_tables != num_nodes) {
    return Status::DataLoss("shard result table count disagrees with task");
  }
  out->partials.clear();
  out->partials.reserve(num_tables);
  for (uint32_t i = 0; i < num_tables; ++i) {
    out->partials.emplace_back(num_classes);
    SQLCLASS_RETURN_IF_ERROR(
        DecodeCcTable(&dec, num_classes, cardinalities, &out->partials.back()));
  }
  if (!dec.exhausted()) {
    return Status::DataLoss("trailing bytes after shard result payload");
  }
  return Status::OK();
}

void EncodeStatusPayload(const Status& status, std::string* out) {
  out->clear();
  PutFixed32(out, static_cast<uint32_t>(status.code()));
  PutString(out, status.message());
}

Status DecodeStatusPayload(const std::string& payload, Status* out) {
  Decoder dec(payload);
  uint32_t code = 0;
  std::string message;
  SQLCLASS_RETURN_IF_ERROR(dec.ReadU32(&code));
  SQLCLASS_RETURN_IF_ERROR(dec.ReadString(&message));
  if (!dec.exhausted()) {
    return Status::DataLoss("trailing bytes after shard status payload");
  }
  if (code > static_cast<uint32_t>(StatusCode::kDataLoss)) {
    return Status::DataLoss("unknown status code in shard error frame");
  }
  *out = Status(static_cast<StatusCode>(code), std::move(message));
  return Status::OK();
}

}  // namespace sqlclass
