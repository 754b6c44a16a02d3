#ifndef SQLCLASS_COMMON_STATUS_H_
#define SQLCLASS_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace sqlclass {

/// Error categories used across the library. Mirrors the usual
/// database-engine convention (RocksDB/Arrow style) of returning a Status
/// from every fallible operation instead of throwing.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfMemory,
  kIoError,
  kParseError,
  kInternal,
  kResourceExhausted,
  kUnimplemented,
  kDataLoss,  // keep last: DecodeStatusPayload bound-checks against it
};

/// Returns a stable human-readable name for a status code ("OK",
/// "InvalidArgument", ...).
const char* StatusCodeName(StatusCode code);

/// A cheap value type describing the outcome of an operation. `Status::OK()`
/// carries no allocation; error statuses carry a code and a message.
///
/// The class is `[[nodiscard]]`: any call that returns a Status and ignores
/// it is a compile-time warning (an error under SQLCLASS_WERROR) — silently
/// dropped failures are how byte-identity contracts rot. The few legitimate
/// discard sites (best-effort cleanup in destructors and the like) must cast
/// to void and carry a `// status: ignored(<reason>)` waiver, which
/// tools/lint_status_checks.py audits.
class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfMemory(std::string msg) {
    return Status(StatusCode::kOutOfMemory, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// Either a value of type T or an error Status. Accessing the value of an
/// error StatusOr aborts (assert) — callers must check `ok()` first.
/// `[[nodiscard]]` for the same reason as Status: a discarded StatusOr is a
/// dropped error *and* wasted work.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  StatusOr(Status status)  // NOLINT: implicit by design for `return status;`
      : status_(std::move(status)) {
    assert(!status_.ok() && "StatusOr constructed from OK status");
  }
  StatusOr(T value)  // NOLINT: implicit by design for `return value;`
      : status_(Status::OK()), value_(std::move(value)) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace sqlclass

/// Propagates a non-OK Status from an expression to the caller.
#define SQLCLASS_RETURN_IF_ERROR(expr)          \
  do {                                          \
    ::sqlclass::Status _st = (expr);            \
    if (!_st.ok()) return _st;                  \
  } while (0)

/// Evaluates a StatusOr expression, propagating errors, else binding `lhs`.
#define SQLCLASS_ASSIGN_OR_RETURN(lhs, expr)    \
  SQLCLASS_ASSIGN_OR_RETURN_IMPL_(              \
      SQLCLASS_STATUS_CONCAT_(_statusor_, __LINE__), lhs, expr)

#define SQLCLASS_STATUS_CONCAT_INNER_(a, b) a##b
#define SQLCLASS_STATUS_CONCAT_(a, b) SQLCLASS_STATUS_CONCAT_INNER_(a, b)
#define SQLCLASS_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                    \
  if (!tmp.ok()) return tmp.status();                   \
  lhs = std::move(tmp).value()

#endif  // SQLCLASS_COMMON_STATUS_H_
