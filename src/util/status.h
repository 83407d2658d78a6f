#ifndef KGPIP_UTIL_STATUS_H_
#define KGPIP_UTIL_STATUS_H_

#include <string>
#include <utility>
#include <variant>

namespace kgpip {

/// Error codes used across the library. Mirrors the usual database-engine
/// convention of status-based error handling instead of exceptions.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kInternal,
  kUnimplemented,
  kResourceExhausted,
  kParseError,
  kIoError,
};

/// Returns a human-readable name for a status code.
const char* StatusCodeName(StatusCode code);

/// A lightweight success-or-error value. All fallible public APIs in
/// kgpip return `Status` (or `Result<T>` when they produce a value).
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CODE>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// A value-or-status holder, analogous to absl::StatusOr.
template <typename T>
class Result {
 public:
  /// Implicit construction from a value or an error status keeps call
  /// sites terse: `return value;` / `return Status::NotFound(...)`.
  Result(T value) : data_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : data_(std::move(status)) {}  // NOLINT

  bool ok() const { return std::holds_alternative<T>(data_); }

  const Status& status() const {
    static const Status kOkStatus;
    if (ok()) return kOkStatus;
    return std::get<Status>(data_);
  }

  /// Precondition: ok().
  T& value() & { return std::get<T>(data_); }
  const T& value() const& { return std::get<T>(data_); }
  T&& value() && { return std::get<T>(std::move(data_)); }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  std::variant<T, Status> data_;
};

/// Propagates a non-OK status to the caller.
#define KGPIP_RETURN_IF_ERROR(expr)                \
  do {                                             \
    ::kgpip::Status kgpip_status_ = (expr);        \
    if (!kgpip_status_.ok()) return kgpip_status_; \
  } while (false)

#define KGPIP_MACRO_CONCAT_INNER(a, b) a##b
#define KGPIP_MACRO_CONCAT(a, b) KGPIP_MACRO_CONCAT_INNER(a, b)

/// Assigns a Result's value to `lhs`, or propagates its error status.
#define KGPIP_ASSIGN_OR_RETURN(lhs, rexpr) \
  KGPIP_ASSIGN_OR_RETURN_IMPL(             \
      KGPIP_MACRO_CONCAT(kgpip_result_, __LINE__), lhs, rexpr)

#define KGPIP_ASSIGN_OR_RETURN_IMPL(var, lhs, rexpr) \
  auto var = (rexpr);                                \
  if (!var.ok()) return var.status();                \
  lhs = std::move(var).value()

}  // namespace kgpip

#endif  // KGPIP_UTIL_STATUS_H_
