// Recoverable error handling for the public API layer.
//
// The inner survey harness (MetricIndex, the registry, the benchmarks)
// keeps its assert/abort contract: experiment code wants to die loudly on
// programmer error.  The facade layer (src/api/) instead returns
// pmi::Status / pmi::StatusOr<T> so a service embedding the library can
// reject bad input, surface corrupt snapshots, and keep running.  The
// shapes follow the abseil conventions (code + message, MoveValueOrDie
// via value()), implemented standalone so the library stays
// dependency-free.

#ifndef PMI_CORE_STATUS_H_
#define PMI_CORE_STATUS_H_

#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>

namespace pmi {

/// Canonical error space (subset of the abseil/gRPC codes the library
/// actually produces).
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 3,    // caller passed bad options / queries
  kDeadlineExceeded = 4,   // request deadline elapsed before completion
  kNotFound = 5,           // unknown index or metric name, missing file
  kResourceExhausted = 8,  // admission queue full (backpressure)
  kFailedPrecondition = 9, // operation invalid in the current state
  kUnimplemented = 12,     // e.g. an index without snapshot support
  kInternal = 13,          // invariant violation while loading
  kUnavailable = 14,       // I/O failure (full disk, failed fsync, ...)
  kDataLoss = 15,          // corrupt or truncated snapshot / WAL
};

/// Human-readable code name, e.g. "INVALID_ARGUMENT".
inline const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case StatusCode::kUnimplemented: return "UNIMPLEMENTED";
    case StatusCode::kInternal: return "INTERNAL";
    case StatusCode::kUnavailable: return "UNAVAILABLE";
    case StatusCode::kDataLoss: return "DATA_LOSS";
  }
  return "UNKNOWN";
}

/// Why an error happened, where the code alone does not say enough to
/// decide a retry.  Set by the producer that knows; kNone elsewhere.
enum class ErrorReason : uint8_t {
  kNone = 0,
  kNotDispatched,     // deadline hit before the work was dispatched
  kShardUnavailable,  // shard quarantined or recovering
  kShardPinned,       // shard pinned read-only until a manual reset
  kFenceMismatch,     // sequence fence did not match; nothing applied
};

/// Typed context of an error.  Messages are for humans; decisions read
/// these fields.  Trivially copyable, so an OK Status carries no
/// allocation.
struct StatusDetail {
  ErrorReason reason = ErrorReason::kNone;
  std::optional<uint32_t> shard = std::nullopt;  // shard it concerns
  double retry_after_ms = 0;    // kShardUnavailable: recovery hint
  uint64_t fence_expected = 0;  // kFenceMismatch: the caller's fence
  uint64_t fence_observed = 0;  // kFenceMismatch: the actual sequence
};
static_assert(std::is_trivially_copyable_v<StatusDetail>);

/// Success-or-error result of an operation without a payload.
class Status {
 public:
  /// Default is success.
  Status() = default;
  Status(StatusCode code, std::string message, StatusDetail detail = {})
      : code_(code), detail_(detail), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const StatusDetail& detail() const { return detail_; }
  const std::string& message() const { return message_; }

  /// "INVALID_ARGUMENT: page_size must be nonzero" (or "OK").
  std::string ToString() const {
    if (ok()) return "OK";
    return std::string(StatusCodeName(code_)) + ": " + message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  StatusDetail detail_;
  std::string message_;
};

inline Status OkStatus() { return Status(); }
inline Status InvalidArgumentError(std::string msg) {
  return Status(StatusCode::kInvalidArgument, std::move(msg));
}
inline Status DeadlineExceededError(std::string msg) {
  return Status(StatusCode::kDeadlineExceeded, std::move(msg));
}
inline Status NotFoundError(std::string msg) {
  return Status(StatusCode::kNotFound, std::move(msg));
}
inline Status ResourceExhaustedError(std::string msg) {
  return Status(StatusCode::kResourceExhausted, std::move(msg));
}
inline Status FailedPreconditionError(std::string msg) {
  return Status(StatusCode::kFailedPrecondition, std::move(msg));
}
inline Status UnimplementedError(std::string msg) {
  return Status(StatusCode::kUnimplemented, std::move(msg));
}
inline Status InternalError(std::string msg) {
  return Status(StatusCode::kInternal, std::move(msg));
}
inline Status UnavailableError(std::string msg) {
  return Status(StatusCode::kUnavailable, std::move(msg));
}
inline Status DataLossError(std::string msg) {
  return Status(StatusCode::kDataLoss, std::move(msg));
}

/// A Status or, on success, a value of type T.  T must be movable; the
/// value is accessed with value()/operator* only when ok().
template <typename T>
class StatusOr {
 public:
  /// Implicit from an error Status (must not be OK).
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "StatusOr constructed from OK without a value");
    if (status_.ok()) {
      status_ = InternalError("StatusOr constructed from OK without a value");
    }
  }

  /// Implicit from a value.
  StatusOr(T value) : has_value_(true) {  // NOLINT
    new (&storage_) T(std::move(value));
  }

  StatusOr(StatusOr&& other) noexcept
      : status_(std::move(other.status_)), has_value_(other.has_value_) {
    if (has_value_) new (&storage_) T(std::move(*other.ptr()));
  }

  StatusOr& operator=(StatusOr&& other) noexcept {
    if (this == &other) return *this;
    Destroy();
    status_ = std::move(other.status_);
    has_value_ = other.has_value_;
    if (has_value_) new (&storage_) T(std::move(*other.ptr()));
    return *this;
  }

  StatusOr(const StatusOr&) = delete;
  StatusOr& operator=(const StatusOr&) = delete;

  ~StatusOr() { Destroy(); }

  bool ok() const { return has_value_; }
  const Status& status() const { return status_; }

  T& value() & {
    assert(has_value_);
    return *ptr();
  }
  const T& value() const& {
    assert(has_value_);
    return *ptr();
  }
  T&& value() && {
    assert(has_value_);
    return std::move(*ptr());
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  T* ptr() { return std::launder(reinterpret_cast<T*>(&storage_)); }
  const T* ptr() const {
    return std::launder(reinterpret_cast<const T*>(&storage_));
  }
  void Destroy() {
    if (has_value_) {
      ptr()->~T();
      has_value_ = false;
    }
  }

  Status status_;
  bool has_value_ = false;
  alignas(T) unsigned char storage_[sizeof(T)];
};

/// Fail-stop for the inner harness layer, which keeps the die-loudly
/// contract (see file comment): aborts with the status message when not
/// OK, in every build mode.  Facade code never calls this -- it
/// propagates.
inline void CheckOk(const Status& status, const char* context) {
  if (status.ok()) return;
  std::fprintf(stderr, "pmi fatal: %s: %s\n", context,
               status.ToString().c_str());
  std::abort();
}

/// Propagates a non-OK Status out of the enclosing function.
#define PMI_RETURN_IF_ERROR(expr)              \
  do {                                         \
    ::pmi::Status pmi_status_ = (expr);        \
    if (!pmi_status_.ok()) return pmi_status_; \
  } while (0)

/// Evaluates a StatusOr expression, propagating errors; on success the
/// value is moved into `lhs` (a declaration or an assignable lvalue).
#define PMI_ASSIGN_OR_RETURN(lhs, expr)                    \
  PMI_ASSIGN_OR_RETURN_IMPL_(                              \
      PMI_STATUS_CONCAT_(pmi_statusor_, __LINE__), lhs, expr)
#define PMI_ASSIGN_OR_RETURN_IMPL_(var, lhs, expr)         \
  auto var = (expr);                                       \
  if (!var.ok()) return var.status();                      \
  lhs = std::move(var).value()
#define PMI_STATUS_CONCAT_(a, b) PMI_STATUS_CONCAT_2_(a, b)
#define PMI_STATUS_CONCAT_2_(a, b) a##b

}  // namespace pmi

#endif  // PMI_CORE_STATUS_H_
