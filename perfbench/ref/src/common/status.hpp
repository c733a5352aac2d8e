// Minimal Status / Result error-handling vocabulary.
//
// vmstorm libraries never throw across public API boundaries for expected
// failure modes (missing blob, short read, out-of-space); they return
// Status/Result. Exceptions are reserved for programming errors.
#pragma once

#include <cassert>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

namespace vmstorm {

enum class StatusCode {
  kOk = 0,
  kNotFound,
  kAlreadyExists,
  kInvalidArgument,
  kOutOfRange,
  kResourceExhausted,
  kFailedPrecondition,
  kUnavailable,
  kCorruption,
  kInternal,
};

inline const char* status_code_name(StatusCode c) {
  switch (c) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kAlreadyExists: return "ALREADY_EXISTS";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kOutOfRange: return "OUT_OF_RANGE";
    case StatusCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case StatusCode::kUnavailable: return "UNAVAILABLE";
    case StatusCode::kCorruption: return "CORRUPTION";
    case StatusCode::kInternal: return "INTERNAL";
  }
  return "UNKNOWN";
}

class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status ok() { return Status(); }

  [[nodiscard]] bool is_ok() const { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const { return code_; }
  [[nodiscard]] const std::string& message() const { return message_; }

  [[nodiscard]] std::string to_string() const {
    if (is_ok()) return "OK";
    return std::string(status_code_name(code_)) + ": " + message_;
  }

  /// Must-succeed assertion: throws on a non-OK status. For examples,
  /// benches and test setup where a failure is a programming error; library
  /// code under src/ propagates with VMSTORM_RETURN_IF_ERROR instead
  /// (enforced by the vmlint status-discipline rule, tools/vmlint/).
  void check() const {
    if (!is_ok()) throw std::logic_error("Status::check on error: " + to_string());
  }

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline Status not_found(std::string m) { return {StatusCode::kNotFound, std::move(m)}; }
inline Status already_exists(std::string m) { return {StatusCode::kAlreadyExists, std::move(m)}; }
inline Status invalid_argument(std::string m) { return {StatusCode::kInvalidArgument, std::move(m)}; }
inline Status out_of_range(std::string m) { return {StatusCode::kOutOfRange, std::move(m)}; }
inline Status resource_exhausted(std::string m) { return {StatusCode::kResourceExhausted, std::move(m)}; }
inline Status failed_precondition(std::string m) { return {StatusCode::kFailedPrecondition, std::move(m)}; }
inline Status unavailable(std::string m) { return {StatusCode::kUnavailable, std::move(m)}; }
inline Status corruption(std::string m) { return {StatusCode::kCorruption, std::move(m)}; }
inline Status internal_error(std::string m) { return {StatusCode::kInternal, std::move(m)}; }

/// Result<T>: either a value or a non-OK Status. A tiny stand-in for
/// std::expected (not yet available in our toolchain's libstdc++).
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : data_(std::in_place_index<0>, std::move(value)) {}
  Result(Status status) : data_(std::in_place_index<1>, std::move(status)) {
    assert(!std::get<1>(data_).is_ok() && "Result from OK status has no value");
  }

  [[nodiscard]] bool is_ok() const { return data_.index() == 0; }
  explicit operator bool() const { return is_ok(); }

  [[nodiscard]] Status status() const {
    return is_ok() ? Status::ok() : std::get<1>(data_);
  }

  [[nodiscard]] T& value() & {
    if (!is_ok()) throw std::logic_error("Result::value on error: " + status().to_string());
    return std::get<0>(data_);
  }
  [[nodiscard]] const T& value() const& {
    if (!is_ok()) throw std::logic_error("Result::value on error: " + status().to_string());
    return std::get<0>(data_);
  }
  [[nodiscard]] T&& value() && {
    if (!is_ok()) throw std::logic_error("Result::value on error: " + status().to_string());
    return std::get<0>(std::move(data_));
  }

  [[nodiscard]] T value_or(T fallback) const {
    return is_ok() ? std::get<0>(data_) : std::move(fallback);
  }

  /// Must-succeed assertion discarding the value: throws on error. Same
  /// scope rules as Status::check().
  void check() const { status().check(); }

  [[nodiscard]] T& operator*() & { return value(); }
  [[nodiscard]] const T& operator*() const& { return value(); }
  [[nodiscard]] T* operator->() { return &value(); }
  [[nodiscard]] const T* operator->() const { return &value(); }

 private:
  std::variant<T, Status> data_;
};

#define VMSTORM_RETURN_IF_ERROR(expr)            \
  do {                                           \
    ::vmstorm::Status _st = (expr);              \
    if (!_st.is_ok()) return _st;                \
  } while (0)

#define VMSTORM_ASSIGN_OR_RETURN(lhs, expr)      \
  auto lhs##_result = (expr);                    \
  if (!lhs##_result.is_ok()) return lhs##_result.status(); \
  auto lhs = std::move(lhs##_result).value()

}  // namespace vmstorm
