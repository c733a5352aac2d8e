// Lazy coroutine task type for simulation processes.
//
// Task<T> is a single-consumer, lazily-started coroutine: nothing runs until
// the task is co_awaited (or handed to Engine::spawn). Completion resumes the
// awaiter via symmetric transfer, so arbitrarily deep task chains use O(1)
// stack. Exceptions propagate to the awaiter.
#pragma once

#include <cassert>
#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

namespace vmstorm::sim {

template <typename T = void>
class [[nodiscard]] Task;

namespace detail {

struct PromiseBase {
  std::coroutine_handle<> continuation;
  std::exception_ptr exception;

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      auto& p = h.promise();
      return p.continuation ? p.continuation : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() { exception = std::current_exception(); }
};

template <typename T>
struct Promise : PromiseBase {
  std::optional<T> value;
  Task<T> get_return_object();
  void return_value(T v) { value.emplace(std::move(v)); }
};

template <>
struct Promise<void> : PromiseBase {
  Task<void> get_return_object();
  void return_void() {}
};

}  // namespace detail

template <typename T>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::Promise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle h) : handle_(h) {}
  Task(Task&& o) noexcept : handle_(std::exchange(o.handle_, {})) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      handle_ = std::exchange(o.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }
  bool done() const { return handle_ && handle_.done(); }

  /// Releases ownership of the coroutine frame (used by Engine::spawn's
  /// detached wrapper, which keeps the Task object alive in its own frame).
  Handle release() { return std::exchange(handle_, {}); }

  struct Awaiter {
    Handle handle;
    bool await_ready() const noexcept { return !handle || handle.done(); }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
      handle.promise().continuation = cont;
      return handle;  // symmetric transfer: start the awaited task
    }
    T await_resume() {
      auto& p = handle.promise();
      if (p.exception) std::rethrow_exception(p.exception);
      if constexpr (!std::is_void_v<T>) {
        assert(p.value.has_value());
        return std::move(*p.value);
      }
    }
  };

  Awaiter operator co_await() && { return Awaiter{handle_}; }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  Handle handle_{};
};

namespace detail {

template <typename T>
Task<T> Promise<T>::get_return_object() {
  return Task<T>(std::coroutine_handle<Promise<T>>::from_promise(*this));
}

inline Task<void> Promise<void>::get_return_object() {
  return Task<void>(std::coroutine_handle<Promise<void>>::from_promise(*this));
}

}  // namespace detail

}  // namespace vmstorm::sim
