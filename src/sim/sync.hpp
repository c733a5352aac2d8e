// Synchronization primitives for simulation processes.
//
// All primitives are single-threaded (the event loop is the only executor);
// "blocking" means suspending the coroutine until another process schedules
// it again via the engine queue. Wakeups are enqueued at the current
// simulated time rather than resumed inline, keeping execution order
// deterministic and re-entrancy-free.
//
// Cancellation safety: waiter lists hold pooled WaitRecord handles (WaitRef,
// sim/wait_pool.hpp), not raw coroutine handles. If a waiting coroutine is destroyed while suspended
// (its Task dropped mid-wait), the awaiter's destructor marks the record
// dead; wake paths skip dead records and the engine drops already-queued
// wakeups whose guard went dead. A Semaphore permit or Channel item that was
// already handed to a subsequently-destroyed waiter is passed on to the next
// live waiter instead of being lost. Primitives must outlive their waiters.
#pragma once

#include <coroutine>
#include <cstddef>
#include <utility>
#include <vector>

#include "sim/causal.hpp"
#include "sim/engine.hpp"
#include "sim/fifo.hpp"
#include "sim/task.hpp"

namespace vmstorm::sim {

namespace detail {

/// Creates a registered wait record for handle `h` at the back of `list`,
/// capturing the suspending coroutine's span context and block time.
template <typename List>
inline WaitRef enlist_waiter(List& list, Engine& engine,
                             std::coroutine_handle<> h) {
  WaitRef rec = make_wait_record(engine, h);
  list.push_back(rec);
  return rec;
}

/// Live (non-abandoned) records in a waiter list.
template <typename List>
inline std::size_t live_waiters(const List& list) {
  std::size_t n = 0;
  for (const auto& rec : list) {
    if (rec->alive) ++n;
  }
  return n;
}

}  // namespace detail

/// One-shot broadcast event. set() wakes every current and future waiter.
/// `trace_name` labels the wait edges this primitive records.
class Event {
 public:
  explicit Event(Engine& engine, const char* trace_name = "sim.event")
      : engine_(&engine), trace_name_(trace_name) {}

  bool is_set() const { return set_; }

  void set() {
    if (set_) return;
    set_ = true;
    for (auto& rec : waiters_) {
      if (rec->alive) wake_waiter(*engine_, rec);
    }
    waiters_.clear();
  }

  auto wait() {
    struct Awaiter {
      Event* ev;
      WaitRef rec;
      explicit Awaiter(Event* e) : ev(e) {}
      Awaiter(const Awaiter&) = delete;
      Awaiter& operator=(const Awaiter&) = delete;
      ~Awaiter() {
        if (rec && !rec->resumed) rec->alive = false;
      }
      bool await_ready() const noexcept { return ev->set_; }
      void await_suspend(std::coroutine_handle<> h) {
        rec = detail::enlist_waiter(ev->waiters_, *ev->engine_, h);
      }
      void await_resume() noexcept {
        if (!rec) return;
        rec->resumed = true;
        record_wait_edge(*ev->engine_, *rec, ev->trace_name_);
      }
    };
    return Awaiter{this};
  }

  std::size_t waiting() const { return detail::live_waiters(waiters_); }

 private:
  Engine* engine_;
  const char* trace_name_;
  bool set_ = false;
  std::vector<WaitRef> waiters_;
};

/// Counting semaphore with FIFO wakeup order. A waiter destroyed while
/// suspended is skipped; if a permit was already handed to it, the permit is
/// re-released so later waiters are not starved.
class Semaphore {
 public:
  Semaphore(Engine& engine, std::size_t initial,
            const char* trace_name = "sim.semaphore")
      : engine_(&engine), trace_name_(trace_name), count_(initial) {}

  auto acquire() {
    struct Awaiter {
      Semaphore* sem;
      WaitRef rec;
      explicit Awaiter(Semaphore* s) : sem(s) {}
      Awaiter(const Awaiter&) = delete;
      Awaiter& operator=(const Awaiter&) = delete;
      ~Awaiter() {
        if (!rec || rec->resumed) return;
        rec->alive = false;
        // Destroyed with a permit already in flight to us: hand it on.
        if (rec->granted) sem->release();
      }
      bool await_ready() {
        if (sem->count_ > 0) {
          --sem->count_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        rec = detail::enlist_waiter(sem->waiters_, *sem->engine_, h);
      }
      void await_resume() noexcept {
        if (!rec) return;
        rec->resumed = true;
        record_wait_edge(*sem->engine_, *rec, sem->trace_name_);
      }
    };
    return Awaiter{this};
  }

  void release() {
    while (!waiters_.empty()) {
      WaitRef rec = waiters_.pop_front();
      if (!rec->alive) continue;  // waiter abandoned while queued
      // The permit is handed directly to the woken waiter.
      rec->granted = true;
      wake_waiter(*engine_, rec);
      return;
    }
    ++count_;
  }

  std::size_t available() const { return count_; }
  std::size_t waiting() const { return detail::live_waiters(waiters_); }

 private:
  Engine* engine_;
  const char* trace_name_;
  std::size_t count_;
  detail::Fifo<WaitRef> waiters_;
};

/// Unbounded single-direction channel of T. Multiple producers, multiple
/// consumers (FIFO on both sides).
template <typename T>
class Channel {
 public:
  explicit Channel(Engine& engine, const char* trace_name = "sim.channel")
      : engine_(&engine), trace_name_(trace_name) {}

  void push(T value) {
    items_.push_back(std::move(value));
    wake_one();
  }

  /// Awaitable pop; suspends until an item is available.
  Task<T> pop() {
    struct Awaiter {
      Channel* ch;
      WaitRef rec;
      explicit Awaiter(Channel* c) : ch(c) {}
      Awaiter(const Awaiter&) = delete;
      Awaiter& operator=(const Awaiter&) = delete;
      ~Awaiter() {
        if (!rec || rec->resumed) return;
        rec->alive = false;
        // An item was already routed to us; wake another consumer for it.
        if (rec->granted && !ch->items_.empty()) ch->wake_one();
      }
      bool await_ready() const noexcept { return !ch->items_.empty(); }
      void await_suspend(std::coroutine_handle<> h) {
        rec = detail::enlist_waiter(ch->waiters_, *ch->engine_, h);
      }
      void await_resume() noexcept {
        if (!rec) return;
        rec->resumed = true;
        record_wait_edge(*ch->engine_, *rec, ch->trace_name_);
      }
    };
    // Under multiple consumers a wakeup can race with another consumer; loop.
    while (items_.empty()) co_await Awaiter{this};
    co_return items_.pop_front();
  }

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

 private:
  void wake_one() {
    while (!waiters_.empty()) {
      WaitRef rec = waiters_.pop_front();
      if (!rec->alive) continue;
      rec->granted = true;
      wake_waiter(*engine_, rec);
      return;
    }
  }

  Engine* engine_;
  const char* trace_name_;
  detail::Fifo<T> items_;
  detail::Fifo<WaitRef> waiters_;
};

/// Spawns all tasks and waits for every one to finish. Exceptions from
/// children propagate (the first one encountered in join order).
Task<void> when_all(Engine& engine, std::vector<Task<void>> tasks);

}  // namespace vmstorm::sim
