// Calendar event queue with exact (time, seq) dispatch order.
//
// Replaces the engine's std::priority_queue (binary heap) on the dispatch
// hot path. A Brown calendar queue with a far-future overflow list: pending
// events within the current calendar "year" hash into power-of-two time
// buckets of width 2^shift nanoseconds, each bucket a sorted singly-linked
// list threaded through a slab of nodes (no per-event allocation — the slab
// and bucket array grow by the sanctioned construct+move+swap idiom,
// amortised and off the per-event path). Events at or beyond the year's end
// land on an unsorted overflow list in O(1) instead of stretching the
// buckets; when the ring drains, the year jumps straight to the earliest
// overflow event and everything inside the new year migrates into buckets.
// This keeps the classic calendar pathology (a bimodal pending set — dense
// near-future wakeups plus a cohort of long sleeps — forcing empty-year
// scans and cross-year bucket pileup) off both the enqueue and the peek
// path: near events are O(1) amortised tail appends, far events are O(1)
// list pushes, versus the heap's O(log n) for every one of them.
//
// Order contract — the whole point: dispatch order is EXACTLY ascending
// (time, seq), byte-identical to the heap it replaces. Equal times always
// land in the same bucket (bucket index is a pure function of time), so
// cross-bucket order is strictly by time and in-bucket order is (time, seq)
// by sorted insert; the globally increasing seq makes the common same-tick
// append an O(1) tail operation. Overflow events are all at least a year
// later than every ring event, so the ring minimum is the global minimum
// whenever the ring is nonempty and membership is maintained (migration on
// every forward year re-base). tests/sim/queue_diff_test.cpp proves the
// contract differentially against a reference heap over generated
// schedule/cancel/drop programs.
//
// Monotonicity contract: callers only enqueue times >= the last dequeued
// event's time (the engine schedules at t >= now_, and now_ only advances to
// dispatched-event times). The cursor leans on this — it never re-scans
// buckets behind the last pop. The one forward-looking exception (peek
// advanced the cursor to a far-future event, then a nearer event arrives
// before it is popped) is handled by the cached-minimum check in enqueue(),
// which re-bases the year at the newcomer's window (a full re-base, because
// the newcomer can be ahead of the old year base and the grown year may
// capture overflow events). Every path that parks
// the cursor ahead of the engine's clock leaves the cache set (peek's scan,
// the year jump, rebuild()), so the rewind check always has a comparison
// point — a nil cache with the cursor ahead would strand later enqueues
// behind it.
//
// Resize policy: grow (double buckets) when the ring holds more than
// 2 * nbuckets events, shrink (halve) when fewer than nbuckets / 8, floor
// kMinBuckets. Each rebuild re-picks the bucket width as the power of two
// nearest ring-span/ring-size — the overflow cohort deliberately does not
// stretch the width — then re-decides ring/overflow membership against the
// new year. Deterministic, so same-seed runs resize identically.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "sim/wait_pool.hpp"

namespace vmstorm::sim {

/// One queued coroutine resumption; what Engine::schedule_at enqueues.
/// Move-only: the guard owns a wait-record reference.
struct QueuedEvent {
  SimTime time = 0;
  std::uint64_t seq = 0;
  std::coroutine_handle<> handle{};
  std::uint64_t span = 0;  ///< span context restored on resume
  WaitGuard guard{};       ///< unconditional resumption when unarmed
};

class CalendarQueue {
 public:
  CalendarQueue();
  CalendarQueue(const CalendarQueue&) = delete;
  CalendarQueue& operator=(const CalendarQueue&) = delete;

  void enqueue(QueuedEvent&& ev);
  /// Pointer to the (time, seq)-minimum pending event, or nullptr when
  /// empty. Valid until the next enqueue/dequeue.
  const QueuedEvent* peek();
  /// Removes and returns the minimum. Precondition: !empty().
  QueuedEvent dequeue();

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Resize telemetry for tests (deterministic, but not part of the bench
  // sim section).
  std::size_t bucket_count() const { return buckets_.size(); }
  unsigned bucket_shift() const { return shift_; }
  std::size_t overflow_count() const { return overflow_size_; }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  static constexpr std::size_t kMinBuckets = 16;
  static constexpr unsigned kMaxShift = 42;  // ~73-minute buckets at most

  struct Node {
    QueuedEvent ev{};
    std::uint32_t next = kNil;
  };
  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  static bool before(const QueuedEvent& a, const QueuedEvent& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
  std::size_t bucket_of(SimTime t) const {
    return static_cast<std::size_t>(static_cast<std::uint64_t>(t) >> shift_) &
           bucket_mask_;
  }
  /// Exclusive end of the one-bucket window containing t.
  SimTime window_end(SimTime t) const {
    return static_cast<SimTime>(
        ((static_cast<std::uint64_t>(t) >> shift_) + 1) << shift_);
  }

  std::uint32_t alloc_node();
  void grow_slab();
  void free_node(std::uint32_t idx);
  void link_into_bucket(std::uint32_t idx);
  void rebuild(std::size_t new_buckets);
  /// Earliest overflow node by (time, seq), kNil when the list is empty.
  std::uint32_t overflow_min() const;
  /// Re-bases the calendar year at t's window and migrates every overflow
  /// event inside the new year into the ring.
  void re_base(SimTime t);
  void reset_cursor_to(SimTime t) {
    cursor_ = bucket_of(t);
    cursor_limit_ = window_end(t);
    year_end_ = cursor_limit_ +
                static_cast<SimTime>(
                    static_cast<std::uint64_t>(buckets_.size() - 1) << shift_);
  }

  std::vector<Node> nodes_;
  std::uint32_t free_head_ = kNil;
  std::vector<Bucket> buckets_;
  unsigned shift_ = 20;            ///< bucket width = 2^shift_ ns (~1 ms)
  std::size_t bucket_mask_ = 0;
  std::size_t cursor_ = 0;         ///< bucket the scan is currently draining
  SimTime cursor_limit_ = 0;       ///< exclusive end of cursor's time window
  SimTime year_end_ = 0;  ///< exclusive end of the year; overflow beyond
  std::uint32_t cached_min_ = kNil;  ///< known-minimum node (kNil = unknown)
  std::uint32_t overflow_head_ = kNil;  ///< unsorted far-future list
  std::size_t size_ = 0;
  std::size_t ring_size_ = 0;      ///< events inside the bucket ring
  std::size_t overflow_size_ = 0;  ///< events on the overflow list
};

}  // namespace vmstorm::sim
