// The engine's pending-event queue: a 4-ary min-heap of small keys.
//
// Dispatch order is EXACTLY ascending (time, seq); seq is unique per engine,
// so the order is total and every same-seed run dispatches identically.
// The heap sorts 24-byte {time, seq, slot} keys only. The rest of each event
// (handle, span, guard) sits still in a slab slot the key names, and freed
// slots are recycled through an intrusive free list threaded through their
// span field. A 4-ary heap is half as deep as a binary one and a node's
// four children are 96 contiguous bytes, so a sift touches fewer lines.
// DESIGN.md §11 has the measured alternatives.
// tests/sim/queue_diff_test.cpp checks the order against std::priority_queue.
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

class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  void enqueue(QueuedEvent&& ev);
  /// Removes and returns the (time, seq)-minimum. Precondition: !empty().
  QueuedEvent dequeue();
  /// Time of the minimum. Precondition: !empty().
  SimTime next_time() const { return heap_.front().time; }

  std::size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  struct Key {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;  ///< index into slab_
  };
  struct Payload {
    std::coroutine_handle<> handle{};
    std::uint64_t span = 0;  ///< next free slot while the slot is free
    WaitGuard guard{};
  };

  static bool before(const Key& a, const Key& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }

  std::vector<Key> heap_;  ///< heap_[i]'s children are heap_[4i+1 .. 4i+4]
  std::vector<Payload> slab_;
  std::uint32_t free_head_ = kNoSlot;
};

}  // namespace vmstorm::sim
