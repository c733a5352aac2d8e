#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

namespace vmstorm::sim {

void EventQueue::enqueue(QueuedEvent&& ev) {
  std::uint32_t slot = free_head_;
  if (slot == kNoSlot) {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();  // grows to the peak depth, then slots recycle
  } else {
    free_head_ = static_cast<std::uint32_t>(slab_[slot].span);
  }
  Payload& p = slab_[slot];
  p.handle = ev.handle;
  p.span = ev.span;
  p.guard = std::move(ev.guard);

  // Sift up: move the hole from the new leaf toward the root.
  const Key key{ev.time, ev.seq, slot};
  std::size_t i = heap_.size();
  heap_.push_back(key);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(key, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
}

QueuedEvent EventQueue::dequeue() {
  const Key top = heap_.front();
  const Key last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n > 0) {
    // Sift down: move the hole from the root toward the leaves until the
    // former last key fits.
    std::size_t i = 0;
    for (std::size_t c = 1; c < n; c = 4 * i + 1) {
      std::size_t best = c;
      for (std::size_t j = c + 1; j < std::min(c + 4, n); ++j) {
        if (before(heap_[j], heap_[best])) best = j;
      }
      if (!before(heap_[best], last)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }
  Payload& p = slab_[top.slot];
  QueuedEvent out{top.time, top.seq, p.handle, p.span, std::move(p.guard)};
  p.span = free_head_;
  free_head_ = top.slot;
  return out;
}

}  // namespace vmstorm::sim
