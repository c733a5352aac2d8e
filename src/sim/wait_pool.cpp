#include "sim/wait_pool.hpp"

namespace vmstorm::sim {

WaitRef WaitPool::make(std::coroutine_handle<> h, std::uint64_t span,
                       double wait_since) {
  const std::uint32_t slot = alloc_slot();
  WaitRecord& rec = slots_[slot].rec;
  rec.handle = h;
  rec.alive = true;
  rec.resumed = false;
  rec.granted = false;
  rec.span = span;
  rec.waker_span = 0;
  rec.flow = 0;
  rec.wait_since = wait_since;
  ++created_;
  ++live_;
  if (live_ > live_hw_) live_hw_ = live_;
  return WaitRef{this, slot};
}

void WaitPool::recycle(std::uint32_t slot) {
  Slot& s = slots_[slot];
  ++s.gen;  // stale guards to this slot are void from here on
  s.rec = WaitRecord{};
  s.next_free = free_head_;
  free_head_ = slot;
  --live_;
}

std::uint32_t WaitPool::alloc_slot() {
  if (free_head_ == kNoSlot) grow();
  const std::uint32_t slot = free_head_;
  free_head_ = slots_[slot].next_free;
  slots_[slot].next_free = kNoSlot;
  return slot;
}

void WaitPool::grow() {
  // Double the slab and thread the fresh slots onto the free list.
  const std::size_t old_size = slots_.size();
  const std::size_t new_size = old_size == 0 ? 64 : old_size * 2;
  slots_.resize(new_size);
  for (std::size_t i = new_size; i-- > old_size;) {
    slots_[i].next_free = free_head_;
    free_head_ = static_cast<std::uint32_t>(i);
  }
}

}  // namespace vmstorm::sim
