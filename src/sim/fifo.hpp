// FIFO queue over one std::vector and a head index: the waiter and item
// queue of Semaphore, Channel and storage::Disk's write admission.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace vmstorm::sim::detail {

/// Elements [head_, size) are queued, oldest first. Unlike std::deque, which
/// frees and reallocates blocks as the queue moves through them, the vector
/// keeps its buffer: once it has grown to the peak queue length, push and
/// pop allocate nothing. pop_front() drops the consumed prefix once it is at
/// least half the buffer, so each element is moved O(1) times amortized and
/// the buffer stays under twice the peak queue length.
template <typename T>
class Fifo {
 public:
  bool empty() const { return head_ == items_.size(); }
  std::size_t size() const { return items_.size() - head_; }

  T& front() { return items_[head_]; }
  void push_back(T value) { items_.push_back(std::move(value)); }

  /// Removes and returns the oldest element.
  T pop_front() {
    T value = std::move(items_[head_]);
    if (++head_ * 2 >= items_.size()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    return value;
  }

  auto begin() const {
    return items_.begin() + static_cast<std::ptrdiff_t>(head_);
  }
  auto end() const { return items_.end(); }

 private:
  std::vector<T> items_;
  std::size_t head_ = 0;
};

}  // namespace vmstorm::sim::detail
