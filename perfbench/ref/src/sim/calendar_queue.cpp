#include "sim/calendar_queue.hpp"

namespace vmstorm::sim {

CalendarQueue::CalendarQueue()
    : buckets_(kMinBuckets), bucket_mask_(kMinBuckets - 1) {
  reset_cursor_to(0);
}

void CalendarQueue::enqueue(QueuedEvent&& ev) {
  const std::uint32_t idx = alloc_node();
  nodes_[idx].ev = std::move(ev);
  const QueuedEvent& e = nodes_[idx].ev;
  if (size_ == 0) {
    // The cursor may have been parked on a long-gone window; restart the
    // year at the sole event.
    reset_cursor_to(e.time);
    link_into_bucket(idx);
    ++ring_size_;
    cached_min_ = idx;
  } else if (cached_min_ != kNil && before(e, nodes_[cached_min_].ev)) {
    // New global minimum behind a cursor that peek() advanced — rewind
    // first, so the newcomer's window anchors the (re-based) year and the
    // event is necessarily ring material. It beats every pending event, so
    // it is its bucket's head and the cache stays a valid head pointer.
    // This must be a full re-base, not a bare cursor reset: the newcomer is
    // behind the CACHE but can still be ahead of the old year base, and then
    // year_end_ moves forward and captures overflow events that must join
    // the ring (found by the queue_churn fuzzer — see
    // FuzzRegression.ShrunkQueueChurnForwardRewindStrandsOverflow).
    re_base(e.time);
    link_into_bucket(idx);
    ++ring_size_;
    cached_min_ = idx;
  } else if (e.time >= year_end_) {
    // Beyond the current year: O(1) unsorted push, no bucket involvement.
    nodes_[idx].next = overflow_head_;
    overflow_head_ = idx;
    ++overflow_size_;
  } else {
    link_into_bucket(idx);
    ++ring_size_;
  }
  ++size_;
  if (ring_size_ > buckets_.size() * 2) rebuild(buckets_.size() * 2);
}

const QueuedEvent* CalendarQueue::peek() {
  if (size_ == 0) return nullptr;
  if (cached_min_ != kNil) return &nodes_[cached_min_].ev;
  if (ring_size_ > 0) {
    // Walk the calendar year one window at a time, stopping at the year
    // boundary: an accepted head satisfies time < cursor_limit_ <= year_end_,
    // so it is a genuine ring event, smaller than every overflow event.
    // Windows are visited in strictly increasing time order and all in-year
    // events of a window share its bucket, so the first in-window head found
    // is the ring minimum — and thus the global minimum. (The scan must NOT
    // run past year_end_: the cursor persists across peeks, and beyond the
    // boundary it could accept a stranded head while the overflow holds a
    // smaller event.)
    while (cursor_limit_ <= year_end_) {
      const Bucket& b = buckets_[cursor_];
      if (b.head != kNil && nodes_[b.head].ev.time < cursor_limit_) {
        cached_min_ = b.head;
        return &nodes_[b.head].ev;
      }
      cursor_ = (cursor_ + 1) & bucket_mask_;
      cursor_limit_ += static_cast<SimTime>(std::uint64_t{1} << shift_);
    }
    // A nonempty ring with a whole year of empty windows: only events
    // stranded by a backward year re-base remain (a rewind shrank year_end_
    // under them). Direct min scan over bucket heads, merged with the
    // overflow minimum, then re-base the year at the winner.
    std::uint32_t best = kNil;
    for (const Bucket& b : buckets_) {
      if (b.head == kNil) continue;
      if (best == kNil || before(nodes_[b.head].ev, nodes_[best].ev)) {
        best = b.head;
      }
    }
    const std::uint32_t over = overflow_min();
    if (over != kNil && before(nodes_[over].ev, nodes_[best].ev)) best = over;
    re_base(nodes_[best].ev.time);
    cached_min_ = best;
  } else {
    // Ring drained, far-future cohort pending: rebuild around the cohort.
    // Re-picking the width and bucket count from the cohort itself (rebuild
    // does both when the ring is empty) bulk-migrates it into the new year;
    // merely re-basing at the cohort minimum would keep the stale near-
    // cluster width, migrate a handful of events per jump, and degenerate
    // into a full overflow scan per pop.
    std::size_t target = kMinBuckets;
    while (target * 2 < size_) target *= 2;
    rebuild(target);
  }
  // Migration may have overfilled the ring for the current bucket count.
  if (ring_size_ > buckets_.size() * 2) rebuild(buckets_.size() * 2);
  return &nodes_[cached_min_].ev;
}

QueuedEvent CalendarQueue::dequeue() {
  if (cached_min_ == kNil) peek();
  const std::uint32_t idx = cached_min_;
  cached_min_ = kNil;
  // The minimum is necessarily in the ring and the head of its bucket's
  // sorted list.
  Bucket& b = buckets_[bucket_of(nodes_[idx].ev.time)];
  b.head = nodes_[idx].next;
  if (b.head == kNil) b.tail = kNil;
  QueuedEvent out = std::move(nodes_[idx].ev);
  free_node(idx);
  --size_;
  --ring_size_;
  if (size_ > 0 && buckets_.size() > kMinBuckets &&
      ring_size_ < buckets_.size() / 8) {
    rebuild(buckets_.size() / 2);
  }
  return out;
}

void CalendarQueue::link_into_bucket(std::uint32_t idx) {
  Bucket& b = buckets_[bucket_of(nodes_[idx].ev.time)];
  Node& n = nodes_[idx];
  if (b.head == kNil) {
    n.next = kNil;
    b.head = b.tail = idx;
    return;
  }
  if (!before(n.ev, nodes_[b.tail].ev)) {
    // >= tail — the common case: seq increases globally, so a same-window
    // schedule storm degenerates to O(1) tail appends.
    n.next = kNil;
    nodes_[b.tail].next = idx;
    b.tail = idx;
    return;
  }
  if (before(n.ev, nodes_[b.head].ev)) {
    n.next = b.head;
    b.head = idx;
    return;
  }
  std::uint32_t p = b.head;
  while (nodes_[p].next != kNil && !before(n.ev, nodes_[nodes_[p].next].ev)) {
    p = nodes_[p].next;
  }
  // The tail fast path caught insert-at-end, so p.next != kNil here and the
  // tail never moves.
  n.next = nodes_[p].next;
  nodes_[p].next = idx;
}

std::uint32_t CalendarQueue::overflow_min() const {
  std::uint32_t best = kNil;
  for (std::uint32_t i = overflow_head_; i != kNil; i = nodes_[i].next) {
    if (best == kNil || before(nodes_[i].ev, nodes_[best].ev)) best = i;
  }
  return best;
}

void CalendarQueue::re_base(SimTime t) {
  const SimTime prev_year_end = year_end_;
  reset_cursor_to(t);
  // Membership against the new year: overflow events now inside it join the
  // ring. Every overflow event is >= the current year end when pushed and
  // every forward year move migrates, so all overflow events are >= the
  // previous year end: a year that shrank or stood still captured nothing
  // and the walk is skipped — genuine backward rewinds stay O(1). (The
  // reverse direction — ring events beyond a shrunken year — is tolerated;
  // peek's stranded-ring fallback finds them.)
  if (year_end_ <= prev_year_end || overflow_head_ == kNil) return;
  std::uint32_t prev = kNil;
  std::uint32_t i = overflow_head_;
  while (i != kNil) {
    const std::uint32_t next = nodes_[i].next;
    if (nodes_[i].ev.time < year_end_) {
      if (prev == kNil) {
        overflow_head_ = next;
      } else {
        nodes_[prev].next = next;
      }
      link_into_bucket(i);
      ++ring_size_;
      --overflow_size_;
    } else {
      prev = i;
    }
    i = next;
  }
}

void CalendarQueue::rebuild(std::size_t new_buckets) {
  // Chain the ring into one temporary list; its span BEFORE merging the
  // overflow decides the width, so the far-future cohort cannot stretch the
  // buckets the near cluster lives in.
  std::uint32_t all = kNil;
  for (Bucket& b : buckets_) {
    if (b.head == kNil) continue;
    nodes_[b.tail].next = all;
    all = b.head;
    b.head = b.tail = kNil;
  }
  SimTime mn = 0;
  SimTime mx = 0;
  bool first = true;
  for (std::uint32_t i = all; i != kNil; i = nodes_[i].next) {
    const SimTime t = nodes_[i].ev.time;
    if (first || t < mn) mn = t;
    if (first || t > mx) mx = t;
    first = false;
  }
  const std::size_t width_events = ring_size_ > 0 ? ring_size_ : size_;
  // Merge the overflow list in; the re-split below re-decides membership
  // for every node against the new year.
  while (overflow_head_ != kNil) {
    const std::uint32_t next = nodes_[overflow_head_].next;
    nodes_[overflow_head_].next = all;
    all = overflow_head_;
    overflow_head_ = next;
  }
  std::uint32_t min_idx = kNil;
  for (std::uint32_t i = all; i != kNil; i = nodes_[i].next) {
    const SimTime t = nodes_[i].ev.time;
    if (ring_size_ == 0) {
      // The ring is empty (a year jump): the overflow cohort is the only
      // density signal, so its span decides the width below.
      if (min_idx == kNil || t < mn) mn = t;
      if (min_idx == kNil || t > mx) mx = t;
    }
    if (min_idx == kNil || before(nodes_[i].ev, nodes_[min_idx].ev)) {
      min_idx = i;
    }
  }
  if (size_ > 0) {
    // Width = power of two closest to span/size from below: about one event
    // per window when events are evenly spread, one shared bucket when they
    // are all in the same tick. The span is the RING's span when the ring
    // is nonempty — the far-future cohort must not stretch the buckets the
    // near cluster lives in — and the whole pending set's otherwise.
    const std::uint64_t span = static_cast<std::uint64_t>(mx - mn);
    const std::uint64_t ideal = span / width_events + 1;
    unsigned s = 0;
    while (s < kMaxShift && (std::uint64_t{1} << (s + 1)) <= ideal) ++s;
    shift_ = s;
  }
  std::vector<Bucket> fresh(new_buckets);
  buckets_.swap(fresh);
  bucket_mask_ = new_buckets - 1;
  ring_size_ = 0;
  overflow_size_ = 0;
  reset_cursor_to(min_idx != kNil ? nodes_[min_idx].ev.time : SimTime{0});
  // Keep the cache valid across the rebuild: the cursor now sits at the
  // pending minimum's window, which may be AHEAD of the engine's clock. With
  // a nil cache, an enqueue between now and the pending minimum would have
  // no rewind trigger and the event would be stranded behind the cursor;
  // with the cache set, enqueue's new-minimum check rewinds for it. (The
  // global minimum anchors the year, so it re-splits into the ring and is
  // necessarily its bucket's head after re-linking.)
  cached_min_ = min_idx;
  while (all != kNil) {
    const std::uint32_t next = nodes_[all].next;
    if (nodes_[all].ev.time < year_end_) {
      link_into_bucket(all);
      ++ring_size_;
    } else {
      nodes_[all].next = overflow_head_;
      overflow_head_ = all;
      ++overflow_size_;
    }
    all = next;
  }
}

std::uint32_t CalendarQueue::alloc_node() {
  if (free_head_ == kNil) grow_slab();
  const std::uint32_t idx = free_head_;
  free_head_ = nodes_[idx].next;
  nodes_[idx].next = kNil;
  return idx;
}

void CalendarQueue::grow_slab() {
  const std::size_t old_size = nodes_.size();
  const std::size_t new_size = old_size == 0 ? 64 : old_size * 2;
  std::vector<Node> bigger(new_size);
  for (std::size_t i = 0; i < old_size; ++i) bigger[i] = std::move(nodes_[i]);
  nodes_.swap(bigger);
  for (std::size_t i = new_size; i-- > old_size;) {
    nodes_[i].next = free_head_;
    free_head_ = static_cast<std::uint32_t>(i);
  }
}

void CalendarQueue::free_node(std::uint32_t idx) {
  // dequeue() moved the whole event (guard included) out of the node, so the
  // stale trivial fields need no reset and the moved-from guard holds no
  // pool reference.
  nodes_[idx].next = free_head_;
  free_head_ = idx;
}

}  // namespace vmstorm::sim
