#include "storage/disk.hpp"

#include <cassert>

#include "obs/recorder.hpp"
#include "sim/causal.hpp"

namespace vmstorm::storage {

Disk::Disk(sim::Engine& engine, DiskConfig cfg)
    : engine_(&engine), cfg_(cfg),
      platter_(engine, cfg.rate, cfg.seek_overhead) {
  platter_.set_trace("disk", 0);
  if (obs::Recorder* rec = engine.recorder()) {
    obs_cache_hits_ = &rec->metrics.counter("disk.cache_hits");
    obs_cache_misses_ = &rec->metrics.counter("disk.cache_misses");
    obs_queue_wait_ = &rec->metrics.histogram("disk.queue_wait_seconds");
  }
}

void Disk::record_queue_wait() {
  if (obs_queue_wait_) {
    obs_queue_wait_->record(sim::to_seconds(platter_.backlog()));
  }
}

sim::Task<void> Disk::read(std::uint64_t key, Bytes bytes) {
  auto it = cache_map_.find(key);
  if (it != cache_map_.end()) {
    // Cache hit: promote to MRU; memory-speed, no simulated delay.
    cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
    ++cache_hits_;
    if (obs_cache_hits_) obs_cache_hits_->add();
    co_return;
  }
  ++cache_misses_;
  if (obs_cache_misses_) obs_cache_misses_->add();
  record_queue_wait();
  co_await platter_.serve(bytes);
  cache_insert(key, bytes);
}

sim::Task<void> Disk::read_uncached(Bytes bytes) {
  record_queue_wait();
  co_await platter_.serve(bytes);
}

sim::Task<void> Disk::write_sync(Bytes bytes) {
  record_queue_wait();
  co_await platter_.serve(bytes);
}

sim::Task<void> Disk::write_async(Bytes bytes, std::uint64_t cache_key) {
  // Block while admission would exceed the dirty budget (a write larger than
  // the whole budget is admitted alone once the buffer drains).
  struct Admission {
    Disk* disk;
    Bytes need;
    sim::WaitRef rec;
    Admission(Disk* d, Bytes n) : disk(d), need(n) {}
    Admission(const Admission&) = delete;
    Admission& operator=(const Admission&) = delete;
    ~Admission() {
      if (rec && !rec->resumed) rec->alive = false;
    }
    bool await_ready() const {
      return disk->dirty_bytes_ == 0 ||
             disk->dirty_bytes_ + need <= disk->cfg_.dirty_limit;
    }
    void await_suspend(std::coroutine_handle<> h) {
      sim::WaitRef r = sim::make_wait_record(*disk->engine_, h);
      rec = r;
      disk->dirty_waiters_.push_back({need, std::move(r)});
    }
    void await_resume() noexcept {
      if (!rec) return;
      rec->resumed = true;
      sim::record_wait_edge(*disk->engine_, *rec, "disk.dirty");
    }
  };
  while (dirty_bytes_ != 0 && dirty_bytes_ + bytes > cfg_.dirty_limit) {
    co_await Admission{this, bytes};
  }
  dirty_bytes_ += bytes;
  if (cache_key != 0) cache_insert(cache_key, bytes);
  ++flushes_in_flight_;
  engine_->spawn(flusher(bytes));
}

sim::Task<void> Disk::flusher(Bytes bytes) {
  // Background write-back runs outside any instance's span: the platter
  // time it burns is not on the writer's critical path (the write already
  // completed at admission). Contention it causes still shows up as queue
  // wait on whoever it delays.
  engine_->set_current_span(0);
  record_queue_wait();
  co_await platter_.serve(bytes);
  assert(dirty_bytes_ >= bytes);
  dirty_bytes_ -= bytes;
  --flushes_in_flight_;
  wake_dirty_waiters();
  if (flushes_in_flight_ == 0) {
    for (auto& rec : flush_waiters_) {
      if (rec->alive) sim::wake_waiter(*engine_, rec);
    }
    flush_waiters_.clear();
  }
}

void Disk::wake_dirty_waiters() {
  // Admit waiters FIFO while the budget allows; they re-check on resume.
  while (!dirty_waiters_.empty()) {
    DirtyWaiter& w = dirty_waiters_.front();
    if (w.rec->alive) {
      if (dirty_bytes_ != 0 && dirty_bytes_ + w.need > cfg_.dirty_limit) break;
      sim::wake_waiter(*engine_, w.rec);
    }
    dirty_waiters_.pop_front();
  }
}

sim::Task<void> Disk::flush() {
  struct FlushAwaiter {
    Disk* disk;
    sim::WaitRef rec;
    explicit FlushAwaiter(Disk* d) : disk(d) {}
    FlushAwaiter(const FlushAwaiter&) = delete;
    FlushAwaiter& operator=(const FlushAwaiter&) = delete;
    ~FlushAwaiter() {
      if (rec && !rec->resumed) rec->alive = false;
    }
    bool await_ready() const { return disk->flushes_in_flight_ == 0; }
    void await_suspend(std::coroutine_handle<> h) {
      rec = sim::make_wait_record(*disk->engine_, h);
      disk->flush_waiters_.push_back(rec);
    }
    void await_resume() noexcept {
      if (!rec) return;
      rec->resumed = true;
      sim::record_wait_edge(*disk->engine_, *rec, "disk.flush");
    }
  };
  while (flushes_in_flight_ != 0) co_await FlushAwaiter{this};
}

void Disk::cache_insert(std::uint64_t key, Bytes bytes) {
  auto it = cache_map_.find(key);
  if (it != cache_map_.end()) {
    cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
    return;
  }
  cache_lru_.emplace_front(key, bytes);
  cache_map_[key] = cache_lru_.begin();
  cache_bytes_ += bytes;
  while (cache_bytes_ > cfg_.cache_capacity && !cache_lru_.empty()) {
    auto& [old_key, old_bytes] = cache_lru_.back();
    cache_bytes_ -= old_bytes;
    cache_map_.erase(old_key);
    cache_lru_.pop_back();
  }
}

}  // namespace vmstorm::storage
