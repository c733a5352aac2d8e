#include "blob/provider_manager.hpp"

#include <algorithm>
#include <cassert>

namespace vmstorm::blob {

ProviderManager::ProviderManager(std::size_t provider_count,
                                 AllocationPolicy policy, std::uint64_t seed)
    : policy_(policy), rng_(seed), load_(provider_count, 0),
      chunk_counts_(provider_count, 0) {
  assert(provider_count > 0);
}

ProviderId ProviderManager::pick_locked(Bytes chunk_bytes,
                                        const std::vector<ProviderId>& taken) {
  auto is_taken = [&](ProviderId p) {
    return std::find(taken.begin(), taken.end(), p) != taken.end();
  };
  ProviderId p = 0;
  switch (policy_) {
    case AllocationPolicy::kRoundRobin:
      p = static_cast<ProviderId>(next_rr_);
      while (is_taken(p)) p = static_cast<ProviderId>((p + 1) % load_.size());
      next_rr_ = (p + 1) % load_.size();
      break;
    case AllocationPolicy::kLeastLoaded: {
      Bytes best = ~Bytes{0};
      for (ProviderId i = 0; i < load_.size(); ++i) {
        if (!is_taken(i) && load_[i] < best) {
          best = load_[i];
          p = i;
        }
      }
      break;
    }
    case AllocationPolicy::kRandom:
      do {
        p = static_cast<ProviderId>(rng_.uniform_u64(load_.size()));
      } while (is_taken(p));
      break;
  }
  load_[p] += chunk_bytes;
  ++chunk_counts_[p];
  return p;
}

ProviderId ProviderManager::allocate(Bytes chunk_bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  return pick_locked(chunk_bytes, {});
}

std::vector<ProviderId> ProviderManager::allocate_replicas(
    Bytes chunk_bytes, std::size_t replicas) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t want = std::min(replicas == 0 ? 1 : replicas, load_.size());
  std::vector<ProviderId> out;
  out.reserve(want);
  while (out.size() < want) out.push_back(pick_locked(chunk_bytes, out));
  return out;
}

ProviderId ProviderManager::add_provider() {
  std::lock_guard<std::mutex> lock(mutex_);
  load_.push_back(0);
  chunk_counts_.push_back(0);
  return static_cast<ProviderId>(load_.size() - 1);
}

std::size_t ProviderManager::provider_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return load_.size();
}

Bytes ProviderManager::load(ProviderId p) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return load_.at(p);
}

std::uint64_t ProviderManager::chunks_on(ProviderId p) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return chunk_counts_.at(p);
}

ProviderManagerState ProviderManager::export_state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ProviderManagerState{load_, chunk_counts_, next_rr_};
}

Status ProviderManager::import_state(const ProviderManagerState& state) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state.load.size() != load_.size() ||
      state.chunk_counts.size() != chunk_counts_.size()) {
    return invalid_argument("provider count mismatch");
  }
  load_ = state.load;
  chunk_counts_ = state.chunk_counts;
  next_rr_ = state.next_rr % (load_.empty() ? 1 : load_.size());
  return Status::ok();
}

double ProviderManager::imbalance() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Bytes total = 0, peak = 0;
  for (Bytes l : load_) {
    total += l;
    peak = std::max(peak, l);
  }
  if (total == 0) return 1.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(load_.size());
  return static_cast<double>(peak) / mean;
}

}  // namespace vmstorm::blob
