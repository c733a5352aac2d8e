// Chunk placement across the aggregated storage pool (§3.1.3).
//
// Uploaded images are striped so that "chunks ... are evenly distributed
// among the local disks participating in the shared pool"; commits allocate
// new chunks the same way. Three policies are provided: round-robin (the
// default, matching even striping), least-loaded, and seeded-random.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/units.hpp"
#include "blob/types.hpp"

namespace vmstorm::blob {

enum class AllocationPolicy { kRoundRobin, kLeastLoaded, kRandom };

/// Snapshot of placement state (persistence).
struct ProviderManagerState {
  std::vector<Bytes> load;
  std::vector<std::uint64_t> chunk_counts;
  std::size_t next_rr = 0;
};

class ProviderManager {
 public:
  ProviderManager(std::size_t provider_count, AllocationPolicy policy,
                  std::uint64_t seed = 2011);

  /// Picks a provider for one new chunk and records its load.
  ProviderId allocate(Bytes chunk_bytes);

  /// Picks `replicas` distinct providers (primary first). If fewer
  /// providers exist than replicas requested, every provider is returned.
  std::vector<ProviderId> allocate_replicas(Bytes chunk_bytes,
                                            std::size_t replicas);

  ProviderId add_provider();
  std::size_t provider_count() const;

  Bytes load(ProviderId p) const;
  std::uint64_t chunks_on(ProviderId p) const;

  /// max(load) / mean(load): 1.0 is perfectly even.
  double imbalance() const;

  ProviderManagerState export_state() const;
  Status import_state(const ProviderManagerState& state);

 private:
  ProviderId pick_locked(Bytes chunk_bytes,
                         const std::vector<ProviderId>& taken);

  mutable std::mutex mutex_;
  AllocationPolicy policy_;
  Rng rng_;
  std::size_t next_rr_ = 0;
  std::vector<Bytes> load_;
  std::vector<std::uint64_t> chunk_counts_;
};

}  // namespace vmstorm::blob
