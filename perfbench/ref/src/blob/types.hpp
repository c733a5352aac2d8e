// Identifiers shared across the blob store.
#pragma once

#include <cstdint>

#include "common/units.hpp"

namespace vmstorm::blob {

/// A BLOB: one versioned virtual-machine image (or any large object).
using BlobId = std::uint32_t;
inline constexpr BlobId kInvalidBlob = 0xffffffffu;

/// Snapshot version within a blob. Version 0 is the empty (all-holes)
/// snapshot that exists from creation; the first write/commit publishes 1.
using Version = std::uint32_t;

/// A data provider: one participant in the aggregated storage pool
/// (in the cloud deployment, one compute node's local disk).
using ProviderId = std::uint32_t;

/// Storage key of one stored chunk within its provider.
using ChunkKey = std::uint64_t;
inline constexpr ChunkKey kHoleChunk = 0;  // leaf never written: reads as zeros

/// Where one chunk of a snapshot lives.
struct ChunkLocation {
  std::uint64_t chunk_index = 0;
  ProviderId provider = 0;
  ChunkKey key = kHoleChunk;

  bool is_hole() const { return key == kHoleChunk; }
  friend bool operator==(const ChunkLocation&, const ChunkLocation&) = default;
};

}  // namespace vmstorm::blob
