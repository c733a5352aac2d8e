// Repository persistence: serialize a BlobStore (metadata + chunk data) to
// a single repository file and load it back.
//
// Format (little-endian, versioned):
//   magic "VMSTREPO" | format version | StoreConfig |
//   segment-tree arena | blob directory | replica map | dedup map |
//   per-provider chunk stores (payloads as kind descriptors or raw bytes)
//
// Synthetic payloads persist as their (seed, bias, size) descriptors, so a
// repository holding multi-GB pattern images serializes in kilobytes.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>

#include "blob/store.hpp"

namespace vmstorm::blob {

/// Writes the full repository state.
Status save_store(const BlobStore& store, std::ostream& out);
Status save_store_file(const BlobStore& store, const std::string& path);

/// Reconstructs a repository. The returned store is a faithful copy:
/// blob ids, versions, chunk placement and content all survive.
Result<std::unique_ptr<BlobStore>> load_store(std::istream& in);
Result<std::unique_ptr<BlobStore>> load_store_file(const std::string& path);

}  // namespace vmstorm::blob
