// The local-modification manager and R/W translator of the mirroring
// module (paper §3.3, §4.2) as pure, driver-independent logic.
//
// LocalState tracks, per chunk, which byte ranges of the image are mirrored
// on the local disk and which have been locally written (dirty). The two
// access strategies of §3.3 are both implemented and individually
// switchable (the ablation benchmark exercises all four combinations):
//
//  * strategy 1 — whole-chunk read prefetch: a read touching any
//    not-fully-mirrored chunk fetches the *full minimal set of chunks*
//    covering the request, improving correlated reads at small chunk sizes;
//  * strategy 2 — single contiguous region per chunk: a write that would
//    leave a gap inside a chunk triggers a remote read filling the gap,
//    bounding fragmentation metadata to O(1) per chunk.
//
// Storage follows strategy 2: each chunk's mirrored content is one region,
// two chunk-relative 32-bit offsets (8 B per chunk). Chunks that hold more
// than one fragment (only possible with strategy 2 off, or after an
// arbitrary apply_fetch) move to a sparse RangeSet side table, and so do
// the dirty ranges of dirty chunks: COMMIT work is O(dirty chunks).
//
// Drivers (the real VirtualDisk and the simulated SimVirtualDisk) call
// plan_read / plan_write, execute the returned remote fetches, then call
// apply_fetch / apply_write. COMMIT uses plan_commit to complete dirty
// chunks before publishing them.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/interval.hpp"
#include "common/status.hpp"
#include "common/units.hpp"

namespace vmstorm::mirror {

struct MirrorConfig {
  Bytes image_size = 0;
  Bytes chunk_size = 256_KiB;  // the paper's choice (§5.2); <= kMaxChunkSize
  bool prefetch_whole_chunks = true;   // §3.3 strategy 1
  bool single_region_per_chunk = true; // §3.3 strategy 2
};

class LocalState {
 public:
  /// Chunk-relative offsets are 32-bit, so a chunk is at most 4 GiB - 1.
  static constexpr Bytes kMaxChunkSize = UINT32_MAX;

  explicit LocalState(MirrorConfig cfg);

  const MirrorConfig& config() const { return cfg_; }
  std::uint64_t chunk_count() const { return regions_.size(); }

  /// Byte range covered by chunk `ci` (last chunk may be short).
  ByteRange chunk_range(std::uint64_t ci) const;

  // ---- Read path ----------------------------------------------------------

  /// Remote fetches required before `req` can be served locally. Ranges are
  /// in image coordinates, ordered, disjoint; empty if fully mirrored.
  std::vector<ByteRange> plan_read(ByteRange req) const;

  // ---- Write path ---------------------------------------------------------

  /// Gap-filling remote fetches required before `req` may be written
  /// (strategy 2). Never overlaps `req` itself (those bytes are about to be
  /// overwritten anyway).
  std::vector<ByteRange> plan_write(ByteRange req) const;

  // ---- State transitions --------------------------------------------------

  /// Marks a fetched range as mirrored.
  void apply_fetch(ByteRange r);

  /// Marks a written range as mirrored and dirty.
  void apply_write(ByteRange r);

  // ---- COMMIT support -----------------------------------------------------

  /// Indices of chunks with local modifications.
  std::vector<std::uint64_t> dirty_chunks() const;

  /// Fetches needed to complete every dirty chunk (a committed chunk must
  /// be whole: the snapshot stores full chunks).
  std::vector<ByteRange> plan_commit() const;

  /// After a successful COMMIT: dirty flags clear; the committed chunks are
  /// fully mirrored (plan_commit's fetches must have been applied).
  void clear_dirty();

  // ---- Queries ------------------------------------------------------------

  bool is_mirrored(ByteRange r) const;
  bool is_dirty_chunk(std::uint64_t ci) const { return dirty_.contains(ci); }
  Bytes mirrored_bytes() const;
  Bytes dirty_bytes() const;

  /// Total fragments across chunks. With strategy 2 this is bounded by the
  /// chunk count (the §3.3 guarantee); without it, unbounded.
  std::size_t fragment_count() const;

  /// True iff every chunk's mirrored set is a single contiguous range.
  bool single_region_invariant_holds() const;

  // ---- Persistence (§4.2: metadata written on close, restored on open) ----

  std::string serialize() const;
  /// Refuses (kCorruption) anything serialize() cannot have written: ranges
  /// that are empty, outside their chunk, unordered, overlapping or
  /// adjacent; dirty ranges outside the mirrored set; a dirty flag that
  /// disagrees with the dirty ranges; a chunk size above kMaxChunkSize.
  static Result<LocalState> deserialize(const std::string& data);

 private:
  /// A chunk's one mirrored region, chunk-relative [lo, hi); lo == hi when
  /// the chunk holds nothing or is fragmented.
  struct Region {
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
  };

  std::uint64_t chunk_of(Bytes offset) const { return offset / cfg_.chunk_size; }

  /// Chunk ci's mirrored content: its fragments' RangeSet, or null when it
  /// is the single (possibly empty) region regions_[ci].
  const RangeSet* fragments_of(std::uint64_t ci) const;
  /// regions_[ci] in image coordinates.
  ByteRange region_of(std::uint64_t ci) const;
  bool chunk_contains(std::uint64_t ci, ByteRange sub) const;
  /// Smallest range holding all of chunk ci's mirrored bytes (empty if none).
  ByteRange chunk_hull(std::uint64_t ci) const;
  /// Appends, in order, the pieces of `target` (inside chunk ci) that are
  /// not mirrored.
  void chunk_missing(std::uint64_t ci, ByteRange target,
                     std::vector<ByteRange>* out) const;
  /// Marks `sub` (non-empty, inside chunk ci) mirrored.
  void chunk_insert(std::uint64_t ci, ByteRange sub);

  MirrorConfig cfg_;
  std::vector<Region> regions_;
  // Chunks whose mirrored set is two or more fragments.
  std::map<std::uint64_t, RangeSet> fragmented_;
  // Dirty chunk -> its dirty ranges; a chunk is dirty iff it has an entry.
  std::map<std::uint64_t, RangeSet> dirty_;
};

}  // namespace vmstorm::mirror
