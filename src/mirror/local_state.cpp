#include "mirror/local_state.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace vmstorm::mirror {

namespace {

constexpr std::uint64_t kMagic = 0x4d49525253543031ull;  // "MIRRST01"

/// ceil(image / chunk), without overflow for any image size.
std::uint64_t chunk_count_for(Bytes image, Bytes chunk) {
  return image / chunk + (image % chunk != 0 ? 1 : 0);
}

/// r minus cut: zero, one or two pieces appended to out.
void range_subtract(ByteRange r, ByteRange cut, std::vector<ByteRange>* out) {
  if (!r.overlaps(cut)) {
    if (!r.empty()) out->push_back(r);
    return;
  }
  if (r.lo < cut.lo) out->push_back({r.lo, cut.lo});
  if (cut.hi < r.hi) out->push_back({cut.hi, r.hi});
}

}  // namespace

LocalState::LocalState(MirrorConfig cfg) : cfg_(cfg) {
  assert(cfg_.image_size > 0 && cfg_.chunk_size > 0);
  assert(cfg_.chunk_size <= kMaxChunkSize);
  regions_.resize(chunk_count_for(cfg_.image_size, cfg_.chunk_size));
}

ByteRange LocalState::chunk_range(std::uint64_t ci) const {
  const Bytes lo = ci * cfg_.chunk_size;
  return {lo, std::min(lo + cfg_.chunk_size, cfg_.image_size)};
}

const RangeSet* LocalState::fragments_of(std::uint64_t ci) const {
  auto it = fragmented_.find(ci);
  return it == fragmented_.end() ? nullptr : &it->second;
}

ByteRange LocalState::region_of(std::uint64_t ci) const {
  const Bytes base = ci * cfg_.chunk_size;
  return {base + regions_[ci].lo, base + regions_[ci].hi};
}

bool LocalState::chunk_contains(std::uint64_t ci, ByteRange sub) const {
  if (const RangeSet* f = fragments_of(ci)) return f->contains(sub);
  return region_of(ci).contains(sub);
}

ByteRange LocalState::chunk_hull(std::uint64_t ci) const {
  if (const RangeSet* f = fragments_of(ci)) {
    const auto fragments = f->to_vector();
    return {fragments.front().lo, fragments.back().hi};
  }
  return region_of(ci);
}

void LocalState::chunk_missing(std::uint64_t ci, ByteRange target,
                               std::vector<ByteRange>* out) const {
  if (const RangeSet* f = fragments_of(ci)) {
    for (const ByteRange& gap : f->missing_within(target)) out->push_back(gap);
    return;
  }
  range_subtract(target, region_of(ci), out);
}

void LocalState::chunk_insert(std::uint64_t ci, ByteRange sub) {
  if (auto it = fragmented_.find(ci); it != fragmented_.end()) {
    it->second.insert(sub);
    if (it->second.fragment_count() > 1) return;
    sub = it->second.to_vector().front();  // the gaps closed: one region again
    fragmented_.erase(it);
  } else if (const ByteRange cur = region_of(ci); !cur.empty()) {
    if (sub.lo > cur.hi || cur.lo > sub.hi) {  // neither overlaps nor touches
      RangeSet split;
      split.insert(cur);
      split.insert(sub);
      fragmented_.emplace(ci, std::move(split));
      regions_[ci] = Region{};
      return;
    }
    sub = cur.hull(sub);
  }
  const Bytes base = ci * cfg_.chunk_size;
  regions_[ci] = Region{static_cast<std::uint32_t>(sub.lo - base),
                        static_cast<std::uint32_t>(sub.hi - base)};
}

std::vector<ByteRange> LocalState::plan_read(ByteRange req) const {
  std::vector<ByteRange> fetches;
  if (req.empty()) return fetches;
  assert(req.hi <= cfg_.image_size);
  for (std::uint64_t ci = chunk_of(req.lo);
       ci < regions_.size() && ci * cfg_.chunk_size < req.hi; ++ci) {
    const ByteRange cr = chunk_range(ci);
    const ByteRange sub = req.intersect(cr);
    if (chunk_contains(ci, sub)) continue;
    // Strategy 1: fetch the chunk's full missing content, not just the
    // requested slice (minimal set of whole chunks covering the request).
    ByteRange target = cfg_.prefetch_whole_chunks ? cr : sub;
    if (!cfg_.prefetch_whole_chunks && cfg_.single_region_per_chunk) {
      // Without whole-chunk prefetch, a read could otherwise fragment the
      // chunk; widen it to the hull so the single-region invariant holds.
      target = chunk_hull(ci).hull(sub);
    }
    chunk_missing(ci, target, &fetches);
  }
  return fetches;
}

std::vector<ByteRange> LocalState::plan_write(ByteRange req) const {
  std::vector<ByteRange> fetches;
  if (req.empty() || !cfg_.single_region_per_chunk) return fetches;
  assert(req.hi <= cfg_.image_size);
  std::vector<ByteRange> gaps;
  for (std::uint64_t ci = chunk_of(req.lo);
       ci < regions_.size() && ci * cfg_.chunk_size < req.hi; ++ci) {
    const ByteRange sub = req.intersect(chunk_range(ci));
    // Current hull of mirrored content within this chunk.
    const ByteRange present = chunk_hull(ci);
    if (present.empty()) continue;  // fresh chunk: the write itself is one region
    // Strategy 2: everything inside the hull must end up mirrored; fetch
    // the gaps that the write itself will not cover.
    gaps.clear();
    chunk_missing(ci, present.hull(sub), &gaps);
    for (const ByteRange& gap : gaps) range_subtract(gap, sub, &fetches);
  }
  return fetches;
}

void LocalState::apply_fetch(ByteRange r) {
  if (r.empty()) return;
  assert(r.hi <= cfg_.image_size);
  for (std::uint64_t ci = chunk_of(r.lo);
       ci < regions_.size() && ci * cfg_.chunk_size < r.hi; ++ci) {
    const ByteRange sub = r.intersect(chunk_range(ci));
    if (!sub.empty()) chunk_insert(ci, sub);
  }
}

void LocalState::apply_write(ByteRange r) {
  if (r.empty()) return;
  assert(r.hi <= cfg_.image_size);
  for (std::uint64_t ci = chunk_of(r.lo);
       ci < regions_.size() && ci * cfg_.chunk_size < r.hi; ++ci) {
    const ByteRange sub = r.intersect(chunk_range(ci));
    if (sub.empty()) continue;
    chunk_insert(ci, sub);
    dirty_[ci].insert(sub);
  }
}

std::vector<std::uint64_t> LocalState::dirty_chunks() const {
  std::vector<std::uint64_t> out;
  out.reserve(dirty_.size());
  for (const auto& [ci, ranges] : dirty_) out.push_back(ci);
  return out;
}

std::vector<ByteRange> LocalState::plan_commit() const {
  std::vector<ByteRange> fetches;
  for (const auto& [ci, ranges] : dirty_) {
    chunk_missing(ci, chunk_range(ci), &fetches);
  }
  return fetches;
}

void LocalState::clear_dirty() {
  // A committed chunk must be complete (plan_commit fetches applied).
  for ([[maybe_unused]] const auto& [ci, ranges] : dirty_) {
    assert(chunk_contains(ci, chunk_range(ci)));
  }
  dirty_.clear();
}

bool LocalState::is_mirrored(ByteRange r) const {
  if (r.empty()) return true;
  for (std::uint64_t ci = chunk_of(r.lo);
       ci < regions_.size() && ci * cfg_.chunk_size < r.hi; ++ci) {
    if (!chunk_contains(ci, r.intersect(chunk_range(ci)))) return false;
  }
  return true;
}

Bytes LocalState::mirrored_bytes() const {
  Bytes n = 0;
  for (const Region& r : regions_) n += r.hi - r.lo;
  for (const auto& [ci, f] : fragmented_) n += f.total_bytes();
  return n;
}

Bytes LocalState::dirty_bytes() const {
  Bytes n = 0;
  for (const auto& [ci, ranges] : dirty_) n += ranges.total_bytes();
  return n;
}

std::size_t LocalState::fragment_count() const {
  std::size_t n = 0;
  for (const Region& r : regions_) n += r.hi > r.lo ? 1 : 0;
  for (const auto& [ci, f] : fragmented_) n += f.fragment_count();
  return n;
}

bool LocalState::single_region_invariant_holds() const {
  return fragmented_.empty();
}

// Binary layout ("MIRRST01"): magic, config, then per chunk: dirty flag
// + mirrored range list + dirty range list, all u64, ranges in image
// coordinates.
std::string LocalState::serialize() const {
  std::string out;
  auto put_u64 = [&out](std::uint64_t v) {
    out.append(reinterpret_cast<const char*>(&v), 8);
  };
  auto put_ranges = [&put_u64](const std::vector<ByteRange>& rs) {
    put_u64(rs.size());
    for (const auto& r : rs) {
      put_u64(r.lo);
      put_u64(r.hi);
    }
  };
  put_u64(kMagic);
  put_u64(cfg_.image_size);
  put_u64(cfg_.chunk_size);
  put_u64((cfg_.prefetch_whole_chunks ? 1u : 0u) |
          (cfg_.single_region_per_chunk ? 2u : 0u));
  put_u64(regions_.size());
  auto dirty = dirty_.begin();
  for (std::uint64_t ci = 0; ci < regions_.size(); ++ci) {
    const bool is_dirty = dirty != dirty_.end() && dirty->first == ci;
    put_u64(is_dirty ? 1 : 0);
    if (const RangeSet* f = fragments_of(ci)) {
      put_ranges(f->to_vector());
    } else if (const ByteRange r = region_of(ci); !r.empty()) {
      put_ranges({r});
    } else {
      put_ranges({});
    }
    if (is_dirty) {
      put_ranges(dirty->second.to_vector());
      ++dirty;
    } else {
      put_ranges({});
    }
  }
  return out;
}

Result<LocalState> LocalState::deserialize(const std::string& data) {
  std::size_t pos = 0;
  auto get_u64 = [&](std::uint64_t* v) -> bool {
    if (pos + 8 > data.size()) return false;
    std::memcpy(v, data.data() + pos, 8);
    pos += 8;
    return true;
  };
  std::uint64_t magic = 0, image_size = 0, chunk_size = 0, flags = 0, n = 0;
  if (!get_u64(&magic) || magic != kMagic) {
    return corruption("bad mirror-state magic");
  }
  if (!get_u64(&image_size) || !get_u64(&chunk_size) || !get_u64(&flags) ||
      !get_u64(&n)) {
    return corruption("truncated mirror-state header");
  }
  if (image_size == 0 || chunk_size == 0) return corruption("bad sizes");
  if (chunk_size > kMaxChunkSize) {
    return corruption("chunk size of 4 GiB or more");
  }
  if ((flags & ~std::uint64_t{3}) != 0) return corruption("unknown flag bits");
  if (n != chunk_count_for(image_size, chunk_size)) {
    return corruption("chunk count mismatch");
  }
  // Every chunk takes at least three u64s: refuse before allocating.
  if (n > (data.size() - pos) / 24) return corruption("truncated chunk state");
  MirrorConfig cfg;
  cfg.image_size = image_size;
  cfg.chunk_size = chunk_size;
  cfg.prefetch_whole_chunks = (flags & 1) != 0;
  cfg.single_region_per_chunk = (flags & 2) != 0;
  LocalState st(cfg);
  // One range list, in the canonical form serialize() writes: non-empty
  // ranges inside chunk ci, ordered, neither overlapping nor adjacent.
  auto get_ranges = [&](std::uint64_t ci,
                        std::vector<ByteRange>* out) -> Status {
    std::uint64_t count = 0;
    if (!get_u64(&count)) return corruption("truncated range count");
    const ByteRange cr = st.chunk_range(ci);
    Bytes prev_hi = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      ByteRange r;
      if (!get_u64(&r.lo) || !get_u64(&r.hi)) {
        return corruption("truncated range");
      }
      if (r.empty()) return corruption("empty range");
      if (!cr.contains(r)) return corruption("range outside its chunk");
      if (i > 0 && r.lo <= prev_hi) {
        return corruption("ranges unordered, overlapping or adjacent");
      }
      prev_hi = r.hi;
      out->push_back(r);
    }
    return Status::ok();
  };
  std::vector<ByteRange> ranges;
  for (std::uint64_t ci = 0; ci < n; ++ci) {
    std::uint64_t dirty = 0;
    if (!get_u64(&dirty)) return corruption("truncated chunk state");
    if (dirty > 1) return corruption("bad dirty flag");
    ranges.clear();
    VMSTORM_RETURN_IF_ERROR(get_ranges(ci, &ranges));
    for (const ByteRange& r : ranges) st.chunk_insert(ci, r);
    ranges.clear();
    VMSTORM_RETURN_IF_ERROR(get_ranges(ci, &ranges));
    if ((dirty != 0) != !ranges.empty()) {
      return corruption("dirty flag disagrees with the dirty ranges");
    }
    for (const ByteRange& r : ranges) {
      if (!st.chunk_contains(ci, r)) {
        return corruption("dirty range outside the mirrored set");
      }
      st.dirty_[ci].insert(r);
    }
  }
  if (pos != data.size()) return corruption("trailing bytes in mirror state");
  return st;
}

}  // namespace vmstorm::mirror
