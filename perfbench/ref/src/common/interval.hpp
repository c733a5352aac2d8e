// Half-open byte ranges and ordered disjoint range sets.
//
// RangeSet is the workhorse of the mirroring module's local-modification
// manager and of several tests: it tracks which byte ranges of an image are
// locally available / dirty, with O(log n) point queries and amortized
// O(log n) insertion.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace vmstorm {

/// Half-open interval [lo, hi). Empty iff lo >= hi.
struct ByteRange {
  Bytes lo = 0;
  Bytes hi = 0;

  constexpr Bytes size() const { return hi > lo ? hi - lo : 0; }
  constexpr bool empty() const { return hi <= lo; }
  constexpr bool contains(Bytes x) const { return x >= lo && x < hi; }
  constexpr bool contains(const ByteRange& o) const {
    return o.empty() || (o.lo >= lo && o.hi <= hi);
  }
  constexpr bool overlaps(const ByteRange& o) const {
    return !empty() && !o.empty() && lo < o.hi && o.lo < hi;
  }

  /// Intersection (possibly empty).
  constexpr ByteRange intersect(const ByteRange& o) const {
    ByteRange r{lo > o.lo ? lo : o.lo, hi < o.hi ? hi : o.hi};
    if (r.hi < r.lo) r.hi = r.lo;
    return r;
  }

  /// Smallest interval containing both (the convex hull); empty inputs are
  /// identity elements.
  constexpr ByteRange hull(const ByteRange& o) const {
    if (empty()) return o;
    if (o.empty()) return *this;
    return {lo < o.lo ? lo : o.lo, hi > o.hi ? hi : o.hi};
  }

  friend constexpr bool operator==(const ByteRange&, const ByteRange&) = default;

  std::string to_string() const;
};

/// An ordered set of disjoint, non-adjacent half-open ranges.
class RangeSet {
 public:
  RangeSet() = default;

  /// Inserts [r.lo, r.hi), coalescing with overlapping/adjacent ranges.
  void insert(ByteRange r);

  /// Removes [r.lo, r.hi) from the set, splitting ranges as needed.
  void erase(ByteRange r);

  /// True iff every byte of r is present.
  bool contains(const ByteRange& r) const;

  /// True iff at least one byte of r is present.
  bool overlaps(const ByteRange& r) const;

  /// The sub-ranges of r that are *not* in the set, in order. These are the
  /// "gaps" a mirroring read must fetch remotely.
  std::vector<ByteRange> missing_within(const ByteRange& r) const;

  /// The sub-ranges of r that *are* in the set, in order.
  std::vector<ByteRange> present_within(const ByteRange& r) const;

  /// Total number of bytes in the set.
  Bytes total_bytes() const;

  /// Number of disjoint ranges (fragmentation measure).
  std::size_t fragment_count() const { return ranges_.size(); }

  bool empty() const { return ranges_.empty(); }
  void clear() { ranges_.clear(); }

  std::vector<ByteRange> to_vector() const;
  std::string to_string() const;

  friend bool operator==(const RangeSet& a, const RangeSet& b) {
    return a.ranges_ == b.ranges_;
  }

 private:
  // key = lo, value = hi. Invariant: disjoint and non-adjacent
  // (prev.hi < next.lo).
  std::map<Bytes, Bytes> ranges_;
};

}  // namespace vmstorm
