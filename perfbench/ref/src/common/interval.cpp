#include "common/interval.hpp"

#include <sstream>

namespace vmstorm {

std::string ByteRange::to_string() const {
  std::ostringstream os;
  os << "[" << lo << "," << hi << ")";
  return os.str();
}

void RangeSet::insert(ByteRange r) {
  if (r.empty()) return;
  // Find the first range whose hi >= r.lo: anything before cannot touch r.
  auto it = ranges_.lower_bound(r.lo);
  if (it != ranges_.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= r.lo) it = prev;  // prev overlaps or is adjacent
  }
  // Absorb all ranges touching [r.lo, r.hi].
  while (it != ranges_.end() && it->first <= r.hi) {
    r.lo = std::min(r.lo, it->first);
    r.hi = std::max(r.hi, it->second);
    it = ranges_.erase(it);
  }
  ranges_.emplace(r.lo, r.hi);
}

void RangeSet::erase(ByteRange r) {
  if (r.empty()) return;
  auto it = ranges_.lower_bound(r.lo);
  if (it != ranges_.begin()) {
    auto prev = std::prev(it);
    if (prev->second > r.lo) it = prev;
  }
  while (it != ranges_.end() && it->first < r.hi) {
    ByteRange cur{it->first, it->second};
    it = ranges_.erase(it);
    if (cur.lo < r.lo) ranges_.emplace(cur.lo, r.lo);
    if (cur.hi > r.hi) {
      ranges_.emplace(r.hi, cur.hi);
      break;  // nothing further can start before r.hi
    }
  }
}

bool RangeSet::contains(const ByteRange& r) const {
  if (r.empty()) return true;
  auto it = ranges_.upper_bound(r.lo);
  if (it == ranges_.begin()) return false;
  --it;
  return it->first <= r.lo && it->second >= r.hi;
}

bool RangeSet::overlaps(const ByteRange& r) const {
  if (r.empty()) return false;
  auto it = ranges_.lower_bound(r.lo);
  if (it != ranges_.end() && it->first < r.hi) return true;
  if (it == ranges_.begin()) return false;
  --it;
  return it->second > r.lo;
}

std::vector<ByteRange> RangeSet::missing_within(const ByteRange& r) const {
  std::vector<ByteRange> gaps;
  if (r.empty()) return gaps;
  Bytes cursor = r.lo;
  for (const ByteRange& p : present_within(r)) {
    if (p.lo > cursor) gaps.push_back({cursor, p.lo});
    cursor = p.hi;
  }
  if (cursor < r.hi) gaps.push_back({cursor, r.hi});
  return gaps;
}

std::vector<ByteRange> RangeSet::present_within(const ByteRange& r) const {
  std::vector<ByteRange> out;
  if (r.empty()) return out;
  auto it = ranges_.upper_bound(r.lo);
  if (it != ranges_.begin()) {
    auto prev = std::prev(it);
    if (prev->second > r.lo) it = prev;
  }
  for (; it != ranges_.end() && it->first < r.hi; ++it) {
    ByteRange clipped = ByteRange{it->first, it->second}.intersect(r);
    if (!clipped.empty()) out.push_back(clipped);
  }
  return out;
}

Bytes RangeSet::total_bytes() const {
  Bytes n = 0;
  for (const auto& [lo, hi] : ranges_) n += hi - lo;
  return n;
}

std::vector<ByteRange> RangeSet::to_vector() const {
  std::vector<ByteRange> v;
  v.reserve(ranges_.size());
  for (const auto& [lo, hi] : ranges_) v.push_back({lo, hi});
  return v;
}

std::string RangeSet::to_string() const {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [lo, hi] : ranges_) {
    if (!first) os << ", ";
    first = false;
    os << "[" << lo << "," << hi << ")";
  }
  os << "}";
  return os.str();
}

}  // namespace vmstorm
