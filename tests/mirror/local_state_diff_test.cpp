// Differential test of LocalState's compact representation (one 8-byte
// region per chunk, sparse side tables for fragments and dirty ranges)
// against a reference model that keeps a mirrored RangeSet, a dirty
// RangeSet and a dirty flag for every chunk.
#include "mirror/local_state.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"

namespace vmstorm::mirror {
namespace {

/// The per-chunk RangeSet-pair model: the same planning rules, stated
/// directly over general range sets.
class RefState {
 public:
  explicit RefState(MirrorConfig cfg) : cfg_(cfg) {
    chunks_.resize((cfg_.image_size + cfg_.chunk_size - 1) / cfg_.chunk_size);
  }

  ByteRange chunk_range(std::uint64_t ci) const {
    const Bytes lo = ci * cfg_.chunk_size;
    return {lo, std::min(lo + cfg_.chunk_size, cfg_.image_size)};
  }

  std::vector<ByteRange> plan_read(ByteRange req) const {
    std::vector<ByteRange> fetches;
    for (std::uint64_t ci : chunks_of(req)) {
      const ByteRange cr = chunk_range(ci);
      const ByteRange sub = req.intersect(cr);
      const RangeSet& m = chunks_[ci].mirrored;
      if (m.contains(sub)) continue;
      ByteRange target = cfg_.prefetch_whole_chunks ? cr : sub;
      if (!cfg_.prefetch_whole_chunks && cfg_.single_region_per_chunk) {
        auto present = m.present_within(cr);
        if (!present.empty()) {
          target = ByteRange{present.front().lo, present.back().hi}.hull(sub);
        }
      }
      for (const ByteRange& gap : m.missing_within(target)) {
        fetches.push_back(gap);
      }
    }
    return fetches;
  }

  std::vector<ByteRange> plan_write(ByteRange req) const {
    std::vector<ByteRange> fetches;
    if (!cfg_.single_region_per_chunk) return fetches;
    for (std::uint64_t ci : chunks_of(req)) {
      const ByteRange sub = req.intersect(chunk_range(ci));
      const RangeSet& m = chunks_[ci].mirrored;
      auto present = m.present_within(chunk_range(ci));
      if (present.empty()) continue;
      const ByteRange hull =
          ByteRange{present.front().lo, present.back().hi}.hull(sub);
      for (const ByteRange& gap : m.missing_within(hull)) {
        if (!gap.overlaps(sub)) {
          fetches.push_back(gap);
          continue;
        }
        if (gap.lo < sub.lo) fetches.push_back({gap.lo, sub.lo});
        if (sub.hi < gap.hi) fetches.push_back({sub.hi, gap.hi});
      }
    }
    return fetches;
  }

  void apply_fetch(ByteRange r) {
    for (std::uint64_t ci : chunks_of(r)) {
      chunks_[ci].mirrored.insert(r.intersect(chunk_range(ci)));
    }
  }

  void apply_write(ByteRange r) {
    for (std::uint64_t ci : chunks_of(r)) {
      const ByteRange sub = r.intersect(chunk_range(ci));
      chunks_[ci].mirrored.insert(sub);
      chunks_[ci].dirty_ranges.insert(sub);
      chunks_[ci].dirty = true;
    }
  }

  std::vector<std::uint64_t> dirty_chunks() const {
    std::vector<std::uint64_t> out;
    for (std::uint64_t ci = 0; ci < chunks_.size(); ++ci) {
      if (chunks_[ci].dirty) out.push_back(ci);
    }
    return out;
  }

  std::vector<ByteRange> plan_commit() const {
    std::vector<ByteRange> fetches;
    for (std::uint64_t ci : dirty_chunks()) {
      for (const ByteRange& gap :
           chunks_[ci].mirrored.missing_within(chunk_range(ci))) {
        fetches.push_back(gap);
      }
    }
    return fetches;
  }

  void clear_dirty() {
    for (Chunk& c : chunks_) {
      c.dirty = false;
      c.dirty_ranges.clear();
    }
  }

  bool is_mirrored(ByteRange r) const {
    for (std::uint64_t ci : chunks_of(r)) {
      if (!chunks_[ci].mirrored.contains(r.intersect(chunk_range(ci)))) {
        return false;
      }
    }
    return true;
  }

  Bytes mirrored_bytes() const {
    Bytes n = 0;
    for (const Chunk& c : chunks_) n += c.mirrored.total_bytes();
    return n;
  }

  Bytes dirty_bytes() const {
    Bytes n = 0;
    for (const Chunk& c : chunks_) n += c.dirty_ranges.total_bytes();
    return n;
  }

  std::size_t fragment_count() const {
    std::size_t n = 0;
    for (const Chunk& c : chunks_) n += c.mirrored.fragment_count();
    return n;
  }

  bool single_region_invariant_holds() const {
    return std::all_of(chunks_.begin(), chunks_.end(), [](const Chunk& c) {
      return c.mirrored.fragment_count() <= 1;
    });
  }

  std::string serialize() const {
    std::string out;
    auto put_u64 = [&out](std::uint64_t v) {
      out.append(reinterpret_cast<const char*>(&v), 8);
    };
    auto put_set = [&put_u64](const RangeSet& s) {
      const auto v = s.to_vector();
      put_u64(v.size());
      for (const ByteRange& r : v) {
        put_u64(r.lo);
        put_u64(r.hi);
      }
    };
    put_u64(0x4d49525253543031ull);
    put_u64(cfg_.image_size);
    put_u64(cfg_.chunk_size);
    put_u64((cfg_.prefetch_whole_chunks ? 1u : 0u) |
            (cfg_.single_region_per_chunk ? 2u : 0u));
    put_u64(chunks_.size());
    for (const Chunk& c : chunks_) {
      put_u64(c.dirty ? 1 : 0);
      put_set(c.mirrored);
      put_set(c.dirty_ranges);
    }
    return out;
  }

 private:
  struct Chunk {
    RangeSet mirrored;
    RangeSet dirty_ranges;
    bool dirty = false;
  };

  std::vector<std::uint64_t> chunks_of(ByteRange r) const {
    std::vector<std::uint64_t> out;
    if (r.empty()) return out;
    for (std::uint64_t ci = r.lo / cfg_.chunk_size;
         ci < chunks_.size() && ci * cfg_.chunk_size < r.hi; ++ci) {
      out.push_back(ci);
    }
    return out;
  }

  MirrorConfig cfg_;
  std::vector<Chunk> chunks_;
};

MirrorConfig cfg(Bytes image, Bytes chunk, bool s1, bool s2) {
  MirrorConfig c;
  c.image_size = image;
  c.chunk_size = chunk;
  c.prefetch_whole_chunks = s1;
  c.single_region_per_chunk = s2;
  return c;
}

class LocalStateDiffTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool, bool>> {};

TEST_P(LocalStateDiffTest, RandomOpsMatchRangeSetModel) {
  const auto [seed, s1, s2] = GetParam();
  Rng rng(seed);
  // A short last chunk, and requests up to three chunks long.
  const Bytes kImage = 6000, kChunk = 512;
  LocalState st(cfg(kImage, kChunk, s1, s2));
  RefState ref(cfg(kImage, kChunk, s1, s2));
  auto random_range = [&] {
    const Bytes lo = rng.uniform_u64(kImage - 1);
    const Bytes len = 1 + rng.uniform_u64(std::min<Bytes>(kImage - lo, 1500) - 1);
    return ByteRange{lo, lo + len};
  };

  for (int step = 0; step < 600; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const ByteRange req = random_range();
    const double op = rng.uniform_double();
    if (op < 0.35) {
      const auto plan = st.plan_read(req);
      ASSERT_EQ(plan, ref.plan_read(req));
      for (const ByteRange& r : plan) {
        st.apply_fetch(r);
        ref.apply_fetch(r);
      }
    } else if (op < 0.7) {
      const auto plan = st.plan_write(req);
      ASSERT_EQ(plan, ref.plan_write(req));
      for (const ByteRange& r : plan) {
        st.apply_fetch(r);
        ref.apply_fetch(r);
      }
      st.apply_write(req);
      ref.apply_write(req);
    } else if (op < 0.85) {
      // An arbitrary fetch, not planned: may fragment even with strategy 2.
      st.apply_fetch(req);
      ref.apply_fetch(req);
    } else if (op < 0.95) {
      // An unplanned write.
      st.apply_write(req);
      ref.apply_write(req);
    } else {
      const auto plan = st.plan_commit();
      ASSERT_EQ(plan, ref.plan_commit());
      for (const ByteRange& r : plan) {
        st.apply_fetch(r);
        ref.apply_fetch(r);
      }
      st.clear_dirty();
      ref.clear_dirty();
    }
    ASSERT_EQ(st.plan_commit(), ref.plan_commit());
    ASSERT_EQ(st.dirty_chunks(), ref.dirty_chunks());
    ASSERT_EQ(st.mirrored_bytes(), ref.mirrored_bytes());
    ASSERT_EQ(st.dirty_bytes(), ref.dirty_bytes());
    ASSERT_EQ(st.fragment_count(), ref.fragment_count());
    ASSERT_EQ(st.single_region_invariant_holds(),
              ref.single_region_invariant_holds());
    const ByteRange probe = random_range();
    ASSERT_EQ(st.is_mirrored(probe), ref.is_mirrored(probe));
    const std::string blob = st.serialize();
    ASSERT_EQ(blob, ref.serialize());
    auto restored = LocalState::deserialize(blob);
    ASSERT_TRUE(restored.is_ok()) << restored.status().to_string();
    ASSERT_EQ(restored->serialize(), blob);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LocalStateDiffTest,
    ::testing::Combine(::testing::Values(3u, 42u, 2011u),
                       ::testing::Bool(),   // strategy 1
                       ::testing::Bool()),  // strategy 2
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_prefetch" : "_noprefetch") +
             (std::get<2>(info.param) ? "_singleregion" : "_fragments");
    });

std::string from_hex(const std::string& hex) {
  std::string out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

// A MIRRST01 blob written by the per-chunk RangeSet implementation: image
// 950, chunk 100, both strategies off; chunk 1 holds two dirty fragments,
// chunk 3 and 4 are mirrored clean, chunk 5 is fragmented with one dirty
// range, and the short tail chunk 9 is wholly written.
const char kPinnedBlob[] =
    "313054535252494db60300000000000064000000000000000000000000000000"
    "0a00000000000000000000000000000000000000000000000000000000000000"
    "010000000000000002000000000000006e000000000000008200000000000000"
    "9600000000000000a00000000000000002000000000000006e00000000000000"
    "82000000000000009600000000000000a0000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000100000000000000"
    "2c01000000000000900100000000000000000000000000000000000000000000"
    "01000000000000009001000000000000a4010000000000000000000000000000"
    "01000000000000000200000000000000f401000000000000fe01000000000000"
    "080200000000000012020000000000000100000000000000f901000000000000"
    "fb01000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000001000000000000000100000000000000"
    "8403000000000000b60300000000000001000000000000008403000000000000"
    "b603000000000000";

TEST(LocalStateDiff, PinnedBlobRoundTripsByteForByte) {
  const std::string blob = from_hex(kPinnedBlob);
  ASSERT_EQ(blob.size(), 456u);
  auto st = LocalState::deserialize(blob);
  ASSERT_TRUE(st.is_ok()) << st.status().to_string();
  EXPECT_EQ(st->serialize(), blob);
  EXPECT_EQ(st->chunk_count(), 10u);
  EXPECT_EQ(st->fragment_count(), 7u);
  EXPECT_EQ(st->mirrored_bytes(), 220u);
  EXPECT_EQ(st->dirty_bytes(), 82u);
  EXPECT_EQ(st->dirty_chunks(), (std::vector<std::uint64_t>{1, 5, 9}));
  EXPECT_FALSE(st->single_region_invariant_holds());

  // The same history replayed today writes the same bytes.
  LocalState replay(cfg(950, 100, false, false));
  replay.apply_write({110, 130});
  replay.apply_write({150, 160});
  replay.apply_fetch({300, 420});
  replay.apply_fetch({500, 510});
  replay.apply_fetch({520, 530});
  replay.apply_write({505, 507});
  replay.apply_write({900, 950});
  EXPECT_EQ(replay.serialize(), blob);
}

}  // namespace
}  // namespace vmstorm::mirror
