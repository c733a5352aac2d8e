#include "mirror/local_state.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace vmstorm::mirror {
namespace {

MirrorConfig cfg(Bytes image = 1000, Bytes chunk = 100, bool s1 = true,
                 bool s2 = true) {
  MirrorConfig c;
  c.image_size = image;
  c.chunk_size = chunk;
  c.prefetch_whole_chunks = s1;
  c.single_region_per_chunk = s2;
  return c;
}

TEST(LocalState, ChunkGeometry) {
  LocalState st(cfg(950, 100));
  EXPECT_EQ(st.chunk_count(), 10u);
  EXPECT_EQ(st.chunk_range(0), (ByteRange{0, 100}));
  EXPECT_EQ(st.chunk_range(9), (ByteRange{900, 950}));  // short tail
}

TEST(LocalState, PlanReadFetchesWholeChunks) {
  LocalState st(cfg());
  // Request 50 bytes straddling chunks 1 and 2 -> strategy 1 fetches both
  // chunks entirely.
  auto f = st.plan_read({180, 230});
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0], (ByteRange{100, 200}));
  EXPECT_EQ(f[1], (ByteRange{200, 300}));
}

TEST(LocalState, PlanReadWithoutPrefetchFetchesExactly) {
  LocalState st(cfg(1000, 100, /*s1=*/false));
  auto f = st.plan_read({180, 230});
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0], (ByteRange{180, 200}));
  EXPECT_EQ(f[1], (ByteRange{200, 230}));
}

TEST(LocalState, MirroredReadNeedsNothing) {
  LocalState st(cfg());
  st.apply_fetch({100, 300});
  EXPECT_TRUE(st.plan_read({150, 250}).empty());
  EXPECT_TRUE(st.is_mirrored({100, 300}));
  EXPECT_FALSE(st.is_mirrored({100, 301}));
}

TEST(LocalState, ReadDoesNotRefetchLocallyWrittenData) {
  LocalState st(cfg());
  st.apply_write({120, 150});
  // Chunk 1 partially present from a write: fetching the chunk must skip
  // the locally-written bytes (they are newer than the remote copy).
  auto f = st.plan_read({110, 130});
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0], (ByteRange{100, 120}));
  EXPECT_EQ(f[1], (ByteRange{150, 200}));
}

TEST(LocalState, PlanWriteFillsGap) {
  LocalState st(cfg());
  st.apply_write({110, 120});
  // Second write to the same chunk leaving a gap (120..140).
  auto f = st.plan_write({140, 160});
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0], (ByteRange{120, 140}));
}

TEST(LocalState, PlanWriteNoGapNoFetch) {
  LocalState st(cfg());
  st.apply_write({110, 140});
  EXPECT_TRUE(st.plan_write({130, 160}).empty());  // overlapping extend
  EXPECT_TRUE(st.plan_write({140, 160}).empty());  // adjacent extend
}

TEST(LocalState, PlanWriteFreshChunkNeedsNothing) {
  LocalState st(cfg());
  EXPECT_TRUE(st.plan_write({110, 130}).empty());
}

TEST(LocalState, PlanWriteDisabledStrategyNeverFetches) {
  LocalState st(cfg(1000, 100, true, /*s2=*/false));
  st.apply_write({110, 120});
  EXPECT_TRUE(st.plan_write({140, 160}).empty());
}

TEST(LocalState, WriteBeforeMirroredRegionFillsBackwardGap) {
  LocalState st(cfg());
  st.apply_write({150, 180});
  auto f = st.plan_write({110, 120});
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0], (ByteRange{120, 150}));
}

TEST(LocalState, DirtyTrackingAndCommitPlan) {
  LocalState st(cfg());
  st.apply_write({110, 130});
  st.apply_fetch({300, 400});  // clean chunk 3
  auto dirty = st.dirty_chunks();
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], 1u);
  EXPECT_TRUE(st.is_dirty_chunk(1));
  EXPECT_FALSE(st.is_dirty_chunk(3));
  EXPECT_EQ(st.dirty_bytes(), 20u);

  // Commit must complete chunk 1: fetch [100,110) and [130,200).
  auto plan = st.plan_commit();
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0], (ByteRange{100, 110}));
  EXPECT_EQ(plan[1], (ByteRange{130, 200}));

  for (const auto& r : plan) st.apply_fetch(r);
  st.clear_dirty();
  EXPECT_TRUE(st.dirty_chunks().empty());
  EXPECT_EQ(st.dirty_bytes(), 0u);
  EXPECT_TRUE(st.is_mirrored({100, 200}));
}

TEST(LocalState, WriteSpanningChunksDirtiesAll) {
  LocalState st(cfg());
  st.apply_write({150, 450});
  EXPECT_EQ(st.dirty_chunks(), (std::vector<std::uint64_t>{1, 2, 3, 4}));
}

TEST(LocalState, SerializeRoundTrip) {
  LocalState st(cfg(950, 100, false, true));
  st.apply_write({110, 130});
  st.apply_fetch({300, 420});
  st.apply_write({900, 950});
  auto blob = st.serialize();
  auto restored = LocalState::deserialize(blob);
  ASSERT_TRUE(restored.is_ok());
  EXPECT_EQ(restored->config().image_size, 950u);
  EXPECT_EQ(restored->config().chunk_size, 100u);
  EXPECT_FALSE(restored->config().prefetch_whole_chunks);
  EXPECT_TRUE(restored->config().single_region_per_chunk);
  EXPECT_EQ(restored->mirrored_bytes(), st.mirrored_bytes());
  EXPECT_EQ(restored->dirty_bytes(), st.dirty_bytes());
  EXPECT_EQ(restored->dirty_chunks(), st.dirty_chunks());
  EXPECT_EQ(restored->serialize(), blob);
}

TEST(LocalState, DeserializeRejectsTruncation) {
  LocalState st(cfg());
  auto blob = st.serialize();
  EXPECT_FALSE(LocalState::deserialize("garbage").is_ok());
  EXPECT_FALSE(LocalState::deserialize(blob.substr(0, 16)).is_ok());
  auto trailing = blob + "x";
  // 1-byte tail cannot even be parsed as a u64.
  EXPECT_FALSE(LocalState::deserialize(trailing).is_ok());
}

// A hand-built MIRRST01 blob: header, then one record per chunk.
struct ChunkRecord {
  std::uint64_t dirty = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> mirrored;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> dirty_ranges;
};

struct BlobSpec {
  std::uint64_t image = 1000, chunk = 100, flags = 3, count = 10;
  std::vector<ChunkRecord> chunks = std::vector<ChunkRecord>(10);
};

std::string encode(const BlobSpec& b) {
  std::string out;
  auto put = [&out](std::uint64_t v) {
    out.append(reinterpret_cast<const char*>(&v), 8);
  };
  put(0x4d49525253543031ull);
  put(b.image);
  put(b.chunk);
  put(b.flags);
  put(b.count);
  for (const ChunkRecord& c : b.chunks) {
    put(c.dirty);
    for (const auto* list : {&c.mirrored, &c.dirty_ranges}) {
      put(list->size());
      for (const auto& [lo, hi] : *list) {
        put(lo);
        put(hi);
      }
    }
  }
  return out;
}

TEST(LocalState, DeserializeAcceptsHandBuiltBlob) {
  BlobSpec b;
  b.chunks[1] = {1, {{110, 120}, {150, 160}}, {{115, 120}, {150, 151}}};
  b.chunks[9] = {0, {{900, 1000}}, {}};
  const std::string blob = encode(b);
  auto st = LocalState::deserialize(blob);
  ASSERT_TRUE(st.is_ok()) << st.status().to_string();
  EXPECT_EQ(st->serialize(), blob);
  EXPECT_EQ(st->mirrored_bytes(), 120u);
  EXPECT_EQ(st->dirty_bytes(), 6u);
}

TEST(LocalState, DeserializeRejectsCorruption) {
  struct Case {
    const char* name;
    const char* why;  // expected in the status message
    BlobSpec blob;
  };
  auto with_chunk1 = [](ChunkRecord c) {
    BlobSpec b;
    b.chunks[1] = std::move(c);
    return b;
  };
  BlobSpec huge_chunk;  // two 4 GiB chunks
  huge_chunk.image = 2 * (std::uint64_t{1} << 32);
  huge_chunk.chunk = std::uint64_t{1} << 32;
  huge_chunk.count = 2;
  huge_chunk.chunks.resize(2);
  BlobSpec huge_count;  // 2^40 chunks claimed, none present
  huge_count.image = std::uint64_t{1} << 40;
  huge_count.chunk = 1;
  huge_count.count = std::uint64_t{1} << 40;
  huge_count.chunks.clear();
  BlobSpec bad_flags;
  bad_flags.flags = 4;
  BlobSpec bad_count;
  bad_count.count = 9;
  bad_count.chunks.resize(9);
  const Case cases[] = {
      {"range before its chunk", "outside its chunk",
       with_chunk1({0, {{50, 150}}, {}})},
      {"range past its chunk", "outside its chunk",
       with_chunk1({0, {{150, 201}}, {}})},
      {"empty range", "empty range", with_chunk1({0, {{120, 120}}, {}})},
      {"inverted range", "empty range", with_chunk1({0, {{130, 120}}, {}})},
      {"unordered ranges", "unordered",
       with_chunk1({0, {{150, 160}, {110, 120}}, {}})},
      {"overlapping ranges", "overlapping",
       with_chunk1({0, {{110, 130}, {120, 140}}, {}})},
      {"adjacent ranges", "adjacent",
       with_chunk1({0, {{110, 120}, {120, 130}}, {}})},
      {"dirty range outside the mirrored set", "outside the mirrored set",
       with_chunk1({1, {{110, 120}}, {{115, 125}}})},
      {"dirty range in a mirrored gap", "outside the mirrored set",
       with_chunk1({1, {{110, 120}, {130, 140}}, {{118, 132}}})},
      {"dirty range outside its chunk", "outside its chunk",
       with_chunk1({1, {{100, 200}}, {{190, 210}}})},
      {"unordered dirty ranges", "unordered",
       with_chunk1({1, {{100, 200}}, {{150, 160}, {110, 120}}})},
      {"dirty flag with no dirty ranges", "disagrees",
       with_chunk1({1, {{110, 120}}, {}})},
      {"dirty ranges on a clean chunk", "disagrees",
       with_chunk1({0, {{110, 120}}, {{110, 120}}})},
      {"dirty flag not 0 or 1", "bad dirty flag",
       with_chunk1({2, {{110, 120}}, {{110, 120}}})},
      {"chunk size above UINT32_MAX", "chunk size", huge_chunk},
      {"chunk count beyond the data", "truncated", huge_count},
      {"unknown flag bits", "flag bits", bad_flags},
      {"chunk count mismatch", "chunk count", bad_count},
  };
  for (const Case& c : cases) {
    auto st = LocalState::deserialize(encode(c.blob));
    ASSERT_FALSE(st.is_ok()) << c.name;
    EXPECT_EQ(st.status().code(), StatusCode::kCorruption) << c.name;
    EXPECT_NE(st.status().message().find(c.why), std::string::npos)
        << c.name << ": " << st.status().to_string();
  }
}

// The §3.3 guarantee: with strategy 2, fragmentation is bounded by one
// region per chunk, for ANY access sequence (fetches executed as planned).
class MirrorInvariantTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool, bool>> {};

TEST_P(MirrorInvariantTest, RandomOpsRespectInvariants) {
  const auto [seed, s1, s2] = GetParam();
  Rng rng(seed);
  const Bytes kImage = 10000, kChunk = 500;
  LocalState st(cfg(kImage, kChunk, s1, s2));
  RangeSet mirrored_model;

  for (int step = 0; step < 400; ++step) {
    Bytes lo = rng.uniform_u64(kImage - 1);
    Bytes hi = lo + 1 + rng.uniform_u64(std::min<Bytes>(kImage - lo, 1200) - 1);
    ByteRange req{lo, hi};
    if (rng.bernoulli(0.5)) {
      auto plan = st.plan_read(req);
      for (const auto& r : plan) {
        // Planned fetches never overlap already-mirrored data.
        ASSERT_FALSE(mirrored_model.overlaps(r)) << r.to_string();
        st.apply_fetch(r);
        mirrored_model.insert(r);
      }
      // After the fetches, the request is fully mirrored.
      ASSERT_TRUE(st.is_mirrored(req));
    } else {
      auto plan = st.plan_write(req);
      for (const auto& r : plan) {
        ASSERT_FALSE(mirrored_model.overlaps(r));
        // Gap fills never cover the write itself.
        ASSERT_FALSE(r.overlaps(req));
        st.apply_fetch(r);
        mirrored_model.insert(r);
      }
      st.apply_write(req);
      mirrored_model.insert(req);
    }
    if (s2) {
      ASSERT_TRUE(st.single_region_invariant_holds()) << "step " << step;
      ASSERT_LE(st.fragment_count(), st.chunk_count());
    }
    ASSERT_EQ(st.mirrored_bytes(), mirrored_model.total_bytes());
  }

  // COMMIT completes all dirty chunks.
  for (const auto& r : st.plan_commit()) st.apply_fetch(r);
  for (std::uint64_t ci : st.dirty_chunks()) {
    ASSERT_TRUE(st.is_mirrored(st.chunk_range(ci)));
  }
  st.clear_dirty();
  EXPECT_TRUE(st.dirty_chunks().empty());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MirrorInvariantTest,
    ::testing::Combine(::testing::Values(1u, 7u, 2011u),
                       ::testing::Bool(),   // strategy 1
                       ::testing::Bool()),  // strategy 2
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_prefetch" : "_noprefetch") +
             (std::get<2>(info.param) ? "_singleregion" : "_fragments");
    });

}  // namespace
}  // namespace vmstorm::mirror
