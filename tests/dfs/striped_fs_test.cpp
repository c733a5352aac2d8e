#include "dfs/striped_fs.hpp"

#include <gtest/gtest.h>

#include "blob/chunk.hpp"

namespace vmstorm::dfs {
namespace {

std::vector<std::byte> make_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = blob::pattern_byte(seed, i);
  return v;
}

TEST(StripedFs, CreateOpenRemove) {
  StripedFs fs(4, 100);
  auto id = fs.create("img");
  ASSERT_TRUE(id.is_ok());
  EXPECT_EQ(fs.open("img").value(), *id);
  EXPECT_EQ(fs.create("img").status().code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(fs.remove("img").is_ok());
  EXPECT_FALSE(fs.open("img").is_ok());
  EXPECT_EQ(fs.remove("img").code(), StatusCode::kNotFound);
  EXPECT_EQ(fs.file_count(), 0u);
}

TEST(StripedFs, WriteReadRoundTrip) {
  StripedFs fs(3, 100);
  FileId f = fs.create("a").value();
  auto data = make_bytes(450, 7);
  ASSERT_TRUE(fs.write(f, 25, data).is_ok());
  EXPECT_EQ(fs.stat(f)->size, 475u);
  std::vector<std::byte> out(450);
  ASSERT_TRUE(fs.read(f, 25, out).is_ok());
  EXPECT_EQ(out, data);
}

TEST(StripedFs, HolesReadAsZeros) {
  StripedFs fs(2, 100);
  FileId f = fs.create("a").value();
  auto data = make_bytes(10, 1);
  ASSERT_TRUE(fs.write(f, 300, data).is_ok());
  std::vector<std::byte> out(100);
  ASSERT_TRUE(fs.read(f, 0, out).is_ok());
  for (std::byte b : out) EXPECT_EQ(b, std::byte{0});
}

TEST(StripedFs, ReadPastEofFails) {
  StripedFs fs(2, 100);
  FileId f = fs.create("a").value();
  ASSERT_TRUE(fs.write(f, 0, make_bytes(50, 1)).is_ok());
  std::vector<std::byte> out(100);
  EXPECT_EQ(fs.read(f, 0, out).code(), StatusCode::kOutOfRange);
}

TEST(StripedFs, RoundRobinLayout) {
  StripedFs fs(3, 100);
  FileId f = fs.create("a").value();
  ASSERT_TRUE(fs.write_pattern(f, 0, 1000, 1).is_ok());
  auto layout = fs.layout(f, 0, 1000);
  ASSERT_TRUE(layout.is_ok());
  ASSERT_EQ(layout->size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ((*layout)[i].stripe_index, i);
    EXPECT_EQ((*layout)[i].server, i % 3);
    EXPECT_EQ((*layout)[i].length, 100u);
  }
}

TEST(StripedFs, LayoutPartialPieces) {
  StripedFs fs(2, 100);
  FileId f = fs.create("a").value();
  auto layout = fs.layout(f, 150, 100);
  ASSERT_TRUE(layout.is_ok());
  ASSERT_EQ(layout->size(), 2u);
  EXPECT_EQ((*layout)[0].offset_in_stripe, 50u);
  EXPECT_EQ((*layout)[0].length, 50u);
  EXPECT_EQ((*layout)[1].offset_in_stripe, 0u);
  EXPECT_EQ((*layout)[1].length, 50u);
}

TEST(StripedFs, WritePatternMatchesExplicit) {
  StripedFs fs(4, 128);
  FileId f = fs.create("a").value();
  ASSERT_TRUE(fs.write_pattern(f, 50, 1000, 9).is_ok());
  std::vector<std::byte> out(1000);
  ASSERT_TRUE(fs.read(f, 50, out).is_ok());
  for (std::size_t i = 0; i < 1000; ++i) {
    ASSERT_EQ(out[i], blob::pattern_byte(9, 50 + i)) << i;
  }
}

TEST(StripedFs, WritePatternTailStripeStaysSynthetic) {
  StripedFs fs(4, 128);
  FileId f = fs.create("snap").value();
  // 7 full stripes and a 104-byte tail, as a snapshot copy ends.
  ASSERT_TRUE(fs.write_pattern(f, 0, 1000, 9).is_ok());
  std::vector<std::byte> out(1000);
  ASSERT_TRUE(fs.read(f, 0, out).is_ok());
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], blob::pattern_byte(9, i)) << i;
  }
  EXPECT_EQ(fs.stored_bytes(), 1000u);
  EXPECT_EQ(fs.resident_bytes(), 0u);
  // A longer rewrite of the tail replaces it, still synthetic.
  ASSERT_TRUE(fs.write_pattern(f, 896, 120, 4).is_ok());
  EXPECT_EQ(fs.resident_bytes(), 0u);
  EXPECT_EQ(fs.stored_bytes(), 1016u);
}

TEST(StripedFs, WritePatternPartialOverwriteKeepsTheRest) {
  StripedFs fs(4, 128);
  FileId f = fs.create("a").value();
  ASSERT_TRUE(fs.write_pattern(f, 0, 200, 1).is_ok());  // tail [128, 200)
  EXPECT_EQ(fs.resident_bytes(), 0u);
  // Shorter than the tail it starts: the stripe's last bytes must survive.
  ASSERT_TRUE(fs.write_pattern(f, 128, 30, 2).is_ok());
  std::vector<std::byte> out(72);
  ASSERT_TRUE(fs.read(f, 128, out).is_ok());
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], blob::pattern_byte(i < 30 ? 2 : 1, 128 + i)) << i;
  }
  EXPECT_EQ(fs.resident_bytes(), 72u);
}

TEST(StripedFs, StorageEvenlyDistributed) {
  StripedFs fs(5, 256);
  FileId f = fs.create("big").value();
  ASSERT_TRUE(fs.write_pattern(f, 0, 256 * 100, 1).is_ok());
  for (ServerId s = 0; s < 5; ++s) {
    EXPECT_EQ(fs.stored_bytes_on(s), 256u * 20);
  }
  EXPECT_EQ(fs.stored_bytes(), 256u * 100);
}

TEST(StripedFs, UnknownFileErrors) {
  StripedFs fs(2, 100);
  std::vector<std::byte> buf(10);
  EXPECT_EQ(fs.read(99, 0, buf).code(), StatusCode::kNotFound);
  EXPECT_EQ(fs.write(99, 0, buf).code(), StatusCode::kNotFound);
  EXPECT_FALSE(fs.stat(99).is_ok());
  EXPECT_FALSE(fs.layout(99, 0, 10).is_ok());
}

}  // namespace
}  // namespace vmstorm::dfs
