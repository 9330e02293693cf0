#include "common/bitvec.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <utility>
#include <vector>

namespace ambb {
namespace {

TEST(BitVec, StartsCleared) {
  BitVec b(100);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(b.count(), 0u);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_FALSE(b.get(i));
}

TEST(BitVec, ConstructAllSetTrimsTail) {
  BitVec b(70, true);
  EXPECT_EQ(b.count(), 70u);
  EXPECT_TRUE(b.get(69));
}

TEST(BitVec, SetGetReset) {
  BitVec b(65);
  b.set(0);
  b.set(64);
  EXPECT_TRUE(b.get(0));
  EXPECT_TRUE(b.get(64));
  EXPECT_EQ(b.count(), 2u);
  b.set(64, false);
  EXPECT_FALSE(b.get(64));
  EXPECT_EQ(b.count(), 1u);
}

TEST(BitVec, OutOfRangeThrows) {
  BitVec b(10);
  EXPECT_THROW(b.get(10), CheckError);
  EXPECT_THROW(b.set(10), CheckError);
}

TEST(BitVec, OnesListsAscendingIndices) {
  BitVec b(130);
  b.set(3);
  b.set(64);
  b.set(129);
  auto ones = b.ones();
  ASSERT_EQ(ones.size(), 3u);
  EXPECT_EQ(ones[0], 3u);
  EXPECT_EQ(ones[1], 64u);
  EXPECT_EQ(ones[2], 129u);
}

TEST(BitVec, ClearAllKeepsSize) {
  BitVec b(77, true);
  ASSERT_EQ(b.count(), 77u);
  b.clear_all();
  EXPECT_EQ(b.count(), 0u);
  EXPECT_EQ(b.size(), 77u);
  b.set(76);
  EXPECT_EQ(b.count(), 1u);
}

TEST(BitVec, EqualityComparesContent) {
  BitVec a(20), b(20);
  EXPECT_EQ(a, b);
  a.set(5);
  EXPECT_NE(a, b);
  b.set(5);
  EXPECT_EQ(a, b);
}

// BitMatrix at n x n: 70 leaves a partial word at the end of every row,
// 128 fills whole words, 129 spills one bit into a third word.
class BitMatrixSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitMatrixSizes, StartsCleared) {
  const std::size_t n = GetParam();
  const BitMatrix m(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    EXPECT_EQ(m.row_count(r), 0u);
    for (std::size_t c = 0; c < n; ++c) EXPECT_FALSE(m.get(r, c));
  }
}

TEST_P(BitMatrixSizes, SetTouchesOneBitAcrossWordAndRowBoundaries) {
  const std::size_t n = GetParam();
  // Each row's first and last column, and both sides of every word
  // boundary inside a row; in the first, second and last rows.
  std::vector<std::size_t> cols = {0, n - 1};
  for (std::size_t c = 64; c < n; c += 64) {
    cols.push_back(c - 1);
    cols.push_back(c);
  }
  for (std::size_t r : {std::size_t{0}, std::size_t{1}, n - 1}) {
    for (std::size_t c : cols) {
      BitMatrix m(n, n);
      m.set(r, c);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(m.row_count(i), i == r ? 1u : 0u) << r << "," << c;
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_EQ(m.get(i, j), i == r && j == c)
              << "set (" << r << "," << c << "), read (" << i << "," << j
              << ")";
        }
      }
    }
  }
}

TEST_P(BitMatrixSizes, RowCountContainsAndClearAll) {
  const std::size_t n = GetParam();
  BitMatrix big(n, n), small(n, n);
  for (std::size_t c = 0; c < n; c += 3) big.set(1, c);
  small.set(1, 0);
  small.set(1, n - 1 - (n - 1) % 3);
  small.set(2, 5);
  EXPECT_EQ(big.row_count(1), (n + 2) / 3);
  EXPECT_EQ(small.row_count(1), 2u);
  EXPECT_TRUE(big.row_contains(1, small));
  EXPECT_FALSE(small.row_contains(1, big));
  EXPECT_TRUE(big.row_contains(0, small));  // both rows empty
  EXPECT_FALSE(big.row_contains(2, small));
  EXPECT_TRUE(small.row_contains(2, big));
  small.set(1, 1);  // not in big's row 1
  EXPECT_FALSE(big.row_contains(1, small));

  big.clear_all();
  for (std::size_t r = 0; r < n; ++r) EXPECT_EQ(big.row_count(r), 0u);
  EXPECT_FALSE(big.get(1, 0));
  big.set(n - 1, n - 1);  // still n x n after the clear
  EXPECT_TRUE(big.get(n - 1, n - 1));
  EXPECT_EQ(big.row_count(n - 1), 1u);
}

TEST_P(BitMatrixSizes, OutOfRangeThrows) {
  const std::size_t n = GetParam();
  BitMatrix m(n, n);
  // A column past the row's end would otherwise read or write the row's
  // padding bits or the next row.
  for (const auto& [r, c] : {std::pair{n, std::size_t{0}},
                             std::pair{std::size_t{0}, n},
                             std::pair{n - 1, n},
                             std::pair{std::size_t{0}, n + 64}}) {
    EXPECT_THROW(m.get(r, c), CheckError) << r << "," << c;
    EXPECT_THROW(m.set(r, c), CheckError) << r << "," << c;
  }
  EXPECT_THROW(m.row_count(n), CheckError);
  EXPECT_THROW(m.row_contains(n, m), CheckError);
  const BitMatrix other(n, n + 1);
  EXPECT_THROW(m.row_contains(0, other), CheckError);
  for (std::size_t r = 0; r < n; ++r) EXPECT_EQ(m.row_count(r), 0u);
}

INSTANTIATE_TEST_SUITE_P(Square, BitMatrixSizes,
                         ::testing::Values(std::size_t{70}, std::size_t{128},
                                           std::size_t{129}));

}  // namespace
}  // namespace ambb
