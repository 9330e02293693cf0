#include "common/bitvec.hpp"

#include <gtest/gtest.h>

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

TEST(BitVec, ContainsSubset) {
  BitVec big(50), small(50);
  big.set(1);
  big.set(2);
  big.set(3);
  small.set(2);
  EXPECT_TRUE(big.contains(small));
  EXPECT_FALSE(small.contains(big));
  EXPECT_TRUE(big.contains(big));
}

TEST(BitVec, ContainsSizeMismatchThrows) {
  BitVec a(10), b(11);
  EXPECT_THROW(a.contains(b), CheckError);
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

}  // namespace
}  // namespace ambb
