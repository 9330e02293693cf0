// CostLedger through charge_n, the one call the simulator's accounting
// makes: a record's surviving fan-out is charged as `count` identical
// deliveries.
#include "sim/cost.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace ambb {
namespace {

TEST(CostLedger, CountMultipliesBitsAndMessages) {
  CostLedger l({"a", "b"});
  l.charge_n(1, 0, 100, true, 3);
  l.charge_n(1, 1, 50, true, 2);
  l.charge_n(2, 0, 10, true, 1);
  EXPECT_EQ(l.honest_bits_total(), 410u);
  EXPECT_EQ(l.honest_msgs_total(), 6u);
  ASSERT_EQ(l.per_slot().size(), 3u);
  EXPECT_EQ(l.per_slot()[1], 400u);
  EXPECT_EQ(l.per_slot()[2], 10u);
  EXPECT_EQ(l.per_kind()[0], 310u);
  EXPECT_EQ(l.per_kind()[1], 100u);
  EXPECT_EQ(l.adversary_bits_total(), 0u);
}

TEST(CostLedger, ZeroCountChargesNothing) {
  CostLedger l({"a"});
  l.charge_n(5, 0, 100, true, 0);
  l.charge_n(5, 0, 100, false, 0);
  EXPECT_EQ(l.honest_bits_total(), 0u);
  EXPECT_EQ(l.honest_msgs_total(), 0u);
  EXPECT_EQ(l.adversary_bits_total(), 0u);
  EXPECT_TRUE(l.per_slot().empty());  // no slot row was opened
  EXPECT_EQ(l.per_kind()[0], 0u);
}

TEST(CostLedger, AdversaryBitsScaleByCountAndStaySeparate) {
  CostLedger l({"a"});
  l.charge_n(1, 0, 100, false, 4);
  l.charge_n(1, 0, 7, false, 1);
  EXPECT_EQ(l.adversary_bits_total(), 407u);
  EXPECT_EQ(l.honest_bits_total(), 0u);
  EXPECT_EQ(l.honest_msgs_total(), 0u);
  EXPECT_TRUE(l.per_slot().empty());
  EXPECT_EQ(l.per_kind()[0], 0u);
}

TEST(CostLedger, UnknownKindThrows) {
  CostLedger l({"a"});
  EXPECT_THROW(l.charge_n(1, 5, 10, true, 1), CheckError);
  // The kind is checked before the count: an empty fan-out of an
  // unknown kind is still a caller bug.
  EXPECT_THROW(l.charge_n(1, 5, 10, true, 0), CheckError);
}

TEST(CostLedger, KindNamesPreserved) {
  CostLedger l({"x", "y", "z"});
  ASSERT_EQ(l.kind_names().size(), 3u);
  EXPECT_EQ(l.kind_names()[2], "z");
}

}  // namespace
}  // namespace ambb
