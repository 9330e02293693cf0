#include "crypto/threshold.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "text_bytes.hpp"

namespace ambb {
namespace {

Digest d(const std::string& s) { return Sha256::hash(text_bytes(s)); }

class ThresholdTest : public ::testing::Test {
 protected:
  KeyRegistry reg{7, 11};
  ThresholdScheme th{reg, 4};  // (4, 7) threshold
};

TEST_F(ThresholdTest, ShareVerifies) {
  SigShare s = th.share(3, d("m"));
  EXPECT_TRUE(th.verify_share(s, d("m")));
  EXPECT_FALSE(th.verify_share(s, d("other")));
}

TEST_F(ThresholdTest, ShareSpoofFails) {
  SigShare s = th.share(3, d("m"));
  s.signer = 4;
  EXPECT_FALSE(th.verify_share(s, d("m")));
}

TEST_F(ThresholdTest, CombineWithQuorumVerifies) {
  std::vector<SigShare> shares;
  for (NodeId i = 0; i < 4; ++i) shares.push_back(th.share(i, d("m")));
  ThresholdSig sig = th.combine(shares, d("m"));
  EXPECT_TRUE(th.verify(sig, d("m")));
  EXPECT_FALSE(th.verify(sig, d("other")));
}

TEST_F(ThresholdTest, CombineBelowThresholdThrows) {
  std::vector<SigShare> shares;
  for (NodeId i = 0; i < 3; ++i) shares.push_back(th.share(i, d("m")));
  EXPECT_THROW(th.combine(shares, d("m")), CheckError);
}

TEST_F(ThresholdTest, DuplicateSharesDoNotCount) {
  std::vector<SigShare> shares;
  for (int i = 0; i < 5; ++i) shares.push_back(th.share(0, d("m")));
  EXPECT_THROW(th.combine(shares, d("m")), CheckError);
}

TEST_F(ThresholdTest, InvalidShareInCombineThrows) {
  std::vector<SigShare> shares;
  for (NodeId i = 0; i < 4; ++i) shares.push_back(th.share(i, d("m")));
  shares[2].mac[0] ^= 1;
  EXPECT_THROW(th.combine(shares, d("m")), CheckError);
}

TEST_F(ThresholdTest, CombinedSigIndependentOfShareSet) {
  std::vector<SigShare> a, b;
  for (NodeId i = 0; i < 4; ++i) a.push_back(th.share(i, d("m")));
  for (NodeId i = 3; i < 7; ++i) b.push_back(th.share(i, d("m")));
  EXPECT_EQ(th.combine(a, d("m")), th.combine(b, d("m")));
}

TEST_F(ThresholdTest, MoreThanThresholdAlsoCombines) {
  std::vector<SigShare> shares;
  for (NodeId i = 0; i < 7; ++i) shares.push_back(th.share(i, d("m")));
  EXPECT_TRUE(th.verify(th.combine(shares, d("m")), d("m")));
}

TEST(Threshold, ThresholdBoundsChecked) {
  KeyRegistry reg(5, 1);
  EXPECT_THROW(ThresholdScheme(reg, 0), CheckError);
  EXPECT_THROW(ThresholdScheme(reg, 6), CheckError);
  EXPECT_NO_THROW(ThresholdScheme(reg, 5));
}

TEST(Threshold, SchemesWithDifferentRegistriesDisagree) {
  KeyRegistry r1(4, 1), r2(4, 2);
  ThresholdScheme t1(r1, 2), t2(r2, 2);
  std::vector<SigShare> shares{t1.share(0, d("m")), t1.share(1, d("m"))};
  ThresholdSig sig = t1.combine(shares, d("m"));
  EXPECT_FALSE(t2.verify(sig, d("m")));
}

}  // namespace
}  // namespace ambb
