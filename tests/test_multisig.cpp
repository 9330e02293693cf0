#include "crypto/multisig.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "text_bytes.hpp"

namespace ambb {
namespace {

Digest d(const std::string& s) { return Sha256::hash(text_bytes(s)); }

class MultiSigTest : public ::testing::Test {
 protected:
  KeyRegistry reg{6, 5};
  MultiSigScheme ms{reg};
};

TEST_F(MultiSigTest, EmptyAggregateVerifies) {
  EXPECT_TRUE(ms.verify(ms.empty(), d("m")));
  EXPECT_EQ(ms.empty().signer_count(), 0u);
}

TEST_F(MultiSigTest, SingleSignerVerifies) {
  MultiSig sig = ms.extend(ms.empty(), 2, d("m"));
  EXPECT_EQ(sig.signer_count(), 1u);
  EXPECT_TRUE(ms.verify(sig, d("m")));
  EXPECT_FALSE(ms.verify(sig, d("other")));
}

TEST_F(MultiSigTest, AggregationIsOrderIndependent) {
  MultiSig a = ms.extend(ms.extend(ms.empty(), 0, d("m")), 3, d("m"));
  MultiSig b = ms.extend(ms.extend(ms.empty(), 3, d("m")), 0, d("m"));
  EXPECT_EQ(a.agg, b.agg);
  EXPECT_EQ(a.signers, b.signers);
}

TEST_F(MultiSigTest, DoubleExtendThrows) {
  MultiSig sig = ms.extend(ms.empty(), 1, d("m"));
  EXPECT_THROW(ms.extend(sig, 1, d("m")), CheckError);
}

TEST_F(MultiSigTest, BitmapSpoofFails) {
  MultiSig sig = ms.extend(ms.empty(), 1, d("m"));
  sig.signers.set(2);  // claim node 2 also signed
  EXPECT_FALSE(ms.verify(sig, d("m")));
}

TEST_F(MultiSigTest, TamperedAggregateFails) {
  MultiSig sig = ms.extend(ms.empty(), 1, d("m"));
  sig.agg[5] ^= 0x10;
  EXPECT_FALSE(ms.verify(sig, d("m")));
}

TEST_F(MultiSigTest, FullQuorumVerifies) {
  MultiSig sig = ms.empty();
  for (NodeId i = 0; i < 6; ++i) sig = ms.extend(sig, i, d("m"));
  EXPECT_EQ(sig.signer_count(), 6u);
  EXPECT_TRUE(ms.verify(sig, d("m")));
}

TEST_F(MultiSigTest, WrongBitmapSizeRejected) {
  MultiSig sig;
  sig.signers = BitVec(5);  // wrong n
  EXPECT_FALSE(ms.verify(sig, d("m")));
}

}  // namespace
}  // namespace ambb
