#include "crypto/signer.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "text_bytes.hpp"

namespace ambb {
namespace {

Digest d(const std::string& s) { return Sha256::hash(text_bytes(s)); }

TEST(Signer, SignVerifyRoundTrip) {
  KeyRegistry reg(8, 1);
  for (NodeId i = 0; i < 8; ++i) {
    Signature sig = reg.sign(i, d("hello"));
    EXPECT_EQ(sig.signer, i);
    EXPECT_TRUE(reg.verify(sig, d("hello")));
  }
}

TEST(Signer, WrongDigestFails) {
  KeyRegistry reg(4, 1);
  Signature sig = reg.sign(0, d("a"));
  EXPECT_FALSE(reg.verify(sig, d("b")));
}

TEST(Signer, SignerSpoofFails) {
  KeyRegistry reg(4, 1);
  Signature sig = reg.sign(0, d("a"));
  sig.signer = 1;  // claim someone else signed it
  EXPECT_FALSE(reg.verify(sig, d("a")));
}

TEST(Signer, TamperedMacFails) {
  KeyRegistry reg(4, 1);
  Signature sig = reg.sign(0, d("a"));
  sig.mac[0] ^= 1;
  EXPECT_FALSE(reg.verify(sig, d("a")));
}

TEST(Signer, OutOfRangeSignerRejected) {
  KeyRegistry reg(4, 1);
  Signature sig = reg.sign(0, d("a"));
  sig.signer = 99;
  EXPECT_FALSE(reg.verify(sig, d("a")));
  EXPECT_THROW(reg.sign(4, d("a")), CheckError);
}

TEST(Signer, CrossRegistrySignaturesInvalid) {
  KeyRegistry reg1(4, 1), reg2(4, 2);
  Signature sig = reg1.sign(0, d("a"));
  EXPECT_FALSE(reg2.verify(sig, d("a")));
}

TEST(Signer, DeterministicAcrossInstances) {
  KeyRegistry reg1(4, 7), reg2(4, 7);
  EXPECT_EQ(reg1.sign(2, d("x")).mac, reg2.sign(2, d("x")).mac);
}

TEST(Signer, DomainsAreSeparated) {
  KeyRegistry reg(4, 1);
  EXPECT_NE(reg.mac_as(0, "dom1", d("m")), reg.mac_as(0, "dom2", d("m")));
  EXPECT_NE(reg.master_mac("dom1", d("m")), reg.master_mac("dom2", d("m")));
}

TEST(Signer, NodesHaveDistinctKeys) {
  KeyRegistry reg(4, 1);
  EXPECT_NE(reg.sign(0, d("m")).mac, reg.sign(1, d("m")).mac);
}

}  // namespace
}  // namespace ambb
