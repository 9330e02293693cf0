#include "crypto/hmac.hpp"

#include <gtest/gtest.h>

#include "common/hex.hpp"
#include "text_bytes.hpp"

namespace ambb {
namespace {

Digest run_hmac(const std::vector<std::uint8_t>& key,
                const std::vector<std::uint8_t>& msg) {
  return hmac_sha256(std::span<const std::uint8_t>(key),
                     std::span<const std::uint8_t>(msg));
}

std::string hexd(const Digest& d) {
  return to_hex(std::span<const std::uint8_t>(d.data(), d.size()));
}

// RFC 4231 test cases.
TEST(Hmac, Rfc4231Case1) {
  std::vector<std::uint8_t> key(20, 0x0b);
  std::vector<std::uint8_t> msg{'H', 'i', ' ', 'T', 'h', 'e', 'r', 'e'};
  EXPECT_EQ(hexd(run_hmac(key, msg)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  std::vector<std::uint8_t> key{'J', 'e', 'f', 'e'};
  std::string m = "what do ya want for nothing?";
  std::vector<std::uint8_t> msg(m.begin(), m.end());
  EXPECT_EQ(hexd(run_hmac(key, msg)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  std::vector<std::uint8_t> key(20, 0xaa);
  std::vector<std::uint8_t> msg(50, 0xdd);
  EXPECT_EQ(hexd(run_hmac(key, msg)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  // Key longer than the block size: must be hashed first.
  std::vector<std::uint8_t> key(131, 0xaa);
  std::string m = "Test Using Larger Than Block-Size Key - Hash Key First";
  std::vector<std::uint8_t> msg(m.begin(), m.end());
  EXPECT_EQ(hexd(run_hmac(key, msg)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, KeySensitivity) {
  Digest k1 = Sha256::hash(text_bytes("k1"));
  Digest k2 = Sha256::hash(text_bytes("k2"));
  Digest m = Sha256::hash(text_bytes("m"));
  EXPECT_NE(hmac_sha256(k1, m), hmac_sha256(k2, m));
}

TEST(Hmac, MessageSensitivity) {
  Digest k = Sha256::hash(text_bytes("k"));
  Digest m1 = Sha256::hash(text_bytes("m1"));
  Digest m2 = Sha256::hash(text_bytes("m2"));
  EXPECT_NE(hmac_sha256(k, m1), hmac_sha256(k, m2));
}

TEST(Hmac, MidstateResumeMatchesOneShot) {
  // Resuming SHA-256 from a block-boundary midstate is equivalent to
  // hashing the concatenation in one pass.
  std::vector<std::uint8_t> prefix(64, 0x42);
  std::vector<std::uint8_t> tail(37, 0x17);

  Sha256 a;
  a.update(std::span<const std::uint8_t>(prefix));
  const Sha256Midstate mid = a.midstate();

  Sha256 resumed(mid);
  resumed.update(std::span<const std::uint8_t>(tail));

  std::vector<std::uint8_t> all = prefix;
  all.insert(all.end(), tail.begin(), tail.end());
  EXPECT_EQ(resumed.finalize(),
            Sha256::hash(std::span<const std::uint8_t>(all)));
}

}  // namespace
}  // namespace ambb
