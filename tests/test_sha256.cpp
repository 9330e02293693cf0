#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/check.hpp"
#include "text_bytes.hpp"

namespace ambb {
namespace {

// FIPS 180-4 / NIST CAVP test vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(digest_hex(Sha256::hash(text_bytes(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(digest_hex(Sha256::hash(text_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(
      digest_hex(Sha256::hash(text_bytes(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, ExactBlockBoundary) {
  // 64 'a' characters: exercises the padding-into-new-block path.
  EXPECT_EQ(digest_hex(Sha256::hash(text_bytes(std::string(64, 'a')))),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(text_bytes(chunk));
  EXPECT_EQ(digest_hex(h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  std::string msg = "the quick brown fox jumps over the lazy dog";
  Sha256 h;
  for (char c : msg) h.update(text_bytes(std::string(1, c)));
  EXPECT_EQ(h.finalize(), Sha256::hash(text_bytes(msg)));
}

TEST(Sha256, ReuseAfterFinalizeThrows) {
  Sha256 h;
  h.update(text_bytes("x"));
  h.finalize();
  EXPECT_THROW(h.update(text_bytes("y")), CheckError);
  Sha256 h2;
  h2.finalize();
  EXPECT_THROW(h2.finalize(), CheckError);
}

}  // namespace
}  // namespace ambb
