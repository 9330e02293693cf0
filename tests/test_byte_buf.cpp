#include "common/byte_buf.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace ambb {
namespace {

TEST(Encoder, WidthsAreExact) {
  Encoder e;
  e.put_u8(1);
  EXPECT_EQ(e.view().size(), 1u);
  e.put_u16(1);
  EXPECT_EQ(e.view().size(), 3u);
  e.put_u32(1);
  EXPECT_EQ(e.view().size(), 7u);
  e.put_u64(1);
  EXPECT_EQ(e.view().size(), 15u);
}

TEST(Encoder, BigEndianBytesAreExact) {
  // Every signing digest hashes these bytes, so the layout is pinned
  // byte for byte: widths, order and big-endianness.
  Encoder e;
  e.put_u8(0xAB);
  e.put_u16(0x1234);
  e.put_u32(0xDEADBEEF);
  e.put_u64(0x0123456789ABCDEFull);
  EXPECT_EQ(e.bytes(),
            std::vector<std::uint8_t>({0xAB,                    // u8
                                       0x12, 0x34,              // u16
                                       0xDE, 0xAD, 0xBE, 0xEF,  // u32
                                       0x01, 0x23, 0x45, 0x67,  // u64
                                       0x89, 0xAB, 0xCD, 0xEF}));
}

TEST(Encoder, TagsAreLengthPrefixed) {
  // "ab" + "c" must differ from "a" + "bc".
  Encoder e1, e2;
  e1.put_tag("ab");
  e1.put_tag("c");
  e2.put_tag("a");
  e2.put_tag("bc");
  EXPECT_NE(e1.bytes(), e2.bytes());
  EXPECT_EQ(e1.bytes(),
            std::vector<std::uint8_t>({0x00, 0x02, 'a', 'b', 0x00, 0x01, 'c'}));
}

TEST(Encoder, BytesAppended) {
  Encoder e;
  e.put_u8(1);
  const std::uint8_t data[3] = {9, 8, 7};
  e.put_bytes(std::span<const std::uint8_t>(data, 3));
  e.put_bytes(std::span<const std::uint8_t>());  // empty span: no bytes
  EXPECT_EQ(e.bytes(), std::vector<std::uint8_t>({1, 9, 8, 7}));
  EXPECT_EQ(e.view().size(), 4u);
}

TEST(Encoder, PutU16CheckedRejectsWideValues) {
  Encoder e;
  e.put_u16_checked(0xFFFF);  // max fits
  EXPECT_EQ(e.view().size(), 2u);
  EXPECT_THROW(e.put_u16_checked(0x10000), CheckError);
  EXPECT_THROW(e.put_u16_checked(std::uint64_t{1} << 40), CheckError);
}

TEST(Encoder, ScratchReacquireMidEncodeThrows) {
  Encoder& e = Encoder::scratch();
  e.put_u8(1);
  // Nested acquisition used to silently clear the outer encoding; the
  // busy flag turns that corruption into a diagnostic.
  EXPECT_THROW(Encoder::scratch(), CheckError);
  // The outer encoding is untouched and still consumable.
  EXPECT_EQ(e.view().size(), 1u);
  // view() released the guard: re-acquisition is legal again and clears.
  Encoder& e2 = Encoder::scratch();
  EXPECT_TRUE(e2.view().empty());
  e2.clear();  // release for later tests on this thread
}

TEST(Encoder, ScratchClearReleasesGuard) {
  Encoder& e = Encoder::scratch();
  e.put_u16(7);
  e.clear();  // abandoned encoding
  Encoder& e2 = Encoder::scratch();
  e2.put_u16(8);
  EXPECT_EQ(e2.bytes().size(), 2u);  // bytes() also releases
  EXPECT_NO_THROW(Encoder::scratch());
  e2.clear();  // same thread_local instance; release for later tests
}

}  // namespace
}  // namespace ambb
