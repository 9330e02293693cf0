#include "common/hex.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace ambb {
namespace {

TEST(Hex, LowercaseTwoDigitsPerByte) {
  std::vector<std::uint8_t> data{0x00, 0xFF, 0x12, 0xAB};
  EXPECT_EQ(to_hex(data), "00ff12ab");
}

TEST(Hex, EmptyInputIsEmptyString) {
  EXPECT_EQ(to_hex(std::span<const std::uint8_t>{}), "");
}

}  // namespace
}  // namespace ambb
