#include "common/hex.hpp"

namespace ambb {

namespace {
constexpr char kDigits[] = "0123456789abcdef";
}  // namespace

std::string to_hex(std::span<const std::uint8_t> bytes) {
  std::string out;
  out.reserve(bytes.size() * 2);
  for (auto b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

}  // namespace ambb
