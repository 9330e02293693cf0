// The bytes of a string, for tests that hash text.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace ambb {

inline std::span<const std::uint8_t> text_bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

}  // namespace ambb
