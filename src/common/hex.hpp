// Hex formatting of byte strings (digest_hex prints digests with it).
#pragma once

#include <cstdint>
#include <span>
#include <string>

namespace ambb {

std::string to_hex(std::span<const std::uint8_t> bytes);

}  // namespace ambb
