// Strict number parsing shared by every text front end: the spec-file
// parser, the sched: grammar, net policies and the tools' flags.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

namespace ambb {

/// Base-10 digits only: no sign, no whitespace, no empty string. nullopt
/// when `s` is not such a string or its value does not fit in T. Unlike
/// std::istringstream, which reads "-1" into an unsigned type as its
/// maximum value without setting fail(), this never wraps.
template <class T = std::uint64_t>
std::optional<T> parse_uint(std::string_view s) {
  static_assert(std::is_unsigned_v<T> && !std::is_same_v<T, bool>);
  constexpr std::uint64_t kMax = std::numeric_limits<T>::max();
  if (s.empty()) return std::nullopt;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto d = static_cast<std::uint64_t>(c - '0');
    if (v > (kMax - d) / 10) return std::nullopt;
    v = v * 10 + d;
  }
  return static_cast<T>(v);
}

/// The linear family's expander parameter: a whole decimal token in the
/// open interval (0, 0.5); nullopt otherwise ("-0.2", "0.5", "nan").
inline std::optional<double> parse_eps(std::string_view s) {
  const std::string tok(s);
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (tok.empty() || *end != '\0' || !(v > 0.0 && v < 0.5)) {
    return std::nullopt;
  }
  return v;
}

}  // namespace ambb
