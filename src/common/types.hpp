// Core scalar types and protocol-wide constants shared by every module.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

namespace ambb {

/// Index of a node in [0, n). The paper numbers nodes 1..n; we use 0..n-1.
using NodeId = std::uint32_t;

/// Broadcast slot number, k >= 1 in the paper. Slot 0 is never used.
using Slot = std::uint32_t;

/// Epoch within a slot, 0 <= i <= f+1 (Algorithm 4).
using Epoch = std::uint32_t;

/// Global lock-step round counter.
using Round = std::uint64_t;

/// Sentinel for "no node".
inline constexpr NodeId kNoNode = std::numeric_limits<NodeId>::max();

/// Security parameter: width in bits of a hash / signature / signature
/// share / combined threshold signature. The paper calls this kappa.
inline constexpr std::uint32_t kDefaultKappaBits = 256;

/// Width in bits of a broadcast value ("constant-sized inputs" in Table 1).
inline constexpr std::uint32_t kDefaultValueBits = 256;

/// Broadcast value. Constant-size payload; the wire size charged for a
/// value is params.value_bits, independent of this in-memory carrier.
using Value = std::uint64_t;

/// Sentinel broadcast value representing bottom (no value / commit-bot).
inline constexpr Value kBotValue = std::numeric_limits<Value>::max();

/// floor(frac * n) for a fraction frac >= 0, with frac first snapped to
/// the nearest 1e-9 so the floor is exact integer arithmetic. The plain
/// double product truncates float noise: (0.5 - 0.15) * 180 evaluates to
/// 62.99999999999999, not 63.
inline std::uint32_t floor_frac(double frac, std::uint32_t n) {
  const auto num = static_cast<std::uint64_t>(std::llround(frac * 1e9));
  return static_cast<std::uint32_t>(num * n / 1000000000ULL);
}

}  // namespace ambb
