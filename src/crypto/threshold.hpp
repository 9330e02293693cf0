// Simulated (t, n)-threshold signature scheme (Boldyreva-style interface).
//
// A share on digest d by node i is HMAC(sk_i, "thshare"||d). Combining t
// distinct valid shares yields the combined signature HMAC(master, "th"||d)
// which is a single kappa-bit object — the paper's size assumption. The
// combiner enforces the threshold, modeling the cryptographic guarantee
// that fewer than t shares reveal nothing about the combined signature.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "crypto/signer.hpp"

namespace ambb {

struct SigShare {
  NodeId signer = kNoNode;
  Digest mac{};

  bool operator==(const SigShare&) const = default;
};

struct ThresholdSig {
  Digest mac{};

  bool operator==(const ThresholdSig&) const = default;
};

class ThresholdScheme {
 public:
  /// threshold t out of registry.n() nodes (the paper uses t = n - f).
  ThresholdScheme(const KeyRegistry& registry, std::uint32_t t);


  SigShare share(NodeId signer, const Digest& d) const;
  bool verify_share(const SigShare& s, const Digest& d) const;

  /// Combine shares into the full signature. Requires >= t distinct valid
  /// shares on d; throws CheckError otherwise (a caller bug — honest
  /// protocol code only combines after counting a quorum).
  ThresholdSig combine(std::span<const SigShare> shares,
                       const Digest& d) const;

  bool verify(const ThresholdSig& sig, const Digest& d) const;

 private:
  const KeyRegistry* registry_;
  std::uint32_t t_;
};

}  // namespace ambb
