// HMAC-SHA256 (RFC 2104). The simulated signature schemes derive their
// authenticity from HMACs under keys held by the in-simulator PKI registry.
#pragma once

#include <cstdint>
#include <span>

#include "crypto/sha256.hpp"

namespace ambb {

Digest hmac_sha256(std::span<const std::uint8_t> key,
                   std::span<const std::uint8_t> message);

Digest hmac_sha256(const Digest& key, const Digest& message);

/// Keyed PRF specialised for the registry's (domain, digest) MACs: the
/// 64-byte key block is pre-compressed once, and each mac() hashes an
/// 8-byte domain tag plus a 32-byte digest — 40 bytes, which together
/// with the SHA-256 padding fits a single block, so one compression per
/// MAC (vs four for hmac_sha256 plus one for a domain pre-hash).
///
/// This is a key-prefix construction, not RFC-2104 HMAC. For the
/// simulated PKI that is exactly as good: inside the simulation the only
/// way to produce a valid MAC is through the registry, which models the
/// unforgeability the paper assumes (DESIGN.md §5, §14).
class PrfKey {
 public:
  explicit PrfKey(const Digest& key);

  Digest mac(std::uint64_t domain, const Digest& d) const;

 private:
  Sha256Midstate keyed_;
};

}  // namespace ambb
