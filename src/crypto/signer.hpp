// Simulated digital signatures with a PKI.
//
// The environment provides no crypto library, and the paper treats the
// signature scheme as an ideal primitive, so we simulate it: node i's
// secret key is derived from a master seed, a signature on digest d is a
// keyed PRF over (domain, d) under sk_i (a pre-compressed SHA-256 key
// block; one compression per MAC — see PrfKey), and verification
// recomputes the MAC through the registry (which models the PKI). Inside
// the simulation the only way to produce a valid signature is to call
// sign() as that node, which the adversary can do only for corrupted
// nodes — exactly the power the paper grants it.
//
// DESIGN.md documents this substitution; the properties the reproduction
// relies on (who can create which object, and its kappa-bit wire size) are
// preserved exactly.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "crypto/hmac.hpp"
#include "crypto/intern.hpp"
#include "crypto/sha256.hpp"

namespace ambb {

struct Signature {
  NodeId signer = kNoNode;
  Digest mac{};

  bool operator==(const Signature&) const = default;
};

/// A MAC domain-separation tag, held as the 64-bit FNV-1a hash of its
/// string. The constructor is consteval: a call site passes a literal
/// (`"thshare"`) and the hash is computed at compile time, not per MAC.
class MacDomain {
 public:
  consteval MacDomain(const char* tag) : hash_(fnv1a(tag)) {}

  constexpr std::uint64_t hash() const { return hash_; }

 private:
  static consteval std::uint64_t fnv1a(const char* s) {
    std::uint64_t h = 1469598103934665603ULL;
    for (; *s != '\0'; ++s) {
      h ^= static_cast<std::uint8_t>(*s);
      h *= 1099511628211ULL;
    }
    return h;
  }

  std::uint64_t hash_;
};

class KeyRegistry {
 public:
  KeyRegistry(std::uint32_t n, std::uint64_t master_seed);

  std::uint32_t n() const { return n_; }

  /// Sign digest `d` as node `signer`.
  Signature sign(NodeId signer, const Digest& d) const;

  /// Verify that `sig` is node sig.signer's signature on `d`.
  bool verify(const Signature& sig, const Digest& d) const;

  /// Raw MAC under node i's key with a domain-separation tag; building
  /// block for the threshold / multi-signature schemes.
  Digest mac_as(NodeId i, MacDomain domain, const Digest& d) const;

  /// Raw MAC under the master (dealer) key; only the threshold combiner
  /// uses this, through combine() below.
  Digest master_mac(MacDomain domain, const Digest& d) const;

  /// Hit/miss/eviction counters of the calling thread's MAC memo,
  /// cumulative over every registry the thread has used (a registry
  /// switch drops the entries, not the counters). Like
  /// DigestCache::local().stats(), it only observes: take it before and
  /// after a run and subtract.
  static VerifyCache::Stats mac_cache_stats();

 private:
  static constexpr std::uint32_t kMasterOwner = 0xFFFFFFFFu;

  Digest cached_mac(std::uint32_t owner, const PrfKey& key,
                    std::uint64_t domain, const Digest& d) const;

  std::uint32_t n_;
  /// Process-unique instance id; the thread-local MAC memo keys on it
  /// instead of `this`: a new registry can reuse a freed registry's
  /// address, and many digests (e.g. accusation digests) are identical
  /// across runs, so a pointer-keyed memo could leak MACs from a registry
  /// with different keys.
  std::uint64_t uid_;
  Digest master_key_;
  std::vector<Digest> node_keys_;
  std::vector<PrfKey> node_prf_;
  std::vector<PrfKey> master_prf_;  ///< single element; vector avoids a
                                    ///< default-constructible requirement
  // (key owner, domain tag, digest) is the full input of one MAC. All
  // four public operations are pure functions of this triple, so results
  // are memoized: in a broadcast run every recipient re-verifies the same
  // signature, and only the first verification pays for the HMAC. The
  // memo is a thread-local VerifyCache keyed on uid_ (see cached_mac),
  // NOT a member: the registry stays immutable after construction, so
  // any thread may call sign/verify on it without a race (DESIGN.md §14).
  // It is the only memo in front of a MAC: a check repeated per recipient
  // is answered by the family's record verdict (RecordVerdicts) on the
  // lock-step path, and by this memo on the timing path.
};

}  // namespace ambb
