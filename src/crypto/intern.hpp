// Digest and verification-result interning (DESIGN.md §14).
//
// Protocol runs recompute the same pure functions relentlessly: every
// recipient of a vote re-derives the same canonical encoding and hashes
// it, and every verifier of a signature recomputes the same HMAC. Both
// functions are pure, so their results are interned in flat direct-mapped
// caches:
//
//   DigestCache  (domain tag, canonical bytes)        -> SHA-256 digest
//   VerifyCache  (key owner, domain tag, digest)      -> HMAC value
//
// Direct-mapped with overwrite-on-collision: a collision costs one
// recomputation, never correctness — the cache is a pure observer of a
// pure function. Lookups compare the FULL key (tag and bytes), so two
// tag-distinct encodings can never alias an entry; domain separation is
// preserved bit-for-bit.
//
// Threading: DigestCache::local() is thread-local (one cache per
// worker thread), and KeyRegistry's MAC memo lives in a thread-local
// VerifyCache keyed on the registry uid (cleared when a thread switches
// registries) — concurrent engine jobs may share one registry across
// worker threads, so the cache cannot live inside the registry itself.
// No locks, no sharing, race-free under any --jobs setting.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "crypto/sha256.hpp"

namespace ambb {

class DigestCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;  ///< overwrites of a live entry
  };

  static constexpr std::uint32_t kDefaultLog2Entries = 14;
  /// Keys at most this long are stored inline in the table; longer keys
  /// (extension-protocol payloads, Merkle leaf chunks) spill to a heap
  /// side allocation owned by the entry.
  static constexpr std::size_t kInlineKeyBytes = 96;

  explicit DigestCache(std::uint32_t log2_entries = kDefaultLog2Entries);

  /// Memoized Sha256::hash(canonical). `domain` names the encoding family
  /// ("vote", "mrk-node", ...) and is part of the cache key — it never
  /// feeds the hash itself, so the returned digest is bit-identical to an
  /// uncached Sha256::hash(canonical).
  Digest hash(std::string_view domain, std::span<const std::uint8_t> canonical);

  /// The calling thread's cache. One per engine worker; results are pure,
  /// so sharing a cache across runs is unobservable.
  static DigestCache& local();

  const Stats& stats() const { return stats_; }
  std::size_t capacity() const { return table_.size(); }

 private:
  struct Entry {
    std::uint64_t key_hash = 0;
    std::uint32_t key_len = 0;    ///< domain_len + canonical length
    std::uint16_t domain_len = 0;
    bool used = false;
    std::array<std::uint8_t, kInlineKeyBytes> inline_key{};
    std::unique_ptr<std::uint8_t[]> long_key;  ///< when key_len > inline
    Digest value{};
  };

  std::vector<Entry> table_;
  std::uint64_t mask_;
  Stats stats_;
};

/// Flat MAC memo for KeyRegistry: every sign/verify/mac_as/master_mac is a
/// pure function of (key owner, domain tag, digest). Replaces the former
/// unordered_map node-per-insert cache with a fixed direct-mapped table so
/// steady-state inserts never touch the heap.
class VerifyCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  static constexpr std::uint32_t kDefaultLog2Entries = 15;

  explicit VerifyCache(std::uint32_t log2_entries = kDefaultLog2Entries);

  /// The memoized MAC for (owner, domain, d), or nullptr. The pointer is
  /// valid until the next store().
  const Digest* find(std::uint32_t owner, std::uint64_t domain,
                     const Digest& d) const;

  void store(std::uint32_t owner, std::uint64_t domain, const Digest& d,
             const Digest& mac);

  /// Drop every entry (stats are kept). Used by the thread-local MAC
  /// caches in KeyRegistry when the calling thread switches registries:
  /// entries memoize MACs under one registry's keys and must never be
  /// served for another.
  void clear();

  const Stats& stats() const { return stats_; }
  std::size_t capacity() const { return table_.size(); }

 private:
  struct Entry {
    std::uint64_t domain = 0;
    std::uint32_t owner = 0;
    bool used = false;
    Digest digest{};
    Digest mac{};
  };

  std::size_t index_of(std::uint32_t owner, std::uint64_t domain,
                       const Digest& d) const {
    // The digest is SHA-256 output; its first bytes are already uniform.
    std::uint64_t h = 0;
    for (int i = 0; i < 8; ++i) h = h << 8 | d[i];
    h ^= domain ^ (std::uint64_t{owner} << 32);
    return static_cast<std::size_t>(h & mask_);
  }

  std::vector<Entry> table_;
  std::uint64_t mask_;
  mutable Stats stats_;
};

}  // namespace ambb
