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
// Overwrite-on-collision: DigestCache is direct-mapped, VerifyCache is
// two-way (a key may sit in either slot of its pair). A collision costs
// one recomputation, never correctness — the cache is a pure observer of
// a pure function. Lookups compare the FULL key (tag and bytes), so two
// tag-distinct encodings can never alias an entry; domain separation is
// preserved bit-for-bit.
//
// Threading: DigestCache::local() is thread-local (one cache per
// worker thread), and KeyRegistry's MAC memo lives in a thread-local
// VerifyCache keyed on the registry uid (cleared when a thread switches
// registries) — concurrent engine jobs may share one registry across
// worker threads, so the cache cannot live inside the registry itself.
// No locks, no sharing, race-free under any --jobs setting. No other memo
// sits between a signature check and the VerifyCache (DESIGN.md §14).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "crypto/sha256.hpp"

namespace ambb {

/// Lookup counters of one cache.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;  ///< overwrites of a live entry
};

class DigestCache {
 public:
  using Stats = CacheStats;

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
/// pure function of (key owner, domain tag, digest). A fixed two-way
/// table, so steady-state inserts never touch the heap.
///
/// Each MAC is reused within the round that produced it, not across the
/// run, so the table is sized to that window: at 2^13 entries (650 KB per
/// thread) it fits in a core's L2 and hits as often as a 2^15 table
/// (DESIGN.md §14).
class VerifyCache {
 public:
  using Stats = CacheStats;

  static constexpr std::uint32_t kDefaultLog2Entries = 13;

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
    // The n shares or signatures on one digest differ only in the owner,
    // so the owner must reach the low bits the mask keeps. Multiplying by
    // an odd constant permutes the low bits, so owners 0..capacity-1 on
    // one (domain, digest) always take distinct slots. Folding the high
    // half in afterwards would lose that (at 2^13 entries, owners 9 and
    // 283 would share a slot).
    std::uint64_t h = 0;
    for (int i = 0; i < 8; ++i) h = h << 8 | d[i];
    h ^= domain ^ (std::uint64_t{owner} * 0x9E3779B97F4A7C15ULL);
    return static_cast<std::size_t>(h & mask_);
  }

  std::vector<Entry> table_;
  std::uint64_t mask_;
  mutable Stats stats_;
};

}  // namespace ambb
