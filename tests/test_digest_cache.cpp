// Interning caches (DESIGN.md §14) are pure observers: every answer they
// return must be bit-identical to the uncached computation, under hits,
// misses, forced index collisions, and the long-key spill path; the MAC
// memo must give every key owner on one digest its own entry. Also pins
// the single-block finalize_block fast path the PRF keys rely on.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "crypto/intern.hpp"
#include "crypto/sha256.hpp"
#include "text_bytes.hpp"

namespace ambb {
namespace {

std::vector<std::uint8_t> bytes_of(std::size_t len, std::uint8_t seed) {
  std::vector<std::uint8_t> v(len);
  for (std::size_t i = 0; i < len; ++i) {
    v[i] = static_cast<std::uint8_t>(seed + 37 * i);
  }
  return v;
}

std::span<const std::uint8_t> as_span(const std::vector<std::uint8_t>& v) {
  return {v.data(), v.size()};
}

TEST(DigestCache, HashMatchesDirectSha256AcrossKeyLengths) {
  DigestCache dc(/*log2_entries=*/6);
  // Straddle the inline-key threshold (96 bytes of domain + canonical):
  // empty, short, exactly-at-boundary, and long spill keys.
  for (std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{31},
                          std::size_t{90}, std::size_t{96}, std::size_t{97},
                          std::size_t{1000}}) {
    const auto data = bytes_of(len, static_cast<std::uint8_t>(len));
    const Digest direct = Sha256::hash(as_span(data));
    EXPECT_EQ(dc.hash("vote", as_span(data)), direct) << "len " << len;
    // Second lookup is a hit and must return the same digest.
    EXPECT_EQ(dc.hash("vote", as_span(data)), direct) << "len " << len;
  }
  EXPECT_GT(dc.stats().hits, 0u);
  EXPECT_GT(dc.stats().misses, 0u);
}

TEST(DigestCache, DomainTagNeverFeedsTheHash) {
  DigestCache dc(/*log2_entries=*/6);
  const auto data = bytes_of(40, 7);
  const Digest direct = Sha256::hash(as_span(data));
  // Different domain tags, same bytes: distinct cache keys, identical
  // digests (the tag names the encoding family, it is not hashed).
  EXPECT_EQ(dc.hash("vote", as_span(data)), direct);
  EXPECT_EQ(dc.hash("commit", as_span(data)), direct);
  EXPECT_EQ(dc.hash("prop", as_span(data)), direct);
}

TEST(DigestCache, CollisionsInATinyCacheNeverAliasAcrossDomains) {
  // The smallest cache (two entries) with eight distinct domain tags:
  // by pigeonhole, keys collide on every round. Full-key comparison must
  // detect each mismatch and recompute — an entry written under one
  // domain tag may never answer for another.
  DigestCache dc(/*log2_entries=*/1);  // two entries

  const auto data = bytes_of(32, 3);
  const Digest direct = Sha256::hash(as_span(data));
  for (int round = 0; round < 3; ++round) {
    for (const char* dom : {"vote", "commit", "accuse", "mrk-node", "prop",
                            "th", "thshare", "sig"}) {
      EXPECT_EQ(dc.hash(dom, as_span(data)), direct) << dom;
    }
  }
  // Eight keys cycling through two slots: overwrites of live entries are
  // unavoidable and must be counted as evictions, never served as hits.
  EXPECT_GT(dc.stats().evictions, 0u);

  // Same domain, different canonical bytes of equal length must also be
  // told apart by the byte compare.
  const auto other = bytes_of(32, 91);
  EXPECT_EQ(dc.hash("vote", as_span(other)), Sha256::hash(as_span(other)));
}

TEST(DigestCache, HitsAndMissesAreCounted) {
  DigestCache dc(/*log2_entries=*/8);
  const auto a = bytes_of(16, 1);
  dc.hash("x", as_span(a));
  EXPECT_EQ(dc.stats().misses, 1u);
  EXPECT_EQ(dc.stats().hits, 0u);
  dc.hash("x", as_span(a));
  EXPECT_EQ(dc.stats().misses, 1u);
  EXPECT_EQ(dc.stats().hits, 1u);
}

TEST(VerifyCache, FindStoreRoundTripAndCollisionEviction) {
  VerifyCache vc(/*log2_entries=*/1);  // two entries

  const Digest d1 = Sha256::hash(text_bytes("message-1"));
  const Digest m1 = Sha256::hash(text_bytes("mac-1"));
  const Digest m2 = Sha256::hash(text_bytes("mac-2"));

  EXPECT_EQ(vc.find(/*owner=*/4, /*domain=*/11, d1), nullptr);
  vc.store(4, 11, d1, m1);
  const Digest* hit = vc.find(4, 11, d1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, m1);

  // Same digest, different owner / domain: full-key compare must miss
  // (whether or not the probe lands on d1's slot).
  EXPECT_EQ(vc.find(5, 11, d1), nullptr);
  EXPECT_EQ(vc.find(4, 12, d1), nullptr);

  // Store further digests until one overwrites d1's entry. The colliding
  // d2 is found by behaviour (store a candidate, then probe d1), not by
  // mirroring the index function, so this holds for any slot index.
  Digest d2{};
  for (int k = 2; vc.find(4, 11, d1) != nullptr; ++k) {
    ASSERT_LT(k, 64) << "no store ever evicted d1";
    d2 = Sha256::hash(text_bytes("message-" + std::to_string(k)));
    vc.store(4, 11, d2, m2);
  }

  // The colliding store overwrote d1 and counted an eviction.
  EXPECT_EQ(vc.find(4, 11, d1), nullptr);
  const Digest* hit2 = vc.find(4, 11, d2);
  ASSERT_NE(hit2, nullptr);
  EXPECT_EQ(*hit2, m2);
  EXPECT_GT(vc.stats().evictions, 0u);
}

TEST(VerifyCache, DistinctOwnersOnOneDigestAllHit) {
  // The n threshold shares (or signatures) on one digest differ only in
  // the key owner. At the default capacity each must keep its own entry;
  // if the owner never reached the slot index they would evict each other
  // and the memo would never hit.
  VerifyCache vc;
  constexpr std::uint64_t kDomain = 0x5DEECE66DULL;
  const Digest d = Sha256::hash(text_bytes("vote-digest"));
  std::vector<std::uint32_t> owners;
  for (std::uint32_t o = 0; o < 128; ++o) owners.push_back(o);
  owners.push_back(0xFFFFFFFFu);  // KeyRegistry's master (dealer) key
  auto mac_of = [](std::uint32_t o) {
    return Sha256::hash(text_bytes("mac-" + std::to_string(o)));
  };

  for (std::uint32_t o : owners) vc.store(o, kDomain, d, mac_of(o));
  for (std::uint32_t o : owners) {
    const Digest* m = vc.find(o, kDomain, d);
    ASSERT_NE(m, nullptr) << "owner " << o;
    EXPECT_EQ(*m, mac_of(o)) << "owner " << o;
  }
  EXPECT_EQ(vc.stats().hits, owners.size());
  EXPECT_EQ(vc.stats().evictions, 0u);
}

TEST(Sha256, FinalizeBlockMatchesStreamingPath) {
  // finalize_block(mid, tail) must equal resume-update-finalize for every
  // tail length it accepts (0..55 bytes after a block-aligned prefix).
  Sha256 prefix;
  const auto block = bytes_of(64, 17);
  prefix.update(as_span(block));
  const Sha256Midstate mid = prefix.midstate();

  for (std::size_t tail_len = 0; tail_len <= 55; ++tail_len) {
    const auto tail = bytes_of(tail_len, static_cast<std::uint8_t>(tail_len));
    Sha256 stream(mid);
    stream.update(as_span(tail));
    EXPECT_EQ(Sha256::finalize_block(mid, as_span(tail)), stream.finalize())
        << "tail " << tail_len;
  }
}

}  // namespace
}  // namespace ambb
