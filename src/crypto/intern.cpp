#include "crypto/intern.hpp"

#include <cstring>

#include "common/check.hpp"

namespace ambb {

namespace {

std::uint64_t fnv1a(std::uint64_t h, const std::uint8_t* p, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

bool bytes_equal(const std::uint8_t* a, const std::uint8_t* b,
                 std::size_t len) {
  return len == 0 || std::memcmp(a, b, len) == 0;
}

}  // namespace

DigestCache::DigestCache(std::uint32_t log2_entries)
    : table_(std::size_t{1} << log2_entries),
      mask_((std::uint64_t{1} << log2_entries) - 1) {
  AMBB_CHECK(log2_entries >= 1 && log2_entries <= 24);
}

Digest DigestCache::hash(std::string_view domain,
                         std::span<const std::uint8_t> canonical) {
  const auto* dom = reinterpret_cast<const std::uint8_t*>(domain.data());
  const std::size_t key_len = domain.size() + canonical.size();
  std::uint64_t h = fnv1a(1469598103934665603ULL, dom, domain.size());
  h = fnv1a(h, canonical.data(), canonical.size());

  Entry& e = table_[static_cast<std::size_t>(h & mask_)];
  if (e.used && e.key_hash == h && e.key_len == key_len &&
      e.domain_len == domain.size()) {
    const std::uint8_t* key =
        key_len <= kInlineKeyBytes ? e.inline_key.data() : e.long_key.get();
    if (bytes_equal(key, dom, domain.size()) &&
        bytes_equal(key + domain.size(), canonical.data(),
                    canonical.size())) {
      stats_.hits += 1;
      return e.value;
    }
  }
  stats_.misses += 1;
  if (e.used) stats_.evictions += 1;

  const Digest d = Sha256::hash(canonical);
  std::uint8_t* dst;
  if (key_len <= kInlineKeyBytes) {
    e.long_key.reset();
    dst = e.inline_key.data();
  } else {
    e.long_key = std::make_unique<std::uint8_t[]>(key_len);
    dst = e.long_key.get();
  }
  if (!domain.empty()) std::memcpy(dst, dom, domain.size());
  if (!canonical.empty()) {
    std::memcpy(dst + domain.size(), canonical.data(), canonical.size());
  }
  e.key_hash = h;
  e.key_len = static_cast<std::uint32_t>(key_len);
  e.domain_len = static_cast<std::uint16_t>(domain.size());
  e.used = true;
  e.value = d;
  return d;
}

DigestCache& DigestCache::local() {
  thread_local DigestCache cache;
  return cache;
}

VerifyCache::VerifyCache(std::uint32_t log2_entries)
    : table_(std::size_t{1} << log2_entries),
      mask_((std::uint64_t{1} << log2_entries) - 1) {
  AMBB_CHECK(log2_entries >= 1 && log2_entries <= 24);
}

const Digest* VerifyCache::find(std::uint32_t owner, std::uint64_t domain,
                                const Digest& d) const {
  // A key sits in its home slot or in the other slot of its pair.
  const std::size_t i = index_of(owner, domain, d);
  for (const std::size_t j : {i, i ^ 1}) {
    const Entry& e = table_[j];
    if (e.used && e.owner == owner && e.domain == domain && e.digest == d) {
      stats_.hits += 1;
      return &e.mac;
    }
  }
  stats_.misses += 1;
  return nullptr;
}

void VerifyCache::clear() {
  for (Entry& e : table_) e.used = false;
}

void VerifyCache::store(std::uint32_t owner, std::uint64_t domain,
                        const Digest& d, const Digest& mac) {
  // Take a free slot of the pair, home first; with both taken, overwrite
  // the home slot.
  const std::size_t i = index_of(owner, domain, d);
  Entry& e = table_[i].used && !table_[i ^ 1].used ? table_[i ^ 1] : table_[i];
  if (e.used) stats_.evictions += 1;
  e.domain = domain;
  e.owner = owner;
  e.used = true;
  e.digest = d;
  e.mac = mac;
}

}  // namespace ambb
