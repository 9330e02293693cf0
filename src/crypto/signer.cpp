#include "crypto/signer.hpp"

#include <atomic>

#include "common/byte_buf.hpp"
#include "common/check.hpp"
#include "crypto/hmac.hpp"

namespace ambb {

namespace {
Digest derive_key(const Digest& master, std::uint64_t index) {
  Encoder& e = Encoder::scratch();
  e.put_tag("ambb-node-key");
  e.put_u64(index);
  const Digest d = Sha256::hash(e.view());
  return hmac_sha256(master, d);
}

/// The calling thread's MAC memo. It is per-thread, keyed on the registry
/// uid: the registry stays immutable after construction, so any thread may
/// read it without a race, and keying on uid (rather than folding it into
/// the cache key) guarantees a thread that switches registries can never
/// be served a MAC computed under different keys — the whole cache is
/// dropped instead.
struct TlMacCache {
  std::uint64_t reg = 0;  ///< registry uid, 0 = empty
  VerifyCache cache;
};

TlMacCache& mac_cache() {
  thread_local TlMacCache tl;
  return tl;
}

// Every MAC keys on its domain's hash, so these values are part of every
// signature, share and aggregate the simulation produces; they must not
// change.
constexpr std::uint64_t kSigDom = MacDomain("sig").hash();
static_assert(kSigDom == 0x591f5b51511723f4ULL);
static_assert(MacDomain("thshare").hash() == 0x5b438187263302beULL);
static_assert(MacDomain("th").hash() == 0x9bf37300c697eb87ULL);
static_assert(MacDomain("msig").hash() == 0x5015c81b0081dc83ULL);
}  // namespace

KeyRegistry::KeyRegistry(std::uint32_t n, std::uint64_t master_seed) : n_(n) {
  AMBB_CHECK(n >= 1);
  static std::atomic<std::uint64_t> next_uid{1};
  uid_ = next_uid.fetch_add(1, std::memory_order_relaxed);
  Encoder& e = Encoder::scratch();
  e.put_tag("ambb-master-key");
  e.put_u64(master_seed);
  master_key_ = Sha256::hash(e.view());
  node_keys_.reserve(n);
  node_prf_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    node_keys_.push_back(derive_key(master_key_, i));
    node_prf_.emplace_back(node_keys_.back());
  }
  master_prf_.emplace_back(master_key_);
}

Digest KeyRegistry::cached_mac(std::uint32_t owner, const PrfKey& key,
                               std::uint64_t domain, const Digest& d) const {
  TlMacCache& tl = mac_cache();
  if (tl.reg != uid_) {
    tl.cache.clear();
    tl.reg = uid_;
  }
  if (const Digest* m = tl.cache.find(owner, domain, d)) return *m;
  const Digest out = key.mac(domain, d);
  tl.cache.store(owner, domain, d, out);
  return out;
}

VerifyCache::Stats KeyRegistry::mac_cache_stats() {
  return mac_cache().cache.stats();
}

Signature KeyRegistry::sign(NodeId signer, const Digest& d) const {
  AMBB_CHECK(signer < n_);
  return Signature{signer, cached_mac(signer, node_prf_[signer], kSigDom, d)};
}

bool KeyRegistry::verify(const Signature& sig, const Digest& d) const {
  if (sig.signer >= n_) return false;
  return sig.mac == cached_mac(sig.signer, node_prf_[sig.signer], kSigDom, d);
}

Digest KeyRegistry::mac_as(NodeId i, MacDomain domain,
                           const Digest& d) const {
  AMBB_CHECK(i < n_);
  return cached_mac(i, node_prf_[i], domain.hash(), d);
}

Digest KeyRegistry::master_mac(MacDomain domain, const Digest& d) const {
  return cached_mac(kMasterOwner, master_prf_[0], domain.hash(), d);
}

}  // namespace ambb
