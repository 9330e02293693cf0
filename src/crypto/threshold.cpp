#include "crypto/threshold.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace ambb {

ThresholdScheme::ThresholdScheme(const KeyRegistry& registry, std::uint32_t t)
    : registry_(&registry), t_(t) {
  AMBB_CHECK(t >= 1 && t <= registry.n());
}

SigShare ThresholdScheme::share(NodeId signer, const Digest& d) const {
  return SigShare{signer, registry_->mac_as(signer, "thshare", d)};
}

bool ThresholdScheme::verify_share(const SigShare& s, const Digest& d) const {
  if (s.signer >= registry_->n()) return false;
  return s.mac == registry_->mac_as(s.signer, "thshare", d);
}

ThresholdSig ThresholdScheme::combine(std::span<const SigShare> shares,
                                      const Digest& d) const {
  // Reused scratch: combine() runs once per certificate on the hot path;
  // a thread_local keeps steady-state rounds heap-allocation-free.
  thread_local std::vector<NodeId> signers;
  signers.clear();
  signers.reserve(shares.size());
  for (const auto& s : shares) {
    AMBB_CHECK_MSG(verify_share(s, d), "invalid share passed to combine");
    signers.push_back(s.signer);
  }
  std::sort(signers.begin(), signers.end());
  signers.erase(std::unique(signers.begin(), signers.end()), signers.end());
  AMBB_CHECK_MSG(signers.size() >= t_,
                 "combine needs >= t distinct valid shares, got "
                     << signers.size() << " < " << t_);
  return ThresholdSig{registry_->master_mac("th", d)};
}

bool ThresholdScheme::verify(const ThresholdSig& sig, const Digest& d) const {
  return sig.mac == registry_->master_mac("th", d);
}

}  // namespace ambb
