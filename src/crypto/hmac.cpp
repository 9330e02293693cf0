#include "crypto/hmac.hpp"

#include <array>
#include <cstring>

namespace ambb {

Digest hmac_sha256(std::span<const std::uint8_t> key,
                   std::span<const std::uint8_t> message) {
  std::array<std::uint8_t, 64> block{};
  if (key.size() > 64) {
    const Digest kd = Sha256::hash(key);
    std::memcpy(block.data(), kd.data(), kd.size());
  } else {
    std::memcpy(block.data(), key.data(), key.size());
  }

  std::array<std::uint8_t, 64> ipad, opad;
  for (int i = 0; i < 64; ++i) {
    ipad[i] = block[i] ^ 0x36;
    opad[i] = block[i] ^ 0x5c;
  }

  Sha256 inner;
  inner.update(std::span<const std::uint8_t>(ipad.data(), ipad.size()));
  inner.update(message);
  const Digest inner_d = inner.finalize();

  Sha256 outer;
  outer.update(std::span<const std::uint8_t>(opad.data(), opad.size()));
  outer.update(std::span<const std::uint8_t>(inner_d.data(), inner_d.size()));
  return outer.finalize();
}

Digest hmac_sha256(const Digest& key, const Digest& message) {
  return hmac_sha256(std::span<const std::uint8_t>(key.data(), key.size()),
                     std::span<const std::uint8_t>(message.data(), message.size()));
}

PrfKey::PrfKey(const Digest& key) {
  // Key block: two copies of the 32-byte key, compressed once up front.
  std::array<std::uint8_t, 64> block;
  std::memcpy(block.data(), key.data(), key.size());
  std::memcpy(block.data() + key.size(), key.data(), key.size());
  Sha256 h;
  h.update(std::span<const std::uint8_t>(block.data(), block.size()));
  keyed_ = h.midstate();
}

Digest PrfKey::mac(std::uint64_t domain, const Digest& d) const {
  // 8 + 32 = 40 bytes; with padding this finalizes in ONE compression,
  // assembled directly into the final block (no streaming machinery).
  std::array<std::uint8_t, 40> buf;
  for (int i = 0; i < 8; ++i) {
    buf[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(domain >> (8 * (7 - i)));
  }
  std::memcpy(buf.data() + 8, d.data(), d.size());
  return Sha256::finalize_block(keyed_,
                                std::span<const std::uint8_t>(buf.data(),
                                                              buf.size()));
}

}  // namespace ambb
