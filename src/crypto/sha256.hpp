// SHA-256 (FIPS 180-4), implemented from scratch: the environment has no
// crypto libraries installed, and the simulated signature schemes below are
// built on HMAC-SHA256.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

namespace ambb {

using Digest = std::array<std::uint8_t, 32>;

/// Compression-function state captured after an integral number of 64-byte
/// blocks. Lets a fixed prefix (e.g. an HMAC pad block) be compressed once
/// and resumed for every message sharing it.
struct Sha256Midstate {
  std::array<std::uint32_t, 8> state;
  std::uint64_t processed_bytes = 0;
};

class Sha256 {
 public:
  Sha256();
  /// Resume hashing as if `mid.processed_bytes` bytes had been consumed.
  explicit Sha256(const Sha256Midstate& mid);

  void update(std::span<const std::uint8_t> data);

  /// Finalize and return the digest. The object must not be reused after.
  Digest finalize();

  /// One-shot convenience.
  static Digest hash(std::span<const std::uint8_t> data);

  /// Snapshot the state; only valid on a 64-byte block boundary.
  Sha256Midstate midstate() const;

  /// Digest of (the midstate's prefix ‖ tail) where the padded tail fits a
  /// single block (tail.size() <= 55): one compression, no buffering.
  /// Equivalent to Sha256(mid); update(tail); finalize().
  static Digest finalize_block(const Sha256Midstate& mid,
                               std::span<const std::uint8_t> tail);

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
  bool finalized_ = false;
};

std::string digest_hex(const Digest& d);

}  // namespace ambb
