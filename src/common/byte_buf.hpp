// Canonical byte encoding used to derive signing digests. Wire sizes do
// not come from here: the cost metric is priced by WireModel and each
// family's size_bits (DESIGN.md §8).
//
// Every signed object in the protocols is encoded through an Encoder before
// being hashed; this guarantees that two semantically different messages
// never produce the same digest (all fields are length/width-explicit,
// big-endian).
//
// Hot-path usage: the digest helpers run millions of times per benchmark
// run, so the Encoder supports a scratch-backed mode — Encoder::scratch()
// returns a cleared thread-local instance whose buffer capacity persists
// across calls, making steady-state encodings heap-allocation-free.
#pragma once

#include <cstdint>
#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

#include "common/check.hpp"

namespace ambb {

class Encoder {
 public:
  Encoder() = default;

  // `auto e = Encoder::scratch();` would copy the thread-local instance
  // and leave it marked busy; encoders are cheap to construct where
  // needed and scratch() covers the hot path.
  Encoder(const Encoder&) = delete;
  Encoder& operator=(const Encoder&) = delete;

  /// A cleared, reusable thread-local Encoder. Capacity persists across
  /// calls, so steady-state encodings perform zero heap allocations. Do
  /// not hold the reference across a call into code that may itself use
  /// scratch() — there is exactly one per thread, and a reentrancy guard
  /// enforces it: acquiring the scratch encoder marks it busy until the
  /// encoding is consumed via view()/bytes() (or abandoned via clear()).
  /// Nested acquisition used to silently clear() a mid-encode buffer and
  /// corrupt the outer encoding; now it throws.
  static Encoder& scratch();

  void reserve(std::size_t n) { buf_.reserve(n); }
  void clear() {
    buf_.clear();
    busy_ = false;
  }

  void put_u8(std::uint8_t v) { buf_.push_back(v); }
  void put_u16(std::uint16_t v) {
    put_u8(static_cast<std::uint8_t>(v >> 8));
    put_u8(static_cast<std::uint8_t>(v));
  }
  /// Checked narrowing put: for wider fields (Epoch is uint32_t, chain
  /// lengths are size_t) whose canonical encoding is u16. A value >= 2^16
  /// would silently alias digests; this throws instead.
  void put_u16_checked(std::uint64_t v) {
    AMBB_CHECK_MSG(v <= 0xFFFFu, "u16 encoder field overflow: " << v);
    put_u16(static_cast<std::uint16_t>(v));
  }
  void put_u32(std::uint32_t v) {
    put_u16(static_cast<std::uint16_t>(v >> 16));
    put_u16(static_cast<std::uint16_t>(v));
  }
  void put_u64(std::uint64_t v) {
    put_u32(static_cast<std::uint32_t>(v >> 32));
    put_u32(static_cast<std::uint32_t>(v));
  }
  void put_bytes(std::span<const std::uint8_t> bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }
  /// Tag strings disambiguate message kinds inside digests ("vote", ...).
  /// Length-prefixed so distinct tag sequences cannot collide.
  void put_tag(std::string_view tag) {
    put_u16(static_cast<std::uint16_t>(tag.size()));
    for (char c : tag) put_u8(static_cast<std::uint8_t>(c));
  }

  const std::vector<std::uint8_t>& bytes() const {
    busy_ = false;  // encoding consumed; scratch() may be re-acquired
    return buf_;
  }
  std::span<const std::uint8_t> view() const {
    busy_ = false;  // encoding consumed; scratch() may be re-acquired
    return std::span<const std::uint8_t>(buf_.data(), buf_.size());
  }

 private:
  std::vector<std::uint8_t> buf_;
  /// Reentrancy guard for the thread-local scratch instance: set by
  /// scratch(), released when the encoding is consumed (view()/bytes())
  /// or abandoned (clear()). Always false for ordinary instances.
  mutable bool busy_ = false;
};

}  // namespace ambb
