// Compact dynamic bitset used for signer bitmaps (multi-signatures),
// expander/trust-graph adjacency rows, and per-node "already sent" flags.
#pragma once

#include <cstdint>
#include <cstddef>
#include <vector>

#include "common/check.hpp"

namespace ambb {

class BitVec {
 public:
  BitVec() = default;
  explicit BitVec(std::size_t n, bool value = false);

  std::size_t size() const { return n_; }

  bool get(std::size_t i) const {
    AMBB_CHECK(i < n_);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  void set(std::size_t i, bool value = true) {
    AMBB_CHECK(i < n_);
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    if (value)
      words_[i >> 6] |= mask;
    else
      words_[i >> 6] &= ~mask;
  }

  /// Number of set bits.
  std::size_t count() const;

  /// True iff every bit of `other` is also set in *this (other ⊆ this).
  bool contains(const BitVec& other) const;

  /// Indices of all set bits, ascending.
  std::vector<std::size_t> ones() const;

  void clear_all();

  bool operator==(const BitVec& other) const = default;

 private:
  std::size_t n_ = 0;
  std::vector<std::uint64_t> words_;

  void trim_tail();
};

}  // namespace ambb
