// Compact dynamic bitset used for signer bitmaps (multi-signatures),
// expander/trust-graph adjacency rows, and per-node "already sent" flags,
// and a bit matrix for per-node sets of (node, node) pairs.
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

  /// Indices of all set bits, ascending.
  std::vector<std::size_t> ones() const;

  void clear_all();

  bool operator==(const BitVec& other) const = default;

 private:
  std::size_t n_ = 0;
  std::vector<std::uint64_t> words_;

  void trim_tail();
};

/// rows x cols bits in one allocation, each row starting on a word (the
/// per-node accusation and vote pair sets, DESIGN.md §14). Every accessor
/// checks its row and column, so no index reaches into the next row.
class BitMatrix {
 public:
  BitMatrix(std::size_t rows, std::size_t cols);

  bool get(std::size_t r, std::size_t c) const {
    return (words_[index(r, c)] >> (c & 63)) & 1u;
  }

  void set(std::size_t r, std::size_t c) {
    words_[index(r, c)] |= std::uint64_t{1} << (c & 63);
  }

  /// Number of set bits in row r.
  std::size_t row_count(std::size_t r) const;

  /// True iff row r of `other` is a subset of row r of *this.
  bool row_contains(std::size_t r, const BitMatrix& other) const;

  void clear_all();

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::size_t stride_;  ///< words per row
  std::vector<std::uint64_t> words_;

  std::size_t index(std::size_t r, std::size_t c) const {
    AMBB_CHECK(r < rows_ && c < cols_);
    return r * stride_ + (c >> 6);
  }
};

}  // namespace ambb
