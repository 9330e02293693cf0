#include "common/bitvec.hpp"

#include <algorithm>
#include <bit>

namespace ambb {

BitVec::BitVec(std::size_t n, bool value)
    : n_(n), words_((n + 63) / 64, value ? ~std::uint64_t{0} : 0) {
  trim_tail();
}

void BitVec::trim_tail() {
  if (n_ % 64 != 0 && !words_.empty()) {
    words_.back() &= (std::uint64_t{1} << (n_ % 64)) - 1;
  }
}

std::size_t BitVec::count() const {
  std::size_t c = 0;
  for (auto w : words_) c += static_cast<std::size_t>(std::popcount(w));
  return c;
}

std::vector<std::size_t> BitVec::ones() const {
  std::vector<std::size_t> out;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    std::uint64_t word = words_[w];
    while (word != 0) {
      int b = std::countr_zero(word);
      out.push_back(w * 64 + static_cast<std::size_t>(b));
      word &= word - 1;
    }
  }
  return out;
}

void BitVec::clear_all() {
  for (auto& w : words_) w = 0;
}

BitMatrix::BitMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows),
      cols_(cols),
      stride_((cols + 63) / 64),
      words_(rows * stride_, 0) {}

std::size_t BitMatrix::row_count(std::size_t r) const {
  AMBB_CHECK(r < rows_);
  std::size_t c = 0;
  for (std::size_t w = r * stride_; w < (r + 1) * stride_; ++w) {
    c += static_cast<std::size_t>(std::popcount(words_[w]));
  }
  return c;
}

bool BitMatrix::row_contains(std::size_t r, const BitMatrix& other) const {
  AMBB_CHECK(r < rows_ && rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t w = r * stride_; w < (r + 1) * stride_; ++w) {
    if ((other.words_[w] & ~words_[w]) != 0) return false;
  }
  return true;
}

void BitMatrix::clear_all() {
  std::fill(words_.begin(), words_.end(), 0);
}

}  // namespace ambb
