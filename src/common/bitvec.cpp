#include "common/bitvec.hpp"

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

bool BitVec::contains(const BitVec& other) const {
  AMBB_CHECK(n_ == other.n_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if ((other.words_[i] & ~words_[i]) != 0) return false;
  }
  return true;
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

}  // namespace ambb
