#include "common/bitset.hpp"

#include <algorithm>

#include "common/simd.hpp"

namespace specmatch {

void DynamicBitset::clear() { std::fill(words_.begin(), words_.end(), 0); }

void DynamicBitset::assign_zero(std::size_t size) {
  size_ = size;
  words_.assign((size + kBits - 1) / kBits, 0);
}

void DynamicBitset::assign_and(BitsetView a, BitsetView b) {
  detail::check_same_size(a.size(), b.size());
  size_ = a.size();
  // When this aliases a or b it already has a's size, so the resize cannot
  // move the words they view.
  words_.resize(a.num_words());
  simd::store_and(words_.data(), a.words().data(), b.words().data(),
                  words_.size());
}

void DynamicBitset::assign_or(const DynamicBitset& a, const DynamicBitset& b) {
  detail::check_same_size(a.size(), b.size());
  size_ = a.size_;
  words_.resize(a.words_.size());
  simd::store_or(words_.data(), a.words_.data(), b.words_.data(),
                 words_.size());
}

void DynamicBitset::assign_difference(const DynamicBitset& a,
                                      const DynamicBitset& b) {
  detail::check_same_size(a.size(), b.size());
  size_ = a.size_;
  words_.resize(a.words_.size());
  simd::store_andnot(words_.data(), a.words_.data(), b.words_.data(),
                     words_.size());
}

void DynamicBitset::assign_andnot(const DynamicBitset& a,
                                  const DynamicBitset& b) {
  detail::check_same_size(a.size(), b.size());
  size_ = a.size_;
  words_.resize(a.words_.size());
  // ~a & b == b & ~a: reuse the andnot store with the operands swapped.
  simd::store_andnot(words_.data(), b.words_.data(), a.words_.data(),
                     words_.size());
}

std::size_t DynamicBitset::count() const {
  return simd::popcount_words(words_.data(), words_.size());
}

bool DynamicBitset::any() const {
  return simd::any_word(words_.data(), words_.size());
}

bool DynamicBitset::intersects(const DynamicBitset& other) const {
  detail::check_same_size(size_, other.size());
  return simd::intersects(words_.data(), other.words_.data(), words_.size());
}

std::size_t DynamicBitset::intersection_count(const DynamicBitset& other) const {
  detail::check_same_size(size_, other.size());
  return simd::and_popcount(words_.data(), other.words_.data(), words_.size());
}

std::size_t DynamicBitset::difference_count(const DynamicBitset& other) const {
  detail::check_same_size(size_, other.size());
  return simd::andnot_popcount(words_.data(), other.words_.data(),
                               words_.size());
}

bool DynamicBitset::is_subset_of(const DynamicBitset& other) const {
  detail::check_same_size(size_, other.size());
  return simd::is_subset(words_.data(), other.words_.data(), words_.size());
}

DynamicBitset& DynamicBitset::operator|=(BitsetView other) {
  detail::check_same_size(size_, other.size());
  simd::store_or(words_.data(), words_.data(), other.words().data(),
                 words_.size());
  return *this;
}

DynamicBitset& DynamicBitset::operator&=(const DynamicBitset& other) {
  detail::check_same_size(size_, other.size());
  simd::store_and(words_.data(), words_.data(), other.words_.data(),
                  words_.size());
  return *this;
}

DynamicBitset& DynamicBitset::operator-=(BitsetView other) {
  detail::check_same_size(size_, other.size());
  simd::store_andnot(words_.data(), words_.data(), other.words().data(),
                     words_.size());
  return *this;
}

std::size_t DynamicBitset::find_first() const {
  const std::size_t w =
      simd::find_nonzero_word(words_.data(), 0, words_.size());
  if (w == words_.size()) return size_;
  return w * kBits + static_cast<std::size_t>(__builtin_ctzll(words_[w]));
}

std::size_t DynamicBitset::find_next(std::size_t pos) const {
  ++pos;
  if (pos >= size_) return size_;
  std::size_t w = pos / kBits;
  // The word containing `pos` needs its low bits masked off, so it cannot go
  // through the plain nonzero scan; the rest of the row can.
  const std::uint64_t masked = words_[w] & (~std::uint64_t{0} << (pos % kBits));
  if (masked != 0)
    return w * kBits + static_cast<std::size_t>(__builtin_ctzll(masked));
  w = simd::find_nonzero_word(words_.data(), w + 1, words_.size());
  if (w == words_.size()) return size_;
  return w * kBits + static_cast<std::size_t>(__builtin_ctzll(words_[w]));
}

std::vector<std::size_t> DynamicBitset::to_indices() const {
  std::vector<std::size_t> out;
  out.reserve(count());
  for_each_set([&](std::size_t i) { out.push_back(i); });
  return out;
}

}  // namespace specmatch
