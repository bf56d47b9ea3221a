// DynamicBitset: a fixed-size-at-construction bitset over 64-bit words, and
// BitsetView: a read-only view of words in the same layout.
//
// Dense interference graphs over N buyers keep one N-bit adjacency row per
// vertex in a single word block and hand rows out as BitsetViews; seller
// coalition feasibility checks reduce to word-parallel intersection tests of
// a row against a DynamicBitset, which keeps the N = 500 sweeps of Figs. 7-8
// fast on a single core. The interface is deliberately small and
// bounds-checked. The word loops themselves live in common/simd.hpp: every
// counting, masking, and scanning method routes through the
// runtime-dispatched kernel layer (AVX2 or scalar, bit-identical across
// tiers by contract).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/simd.hpp"

namespace specmatch {

class BitsetView;

namespace detail {
inline void check_same_size(std::size_t a, std::size_t b) {
  SPECMATCH_CHECK_MSG(a == b, "bitset size mismatch: " << a << " vs " << b);
}
}  // namespace detail

class DynamicBitset {
 public:
  DynamicBitset() = default;

  /// Creates a bitset of `size` bits, all clear.
  explicit DynamicBitset(std::size_t size)
      : size_(size), words_((size + kBits - 1) / kBits, 0) {}

  std::size_t size() const { return size_; }

  /// The backing words: bit k lives at bit k % 64 of word k / 64, and bits
  /// past size() are clear (every counting kernel relies on it).
  std::span<const std::uint64_t> words() const { return words_; }

  bool test(std::size_t pos) const {
    SPECMATCH_DCHECK(pos < size_);
    return (words_[pos / kBits] >> (pos % kBits)) & 1u;
  }

  void set(std::size_t pos) {
    SPECMATCH_DCHECK(pos < size_);
    words_[pos / kBits] |= std::uint64_t{1} << (pos % kBits);
  }

  void reset(std::size_t pos) {
    SPECMATCH_DCHECK(pos < size_);
    words_[pos / kBits] &= ~(std::uint64_t{1} << (pos % kBits));
  }

  void set(std::size_t pos, bool value) {
    if (value)
      set(pos);
    else
      reset(pos);
  }

  /// Clears every bit.
  void clear();

  /// Makes this an all-clear bitset of `size` bits, reusing the existing
  /// word storage when it is large enough (no allocation in steady state).
  void assign_zero(std::size_t size);

  /// Sets this to `a & b` / `a | b` / `a - b` without a temporary, reusing
  /// the existing word storage when possible. `this` may alias `a` or `b`.
  void assign_and(BitsetView a, BitsetView b);
  void assign_or(const DynamicBitset& a, const DynamicBitset& b);
  void assign_difference(const DynamicBitset& a, const DynamicBitset& b);
  /// Sets this to `~a & b` (ANDNOT operand order — the mirror image of
  /// assign_difference). Tail bits past size() stay clear because `b`'s
  /// tail is clear and the complement of `a` is masked by it.
  void assign_andnot(const DynamicBitset& a, const DynamicBitset& b);

  /// Number of set bits.
  std::size_t count() const;

  /// Number of bits set in this bitset but not in `other` —
  /// (*this - other).count() without materialising the difference.
  std::size_t difference_count(const DynamicBitset& other) const;

  bool any() const;
  bool none() const { return !any(); }

  /// True iff this bitset and `other` share at least one set bit.
  bool intersects(const DynamicBitset& other) const;

  /// Number of set bits shared with `other` — (*this & other).count()
  /// without materialising the intersection.
  std::size_t intersection_count(const DynamicBitset& other) const;

  /// True iff every set bit of this bitset is also set in `other`.
  bool is_subset_of(const DynamicBitset& other) const;

  DynamicBitset& operator|=(BitsetView other);
  DynamicBitset& operator&=(const DynamicBitset& other);
  /// Clears every bit that is set in `other` (set difference).
  DynamicBitset& operator-=(BitsetView other);

  bool operator==(const DynamicBitset& other) const = default;

  /// Index of the first set bit, or size() if none.
  std::size_t find_first() const;

  /// Index of the first set bit strictly after `pos`, or size() if none.
  std::size_t find_next(std::size_t pos) const;

  /// Calls `fn(index)` for every set bit in ascending order (see
  /// BitsetView::for_each_set).
  template <typename Fn>
  void for_each_set(Fn&& fn) const;

  /// Calls `fn(index)` for every bit set in both this bitset and `other`,
  /// in ascending order (see BitsetView::for_each_set_and).
  template <typename Fn>
  void for_each_set_and(const DynamicBitset& other, Fn&& fn) const;

  /// Set-bit indices in ascending order (convenience for tests / tracing).
  std::vector<std::size_t> to_indices() const;

 private:
  static constexpr std::size_t kBits = 64;

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

/// A read-only view of `size` bits held in ⌈size/64⌉ words laid out like
/// DynamicBitset's (bit k at bit k % 64 of word k / 64, bits past `size`
/// clear). Dense graphs hand out their adjacency rows this way, and every
/// DynamicBitset converts to one. Cheap to copy; the viewed words must
/// outlive the view.
class BitsetView {
 public:
  BitsetView(const std::uint64_t* words, std::size_t size)
      : words_(words), size_(size) {}
  BitsetView(const DynamicBitset& bits)  // NOLINT: implicit by design
      : words_(bits.words().data()), size_(bits.size()) {}

  std::size_t size() const { return size_; }
  std::size_t num_words() const { return (size_ + kBits - 1) / kBits; }
  std::span<const std::uint64_t> words() const { return {words_, num_words()}; }

  bool test(std::size_t pos) const {
    SPECMATCH_DCHECK(pos < size_);
    return (words_[pos / kBits] >> (pos % kBits)) & 1u;
  }

  /// True iff this and `other` share at least one set bit.
  bool intersects(BitsetView other) const {
    detail::check_same_size(size_, other.size_);
    return simd::intersects(words_, other.words_, num_words());
  }

  /// |this & other| without materialising the intersection.
  std::size_t intersection_count(BitsetView other) const {
    detail::check_same_size(size_, other.size_);
    return simd::and_popcount(words_, other.words_, num_words());
  }

  /// True iff every set bit of this is also set in `other`.
  bool is_subset_of(BitsetView other) const {
    detail::check_same_size(size_, other.size_);
    return simd::is_subset(words_, other.words_, num_words());
  }

  friend bool operator==(BitsetView a, BitsetView b) {
    const auto wa = a.words();
    const auto wb = b.words();
    return a.size_ == b.size_ && std::equal(wa.begin(), wa.end(), wb.begin());
  }

  /// Calls `fn(index)` for every set bit in ascending order. Views up to
  /// kSkipScanWords stay on the plain inline word loop (paper-scale markets;
  /// an indirect kernel call per word would cost more than it saves); larger
  /// ones skip runs of zero words through the dispatched nonzero-word scan.
  template <typename Fn>
  void for_each_set(Fn&& fn) const {
    const std::size_t nw = num_words();
    const std::uint64_t* wp = words_;
    if (nw <= kSkipScanWords) {
      for (std::size_t w = 0; w < nw; ++w) {
        std::uint64_t word = wp[w];
        while (word != 0) {
          const int bit = __builtin_ctzll(word);
          fn(w * kBits + static_cast<std::size_t>(bit));
          word &= word - 1;
        }
      }
      return;
    }
    for (std::size_t w = simd::find_nonzero_word(wp, 0, nw); w < nw;
         w = simd::find_nonzero_word(wp, w + 1, nw)) {
      std::uint64_t word = wp[w];
      do {
        const int bit = __builtin_ctzll(word);
        fn(w * kBits + static_cast<std::size_t>(bit));
        word &= word - 1;
      } while (word != 0);
    }
  }

  /// Calls `fn(index)` for every bit set in both this and `other`, in
  /// ascending order — for_each_set over (this & other) without the
  /// temporary (hot path of the MWIS induced-subgraph gather). Same
  /// small/large split as for_each_set, with the masked nonzero-word scan.
  template <typename Fn>
  void for_each_set_and(BitsetView other, Fn&& fn) const {
    detail::check_same_size(size_, other.size_);
    const std::size_t nw = num_words();
    const std::uint64_t* wp = words_;
    const std::uint64_t* op = other.words_;
    if (nw <= kSkipScanWords) {
      for (std::size_t w = 0; w < nw; ++w) {
        std::uint64_t word = wp[w] & op[w];
        while (word != 0) {
          const int bit = __builtin_ctzll(word);
          fn(w * kBits + static_cast<std::size_t>(bit));
          word &= word - 1;
        }
      }
      return;
    }
    for (std::size_t w = simd::find_nonzero_word_and(wp, op, 0, nw); w < nw;
         w = simd::find_nonzero_word_and(wp, op, w + 1, nw)) {
      std::uint64_t word = wp[w] & op[w];
      do {
        const int bit = __builtin_ctzll(word);
        fn(w * kBits + static_cast<std::size_t>(bit));
        word &= word - 1;
      } while (word != 0);
    }
  }

 private:
  static constexpr std::size_t kBits = 64;

  /// Word-count threshold below which iteration sticks to the plain inline
  /// loop instead of the dispatched zero-word skip scan (16 words = 1024
  /// bits, comfortably above the paper's N = 500 markets).
  static constexpr std::size_t kSkipScanWords = 16;

  const std::uint64_t* words_ = nullptr;
  std::size_t size_ = 0;
};

inline DynamicBitset operator|(DynamicBitset a, const DynamicBitset& b) {
  a |= b;
  return a;
}
inline DynamicBitset operator&(DynamicBitset a, const DynamicBitset& b) {
  a &= b;
  return a;
}
inline DynamicBitset operator-(DynamicBitset a, const DynamicBitset& b) {
  a -= b;
  return a;
}

template <typename Fn>
void DynamicBitset::for_each_set(Fn&& fn) const {
  BitsetView(*this).for_each_set(fn);
}

template <typename Fn>
void DynamicBitset::for_each_set_and(const DynamicBitset& other,
                                     Fn&& fn) const {
  BitsetView(*this).for_each_set_and(other, fn);
}

}  // namespace specmatch
