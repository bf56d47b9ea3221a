// Property tests of the runtime-dispatched SIMD kernel layer: every kernel
// of every tier this CPU supports against a naive per-word reference, on
// random arrays covering zero-length ranges, sub-block lengths, exact block
// multiples, and ragged tails — plus the dispatch API itself (tier probing,
// forcing, and fallback).
#include "common/simd.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/bitset.hpp"
#include "common/rng.hpp"

namespace specmatch {
namespace {

using simd::Kernels;
using simd::Tier;

std::vector<Tier> supported_tiers() {
  std::vector<Tier> tiers = {Tier::kScalar};
  if (simd::tier_supported(Tier::kAvx2)) tiers.push_back(Tier::kAvx2);
  return tiers;
}

/// Restores the pre-test dispatch tier on scope exit (force_tier leaks
/// process-global state otherwise).
class ScopedTier {
 public:
  explicit ScopedTier(Tier tier) : saved_(simd::active_tier()) {
    EXPECT_TRUE(simd::force_tier(tier));
  }
  ~ScopedTier() { simd::force_tier(saved_); }

 private:
  Tier saved_;
};

// The lengths every kernel is exercised at: empty, shorter than an AVX2
// block, exactly one AVX2 block (4), block multiples, and ragged tails
// around them.
const std::size_t kSizes[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
                              15, 16, 17, 31, 32, 33, 63, 100, 257};

struct WordArrays {
  std::vector<std::uint64_t> a;
  std::vector<std::uint64_t> b;
};

WordArrays make_arrays(std::size_t n, std::uint64_t seed, double zero_prob) {
  Rng rng(seed);
  WordArrays arrays;
  arrays.a.resize(n);
  arrays.b.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    arrays.a[i] = rng.bernoulli(zero_prob) ? 0 : rng.next_u64();
    arrays.b[i] = rng.bernoulli(zero_prob) ? 0 : rng.next_u64();
  }
  return arrays;
}

// Naive references, written as directly as possible (independent of the
// scalar tier in simd.cpp, so a bug there cannot self-certify).
std::size_t ref_popcount(const std::vector<std::uint64_t>& a) {
  std::size_t total = 0;
  for (std::uint64_t w : a) total += static_cast<std::size_t>(std::popcount(w));
  return total;
}

TEST(SimdTest, ScalarTierAlwaysSupported) {
  EXPECT_TRUE(simd::tier_supported(Tier::kScalar));
  EXPECT_EQ(simd::scalar_kernels().tier, Tier::kScalar);
}

TEST(SimdTest, TierNamesRoundTrip) {
  EXPECT_STREQ(to_string(Tier::kScalar), "scalar");
  EXPECT_STREQ(to_string(Tier::kAvx2), "avx2");
  for (std::size_t k = 0; k < simd::kNumKernels; ++k)
    EXPECT_STRNE(simd::kernel_name(static_cast<simd::KernelId>(k)), "unknown");
}

TEST(SimdTest, PopcountKernelsMatchReference) {
  for (const Tier tier : supported_tiers()) {
    const Kernels& k = simd::kernels_for(tier);
    for (const std::size_t n : kSizes) {
      for (std::uint64_t trial = 0; trial < 4; ++trial) {
        const WordArrays w = make_arrays(n, 10 + trial, trial * 0.25);
        std::size_t want_and = 0, want_andnot = 0;
        for (std::size_t i = 0; i < n; ++i) {
          want_and += static_cast<std::size_t>(
              std::popcount(w.a[i] & w.b[i]));
          want_andnot += static_cast<std::size_t>(
              std::popcount(w.a[i] & ~w.b[i]));
        }
        EXPECT_EQ(k.popcount(w.a.data(), n), ref_popcount(w.a))
            << to_string(tier) << " popcount n=" << n;
        EXPECT_EQ(k.and_popcount(w.a.data(), w.b.data(), n), want_and)
            << to_string(tier) << " and_popcount n=" << n;
        EXPECT_EQ(k.andnot_popcount(w.a.data(), w.b.data(), n), want_andnot)
            << to_string(tier) << " andnot_popcount n=" << n;
      }
    }
  }
}

TEST(SimdTest, StoreKernelsMatchReference) {
  for (const Tier tier : supported_tiers()) {
    const Kernels& k = simd::kernels_for(tier);
    for (const std::size_t n : kSizes) {
      const WordArrays w = make_arrays(n, 20, 0.2);
      std::vector<std::uint64_t> got(n), want(n);
      for (std::size_t i = 0; i < n; ++i) want[i] = w.a[i] & w.b[i];
      k.store_and(got.data(), w.a.data(), w.b.data(), n);
      EXPECT_EQ(got, want) << to_string(tier) << " store_and n=" << n;
      for (std::size_t i = 0; i < n; ++i) want[i] = w.a[i] | w.b[i];
      k.store_or(got.data(), w.a.data(), w.b.data(), n);
      EXPECT_EQ(got, want) << to_string(tier) << " store_or n=" << n;
      for (std::size_t i = 0; i < n; ++i) want[i] = w.a[i] & ~w.b[i];
      k.store_andnot(got.data(), w.a.data(), w.b.data(), n);
      EXPECT_EQ(got, want) << to_string(tier) << " store_andnot n=" << n;
      // Exact aliasing (dst == a) is allowed and used by the compound
      // assignment operators of DynamicBitset.
      std::vector<std::uint64_t> inplace = w.a;
      k.store_or(inplace.data(), inplace.data(), w.b.data(), n);
      for (std::size_t i = 0; i < n; ++i) want[i] = w.a[i] | w.b[i];
      EXPECT_EQ(inplace, want) << to_string(tier) << " aliased store n=" << n;
    }
  }
}

TEST(SimdTest, PredicateKernelsMatchReference) {
  for (const Tier tier : supported_tiers()) {
    const Kernels& k = simd::kernels_for(tier);
    for (const std::size_t n : kSizes) {
      // Sweep zero densities so every predicate sees true and false cases,
      // including the all-zero array (any == false, intersects == false).
      for (const double zero_prob : {0.0, 0.6, 1.0}) {
        const WordArrays w =
            make_arrays(n, 30 + static_cast<std::uint64_t>(zero_prob * 10),
                        zero_prob);
        bool want_intersects = false, want_subset = true, want_any = false;
        for (std::size_t i = 0; i < n; ++i) {
          want_intersects = want_intersects || (w.a[i] & w.b[i]) != 0;
          want_subset = want_subset && (w.a[i] & ~w.b[i]) == 0;
          want_any = want_any || w.a[i] != 0;
        }
        EXPECT_EQ(k.intersects(w.a.data(), w.b.data(), n), want_intersects)
            << to_string(tier) << " intersects n=" << n;
        EXPECT_EQ(k.is_subset(w.a.data(), w.b.data(), n), want_subset)
            << to_string(tier) << " is_subset n=" << n;
        EXPECT_EQ(k.any(w.a.data(), n), want_any)
            << to_string(tier) << " any n=" << n;
      }
      // A ⊆ A∪B always holds — a guaranteed-true subset case.
      const WordArrays w = make_arrays(n, 40, 0.3);
      std::vector<std::uint64_t> uni(n);
      for (std::size_t i = 0; i < n; ++i) uni[i] = w.a[i] | w.b[i];
      EXPECT_TRUE(k.is_subset(w.a.data(), uni.data(), n));
    }
  }
}

TEST(SimdTest, ScanKernelsMatchReference) {
  for (const Tier tier : supported_tiers()) {
    const Kernels& k = simd::kernels_for(tier);
    for (const std::size_t n : kSizes) {
      for (const double zero_prob : {0.0, 0.9, 1.0}) {
        const WordArrays w =
            make_arrays(n, 50 + static_cast<std::uint64_t>(zero_prob * 10),
                        zero_prob);
        // Every begin, including begin == n (empty range) and beyond-block
        // starts that land mid-array.
        for (std::size_t begin = 0; begin <= n; ++begin) {
          std::size_t want = n;
          for (std::size_t i = begin; i < n; ++i)
            if (w.a[i] != 0) {
              want = i;
              break;
            }
          EXPECT_EQ(k.find_nonzero(w.a.data(), begin, n), want)
              << to_string(tier) << " find_nonzero n=" << n
              << " begin=" << begin;
          std::size_t want_and = n;
          for (std::size_t i = begin; i < n; ++i)
            if ((w.a[i] & w.b[i]) != 0) {
              want_and = i;
              break;
            }
          EXPECT_EQ(k.find_nonzero_and(w.a.data(), w.b.data(), begin, n),
                    want_and)
              << to_string(tier) << " find_nonzero_and n=" << n
              << " begin=" << begin;
        }
      }
    }
  }
}

TEST(SimdTest, ZeroLengthNeverDereferences) {
  for (const Tier tier : supported_tiers()) {
    const Kernels& k = simd::kernels_for(tier);
    // Null data with nwords == 0 is exactly what an empty DynamicBitset
    // hands the kernels; any dereference dies under ASan.
    const std::uint64_t* null_words = nullptr;
    std::uint64_t* null_dst = nullptr;
    EXPECT_EQ(k.popcount(null_words, 0), 0u);
    EXPECT_EQ(k.and_popcount(null_words, null_words, 0), 0u);
    EXPECT_EQ(k.andnot_popcount(null_words, null_words, 0), 0u);
    k.store_and(null_dst, null_words, null_words, 0);
    k.store_or(null_dst, null_words, null_words, 0);
    k.store_andnot(null_dst, null_words, null_words, 0);
    EXPECT_FALSE(k.intersects(null_words, null_words, 0));
    EXPECT_TRUE(k.is_subset(null_words, null_words, 0));
    EXPECT_FALSE(k.any(null_words, 0));
    EXPECT_EQ(k.find_nonzero(null_words, 0, 0), 0u);
    EXPECT_EQ(k.find_nonzero_and(null_words, null_words, 0, 0), 0u);
  }
}

TEST(SimdTest, ForceTierRoundTrip) {
  const Tier original = simd::active_tier();
  for (const Tier tier : supported_tiers()) {
    EXPECT_TRUE(simd::force_tier(tier));
    EXPECT_EQ(simd::active_tier(), tier);
    // The dispatched wrappers follow the forced tier immediately.
    const std::uint64_t word = 0xF0F0F0F0F0F0F0F0ULL;
    EXPECT_EQ(simd::popcount_words(&word, 1), 32u);
  }
  EXPECT_TRUE(simd::force_tier(original));
  EXPECT_EQ(simd::active_tier(), original);
}

TEST(SimdTest, AutoResolvesToTheBestSupportedTier) {
  // Only SPECMATCH_SIMD=scalar may settle on scalar where the CPU runs AVX2:
  // unset, auto, avx2 and invalid values all resolve to the best tier.
  const char* env = std::getenv("SPECMATCH_SIMD");
  const bool scalar_requested =
      env != nullptr && std::strcmp(env, "scalar") == 0;
  const Tier want = scalar_requested || !simd::tier_supported(Tier::kAvx2)
                        ? Tier::kScalar
                        : Tier::kAvx2;
  const Kernels* saved = simd::detail::active.load();
  EXPECT_STREQ(to_string(simd::detail::resolve()->tier), to_string(want))
      << "SPECMATCH_SIMD=" << (env != nullptr ? env : "(unset)");
  simd::detail::active.store(saved);  // resolve() re-stores the table
}

TEST(SimdTest, UnsupportedForceIsRefused) {
  // On a machine without AVX2 the force must fail and change nothing; on a
  // machine with it, forcing succeeds. Either way active_tier stays valid.
  const Tier original = simd::active_tier();
  const bool forced = simd::force_tier(Tier::kAvx2);
  EXPECT_EQ(forced, simd::tier_supported(Tier::kAvx2));
  EXPECT_TRUE(simd::force_tier(original));
}

TEST(SimdTest, BitsetResultsIdenticalAcrossTiers) {
  // End-to-end through DynamicBitset: the same operation sequence under
  // every tier must produce identical observable results (the contract the
  // engine's determinism rests on).
  struct Observed {
    std::size_t count, inter_count, diff_count, first, next;
    bool intersects, subset, any;
    std::vector<std::size_t> indices, and_indices;
    std::vector<std::size_t> ops;
    bool operator==(const Observed&) const = default;
  };
  const auto observe = [](Tier tier) {
    ScopedTier scoped(tier);
    // 2500 bits = 40 words: over the kSkipScanWords threshold, so the
    // skip-scan iteration paths run too.
    const std::size_t bits = 2500;
    Rng rng(99);
    DynamicBitset a(bits), b(bits);
    for (std::size_t i = 0; i < bits; ++i) {
      if (rng.bernoulli(0.05)) a.set(i);
      if (rng.bernoulli(0.3)) b.set(i);
    }
    Observed o;
    o.count = a.count();
    o.inter_count = a.intersection_count(b);
    o.diff_count = a.difference_count(b);
    o.intersects = a.intersects(b);
    o.subset = a.is_subset_of(b);
    o.any = a.any();
    o.first = a.find_first();
    o.next = a.find_next(o.first);
    o.indices = a.to_indices();
    a.for_each_set_and(b, [&](std::size_t i) { o.and_indices.push_back(i); });
    DynamicBitset c(bits);
    c.assign_and(a, b);
    o.ops.push_back(c.count());
    c.assign_or(a, b);
    o.ops.push_back(c.count());
    c.assign_difference(a, b);
    o.ops.push_back(c.count());
    c.assign_andnot(a, b);
    o.ops.push_back(c.count());
    c = a;
    c |= b;
    o.ops.push_back(c.count());
    c = a;
    c &= b;
    o.ops.push_back(c.count());
    c = a;
    c -= b;
    o.ops.push_back(c.count());
    return o;
  };
  const Observed scalar = observe(Tier::kScalar);
  for (const Tier tier : supported_tiers()) {
    if (tier == Tier::kScalar) continue;
    EXPECT_EQ(observe(tier), scalar) << "tier " << to_string(tier);
  }
}

TEST(SimdTest, AssignAndnotSemantics) {
  // assign_andnot(a, b) == ~a & b, and its tail bits stay clear.
  DynamicBitset a(70), b(70);
  a.set(0);
  a.set(69);
  b.set(0);
  b.set(68);
  b.set(69);
  DynamicBitset c;
  c.assign_andnot(a, b);
  EXPECT_EQ(c.size(), 70u);
  EXPECT_FALSE(c.test(0));   // in a, masked out
  EXPECT_TRUE(c.test(68));   // in b only
  EXPECT_FALSE(c.test(69));  // in both
  EXPECT_EQ(c.count(), 1u);
  // The complement must not leak bits past size(): OR with the full set and
  // re-count through the word-level API.
  DynamicBitset none(70);
  c.assign_andnot(none, none);
  EXPECT_EQ(c.count(), 0u);
  EXPECT_FALSE(c.any());
}

}  // namespace
}  // namespace specmatch
