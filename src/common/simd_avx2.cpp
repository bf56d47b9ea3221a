// AVX2 kernel tier (256-bit). Built with -mavx2 on x86 (see src/CMakeLists);
// the table is only handed out when CPUID confirms the CPU actually runs
// AVX2, so a binary built here still dispatches correctly (to scalar) on a
// machine without it. Popcount uses the Mula nibble-LUT (PSHUFB lookup + PSADBW
// accumulate); the emptiness/subset/scan kernels lean on VPTEST early exits.
// All operations are integer/bitwise, so results are bit-identical to the
// scalar reference by construction.
#include "common/simd.hpp"

#include <bit>

#if (defined(__x86_64__) || defined(__i386__)) && defined(__AVX2__)
#include <immintrin.h>

namespace specmatch::simd {
namespace {

inline __m256i load4(const std::uint64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

inline void store4(std::uint64_t* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

/// Mula nibble-LUT popcount of one 256-bit lane, as four per-64-bit-word
/// byte sums packed into an epi64 vector (each lane <= 64, so summing many
/// vectors into an epi64 accumulator cannot overflow for any realistic n).
inline __m256i popcount_epi64(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
                                       3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2,
                                       2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0F);
  __m256i lo = _mm256_and_si256(v, low_mask);
  __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

inline std::size_t horizontal_sum_epi64(__m256i v) {
  __m128i lo = _mm256_castsi256_si128(v);
  __m128i hi = _mm256_extracti128_si256(v, 1);
  __m128i sum = _mm_add_epi64(lo, hi);
  return static_cast<std::size_t>(_mm_cvtsi128_si64(sum)) +
         static_cast<std::size_t>(
             _mm_cvtsi128_si64(_mm_unpackhi_epi64(sum, sum)));
}

std::size_t avx2_popcount(const std::uint64_t* a, std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    acc = _mm256_add_epi64(acc, popcount_epi64(load4(a + i)));
  std::size_t total = horizontal_sum_epi64(acc);
  for (; i < n; ++i) total += std::popcount(a[i]);
  return total;
}

std::size_t avx2_and_popcount(const std::uint64_t* a, const std::uint64_t* b,
                              std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    acc = _mm256_add_epi64(
        acc, popcount_epi64(_mm256_and_si256(load4(a + i), load4(b + i))));
  std::size_t total = horizontal_sum_epi64(acc);
  for (; i < n; ++i) total += std::popcount(a[i] & b[i]);
  return total;
}

std::size_t avx2_andnot_popcount(const std::uint64_t* a,
                                 const std::uint64_t* b, std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  // VPANDN computes ~x & y: mask first.
  for (; i + 4 <= n; i += 4)
    acc = _mm256_add_epi64(
        acc, popcount_epi64(_mm256_andnot_si256(load4(b + i), load4(a + i))));
  std::size_t total = horizontal_sum_epi64(acc);
  for (; i < n; ++i) total += std::popcount(a[i] & ~b[i]);
  return total;
}

void avx2_store_and(std::uint64_t* dst, const std::uint64_t* a,
                    const std::uint64_t* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    store4(dst + i, _mm256_and_si256(load4(a + i), load4(b + i)));
  for (; i < n; ++i) dst[i] = a[i] & b[i];
}

void avx2_store_or(std::uint64_t* dst, const std::uint64_t* a,
                   const std::uint64_t* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    store4(dst + i, _mm256_or_si256(load4(a + i), load4(b + i)));
  for (; i < n; ++i) dst[i] = a[i] | b[i];
}

void avx2_store_andnot(std::uint64_t* dst, const std::uint64_t* a,
                       const std::uint64_t* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    store4(dst + i, _mm256_andnot_si256(load4(b + i), load4(a + i)));
  for (; i < n; ++i) dst[i] = a[i] & ~b[i];
}

bool avx2_intersects(const std::uint64_t* a, const std::uint64_t* b,
                     std::size_t n) {
  std::size_t i = 0;
  // VPTEST a,b sets ZF iff (a & b) == 0 — exactly the intersect test.
  for (; i + 4 <= n; i += 4)
    if (!_mm256_testz_si256(load4(a + i), load4(b + i))) return true;
  for (; i < n; ++i)
    if ((a[i] & b[i]) != 0) return true;
  return false;
}

bool avx2_is_subset(const std::uint64_t* a, const std::uint64_t* b,
                    std::size_t n) {
  std::size_t i = 0;
  // VPTEST also sets CF iff (~a & b) == 0; testc(b, a) == 1 <=> a ⊆ b.
  for (; i + 4 <= n; i += 4)
    if (!_mm256_testc_si256(load4(b + i), load4(a + i))) return false;
  for (; i < n; ++i)
    if ((a[i] & ~b[i]) != 0) return false;
  return true;
}

bool avx2_any(const std::uint64_t* a, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i v = load4(a + i);
    if (!_mm256_testz_si256(v, v)) return true;
  }
  for (; i < n; ++i)
    if (a[i] != 0) return true;
  return false;
}

std::size_t avx2_find_nonzero(const std::uint64_t* a, std::size_t begin,
                              std::size_t n) {
  std::size_t i = begin;
  for (; i + 4 <= n; i += 4) {
    __m256i v = load4(a + i);
    if (!_mm256_testz_si256(v, v)) break;
  }
  for (; i < n; ++i)
    if (a[i] != 0) return i;
  return n;
}

std::size_t avx2_find_nonzero_and(const std::uint64_t* a,
                                  const std::uint64_t* b, std::size_t begin,
                                  std::size_t n) {
  std::size_t i = begin;
  for (; i + 4 <= n; i += 4)
    if (!_mm256_testz_si256(load4(a + i), load4(b + i))) break;
  for (; i < n; ++i)
    if ((a[i] & b[i]) != 0) return i;
  return n;
}

constexpr Kernels kAvx2Kernels = {
    avx2_popcount, avx2_and_popcount, avx2_andnot_popcount,
    avx2_store_and, avx2_store_or, avx2_store_andnot,
    avx2_intersects, avx2_is_subset, avx2_any,
    avx2_find_nonzero, avx2_find_nonzero_and,
    Tier::kAvx2,
};

}  // namespace

namespace detail {
const Kernels* avx2_kernels_or_null() {
  return __builtin_cpu_supports("avx2") ? &kAvx2Kernels : nullptr;
}
}  // namespace detail

}  // namespace specmatch::simd

#else  // non-x86 build (or AVX2 disabled): tier absent, dispatch skips it.

namespace specmatch::simd::detail {
const Kernels* avx2_kernels_or_null() { return nullptr; }
}  // namespace specmatch::simd::detail

#endif
