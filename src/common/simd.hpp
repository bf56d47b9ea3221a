// Runtime-dispatched SIMD kernel layer for the word-array hot paths.
//
// Every bitset-shaped hot loop in the engine — adjacency intersection tests,
// MWIS induced-subgraph gathers, Stage II masked-applicant scans — bottoms
// out in a handful of primitives over arrays of 64-bit words: multi-word
// popcount, and/andnot-popcount ("count bits of A within mask B"), bulk
// and/or/andnot stores, emptiness/subset tests, and nonzero-word scans (the
// skeleton of find-first / find-next / for-each-set iteration). This header
// exposes those primitives once, behind a function-pointer table resolved
// at runtime:
//
//   AVX2 (256-bit, CPUID-probed)  ->  scalar
//
// The SPECMATCH_SIMD knob (auto | avx2 | scalar) forces a tier; a forced
// AVX2 the CPU cannot run falls back to scalar with one stderr warning. On
// non-x86 builds only the scalar tier exists.
//
// Hard contract: every tier returns bit-identical results. All kernels are
// pure integer/bitwise operations, so this holds by construction — there is
// no floating-point reassociation anywhere in the layer (the GWMIN2 weight
// sums in graph/mwis.cpp are plain scalar loops over the induced rows).
// tests/simd_test.cpp checks each kernel of each available tier against a
// naive reference, and the simd_equivalence ctest pins end-to-end matchings,
// serve transcripts, and bench `result:` lines across tiers.
//
// Observability: resolving the dispatch records a one-time simd.dispatch.*
// gauge set (chosen tier + CPUID flags) and each wrapper bumps a per-kernel
// invocation counter — both only when SPECMATCH_METRICS is on; when off the
// cost is the usual single relaxed load per call (see common/metrics.hpp).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/metrics.hpp"

namespace specmatch::simd {

/// Dispatch tier, lowest to highest. Values are stable (they appear in the
/// simd.dispatch.tier gauge and the bench JSON), so 1 stays unused.
enum class Tier : std::uint8_t {
  kScalar = 0,
  kAvx2 = 2,
};

/// "scalar" / "avx2".
const char* to_string(Tier tier);

/// Kernel identifiers, used for the per-kernel invocation counters and the
/// micro-bench rows. Order matches the Kernels table below.
enum class KernelId : std::uint8_t {
  kPopcount = 0,       ///< total set bits over a word array
  kAndPopcount,        ///< |A & B| — "bits of A inside mask B"
  kAndnotPopcount,     ///< |A & ~B| — difference count
  kStoreAnd,           ///< dst = a & b
  kStoreOr,            ///< dst = a | b
  kStoreAndnot,        ///< dst = a & ~b
  kIntersects,         ///< (A & B) != 0, early-exit
  kIsSubset,           ///< (A & ~B) == 0, early-exit
  kAny,                ///< A != 0, early-exit
  kFindNonzero,        ///< first word index with a[i] != 0 in [begin, n)
  kFindNonzeroAnd,     ///< first word index with (a[i] & b[i]) != 0
  kNumKernels,
};
inline constexpr std::size_t kNumKernels =
    static_cast<std::size_t>(KernelId::kNumKernels);

/// "popcount", "and_popcount", ... (the bench row / counter names).
const char* kernel_name(KernelId id);

/// One tier's kernel implementations. All kernels accept nwords == 0 (and
/// then never dereference the pointers). The store kernels allow dst to
/// alias a or b exactly (same base pointer); partial overlap is undefined.
struct Kernels {
  std::size_t (*popcount)(const std::uint64_t* a, std::size_t nwords);
  std::size_t (*and_popcount)(const std::uint64_t* a, const std::uint64_t* b,
                              std::size_t nwords);
  std::size_t (*andnot_popcount)(const std::uint64_t* a,
                                 const std::uint64_t* b, std::size_t nwords);
  void (*store_and)(std::uint64_t* dst, const std::uint64_t* a,
                    const std::uint64_t* b, std::size_t nwords);
  void (*store_or)(std::uint64_t* dst, const std::uint64_t* a,
                   const std::uint64_t* b, std::size_t nwords);
  void (*store_andnot)(std::uint64_t* dst, const std::uint64_t* a,
                       const std::uint64_t* b, std::size_t nwords);
  bool (*intersects)(const std::uint64_t* a, const std::uint64_t* b,
                     std::size_t nwords);
  bool (*is_subset)(const std::uint64_t* a, const std::uint64_t* b,
                    std::size_t nwords);
  bool (*any)(const std::uint64_t* a, std::size_t nwords);
  /// First i in [begin, nwords) with a[i] != 0, else nwords.
  std::size_t (*find_nonzero)(const std::uint64_t* a, std::size_t begin,
                              std::size_t nwords);
  /// First i in [begin, nwords) with (a[i] & b[i]) != 0, else nwords.
  std::size_t (*find_nonzero_and)(const std::uint64_t* a,
                                  const std::uint64_t* b, std::size_t begin,
                                  std::size_t nwords);
  Tier tier;
};

/// The scalar reference table — the determinism baseline every other tier
/// must match bit-for-bit (and the comparison leg of bench/micro_kernels).
const Kernels& scalar_kernels();

/// The kernel table of `tier`; CHECK-fails when the tier is unsupported on
/// this CPU/build (query tier_supported first).
const Kernels& kernels_for(Tier tier);

/// True when this build has the tier's translation unit AND the CPU reports
/// the ISA. kScalar is always supported.
bool tier_supported(Tier tier);

/// The tier the dispatched wrappers currently route to. Resolved on first
/// use from SPECMATCH_SIMD + CPUID; changed only by force_tier.
Tier active_tier();

/// Re-points the dispatched wrappers at `tier` (tests and benches; not
/// synchronised with in-flight kernel calls — switch between runs, like
/// SpecmatchConfig::num_threads). Returns false, changing nothing, when the
/// tier is unsupported.
bool force_tier(Tier tier);

namespace detail {

/// Active table pointer. Constant-initialised to null; the first dispatched
/// call resolves it (cheap acquire load afterwards). An atomic so tests that
/// force tiers between runs stay TSan-clean.
inline std::atomic<const Kernels*> active{nullptr};

/// One-time resolve (CPUID probe + SPECMATCH_SIMD): stores into `active`
/// and returns the table.
const Kernels* resolve();

inline const Kernels& table() {
  const Kernels* k = active.load(std::memory_order_acquire);
  return k != nullptr ? *k : *resolve();
}

/// Slow path of the per-kernel invocation counters (metrics on only).
void count_call_slow(KernelId id);

inline void count_call(KernelId id) {
  if (metrics::enabled()) count_call_slow(id);
}

// The AVX2 table, defined in simd_avx2.cpp. Null when the translation unit
// was built without the ISA (non-x86 targets) or the CPU lacks it: the file
// always compiles, only the kernels inside are conditional.
const Kernels* avx2_kernels_or_null();

}  // namespace detail

// --- dispatched wrappers (the API the engine calls) -------------------------

inline std::size_t popcount_words(const std::uint64_t* a, std::size_t nwords) {
  detail::count_call(KernelId::kPopcount);
  return detail::table().popcount(a, nwords);
}

inline std::size_t and_popcount(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t nwords) {
  detail::count_call(KernelId::kAndPopcount);
  return detail::table().and_popcount(a, b, nwords);
}

inline std::size_t andnot_popcount(const std::uint64_t* a,
                                   const std::uint64_t* b,
                                   std::size_t nwords) {
  detail::count_call(KernelId::kAndnotPopcount);
  return detail::table().andnot_popcount(a, b, nwords);
}

inline void store_and(std::uint64_t* dst, const std::uint64_t* a,
                      const std::uint64_t* b, std::size_t nwords) {
  detail::count_call(KernelId::kStoreAnd);
  detail::table().store_and(dst, a, b, nwords);
}

inline void store_or(std::uint64_t* dst, const std::uint64_t* a,
                     const std::uint64_t* b, std::size_t nwords) {
  detail::count_call(KernelId::kStoreOr);
  detail::table().store_or(dst, a, b, nwords);
}

inline void store_andnot(std::uint64_t* dst, const std::uint64_t* a,
                         const std::uint64_t* b, std::size_t nwords) {
  detail::count_call(KernelId::kStoreAndnot);
  detail::table().store_andnot(dst, a, b, nwords);
}

inline bool intersects(const std::uint64_t* a, const std::uint64_t* b,
                       std::size_t nwords) {
  detail::count_call(KernelId::kIntersects);
  return detail::table().intersects(a, b, nwords);
}

inline bool is_subset(const std::uint64_t* a, const std::uint64_t* b,
                      std::size_t nwords) {
  detail::count_call(KernelId::kIsSubset);
  return detail::table().is_subset(a, b, nwords);
}

inline bool any_word(const std::uint64_t* a, std::size_t nwords) {
  detail::count_call(KernelId::kAny);
  return detail::table().any(a, nwords);
}

inline std::size_t find_nonzero_word(const std::uint64_t* a, std::size_t begin,
                                     std::size_t nwords) {
  detail::count_call(KernelId::kFindNonzero);
  return detail::table().find_nonzero(a, begin, nwords);
}

inline std::size_t find_nonzero_word_and(const std::uint64_t* a,
                                         const std::uint64_t* b,
                                         std::size_t begin,
                                         std::size_t nwords) {
  detail::count_call(KernelId::kFindNonzeroAnd);
  return detail::table().find_nonzero_and(a, b, begin, nwords);
}

}  // namespace specmatch::simd
