#include "common/simd.hpp"

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/check.hpp"

namespace specmatch::simd {

namespace {

// --- scalar reference kernels ----------------------------------------------
// These are the determinism baseline: plain per-word loops, one operation per
// word, no reordering. Every other tier must match them bit-for-bit (trivial
// here — everything is integer — but asserted anyway by tests/simd_test.cpp).

std::size_t scalar_popcount(const std::uint64_t* a, std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) total += std::popcount(a[i]);
  return total;
}

std::size_t scalar_and_popcount(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) total += std::popcount(a[i] & b[i]);
  return total;
}

std::size_t scalar_andnot_popcount(const std::uint64_t* a,
                                   const std::uint64_t* b, std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) total += std::popcount(a[i] & ~b[i]);
  return total;
}

void scalar_store_and(std::uint64_t* dst, const std::uint64_t* a,
                      const std::uint64_t* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] & b[i];
}

void scalar_store_or(std::uint64_t* dst, const std::uint64_t* a,
                     const std::uint64_t* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] | b[i];
}

void scalar_store_andnot(std::uint64_t* dst, const std::uint64_t* a,
                         const std::uint64_t* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] & ~b[i];
}

bool scalar_intersects(const std::uint64_t* a, const std::uint64_t* b,
                       std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    if ((a[i] & b[i]) != 0) return true;
  return false;
}

bool scalar_is_subset(const std::uint64_t* a, const std::uint64_t* b,
                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    if ((a[i] & ~b[i]) != 0) return false;
  return true;
}

bool scalar_any(const std::uint64_t* a, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    if (a[i] != 0) return true;
  return false;
}

std::size_t scalar_find_nonzero(const std::uint64_t* a, std::size_t begin,
                                std::size_t n) {
  for (std::size_t i = begin; i < n; ++i)
    if (a[i] != 0) return i;
  return n;
}

std::size_t scalar_find_nonzero_and(const std::uint64_t* a,
                                    const std::uint64_t* b, std::size_t begin,
                                    std::size_t n) {
  for (std::size_t i = begin; i < n; ++i)
    if ((a[i] & b[i]) != 0) return i;
  return n;
}

constexpr Kernels kScalarKernels = {
    scalar_popcount, scalar_and_popcount, scalar_andnot_popcount,
    scalar_store_and, scalar_store_or, scalar_store_andnot,
    scalar_intersects, scalar_is_subset, scalar_any,
    scalar_find_nonzero, scalar_find_nonzero_and,
    Tier::kScalar,
};

// --- dispatch resolution ----------------------------------------------------

/// Parses SPECMATCH_SIMD: true with *out set for "scalar" or "avx2", false
/// for auto (unset, empty or "auto"). Invalid values warn once and mean
/// auto; they never abort a run over a typo'd knob.
bool requested_tier(Tier* out) {
  const char* env = std::getenv("SPECMATCH_SIMD");
  if (env == nullptr || env[0] == '\0' || std::strcmp(env, "auto") == 0)
    return false;
  if (std::strcmp(env, "scalar") == 0) return *out = Tier::kScalar, true;
  if (std::strcmp(env, "avx2") == 0) return *out = Tier::kAvx2, true;
  std::fprintf(stderr,
               "specmatch: SPECMATCH_SIMD='%s' is not auto|avx2|scalar; "
               "using auto\n",
               env);
  return false;
}

const Kernels* table_or_null(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return &kScalarKernels;
    case Tier::kAvx2:
      return detail::avx2_kernels_or_null();
  }
  return nullptr;
}

/// One-time simd.dispatch.* info gauges: the chosen tier plus the CPUID/build
/// capability flags (so a JSON snapshot records why the tier was chosen).
void record_dispatch_metrics(const Kernels* chosen) {
  if (!metrics::enabled()) return;
  metrics::gauge_set("simd.dispatch.tier",
                     static_cast<double>(static_cast<int>(chosen->tier)));
  metrics::gauge_set("simd.cpu.avx2", tier_supported(Tier::kAvx2) ? 1.0 : 0.0);
}

}  // namespace

const char* to_string(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kAvx2:
      return "avx2";
  }
  return "unknown";
}

const char* kernel_name(KernelId id) {
  switch (id) {
    case KernelId::kPopcount:
      return "popcount";
    case KernelId::kAndPopcount:
      return "and_popcount";
    case KernelId::kAndnotPopcount:
      return "andnot_popcount";
    case KernelId::kStoreAnd:
      return "store_and";
    case KernelId::kStoreOr:
      return "store_or";
    case KernelId::kStoreAndnot:
      return "store_andnot";
    case KernelId::kIntersects:
      return "intersects";
    case KernelId::kIsSubset:
      return "is_subset";
    case KernelId::kAny:
      return "any";
    case KernelId::kFindNonzero:
      return "find_nonzero";
    case KernelId::kFindNonzeroAnd:
      return "find_nonzero_and";
    case KernelId::kNumKernels:
      break;
  }
  return "unknown";
}

const Kernels& scalar_kernels() { return kScalarKernels; }

bool tier_supported(Tier tier) { return table_or_null(tier) != nullptr; }

const Kernels& kernels_for(Tier tier) {
  const Kernels* k = table_or_null(tier);
  SPECMATCH_CHECK_MSG(k != nullptr, "SIMD tier " << to_string(tier)
                                                 << " unsupported on this "
                                                    "CPU/build");
  return *k;
}

Tier active_tier() { return detail::table().tier; }

bool force_tier(Tier tier) {
  const Kernels* k = table_or_null(tier);
  if (k == nullptr) return false;
  detail::active.store(k, std::memory_order_release);
  record_dispatch_metrics(k);
  return true;
}

namespace detail {

const Kernels* resolve() {
  // One probe per process; concurrent first calls race benignly (same value).
  static const Kernels* const resolved = [] {
    Tier want = Tier::kAvx2;  // auto: AVX2 when the CPU runs it
    const bool forced = requested_tier(&want);
    const Kernels* chosen = table_or_null(want);
    if (chosen == nullptr) {  // only AVX2 can be missing
      if (forced)
        std::fprintf(stderr,
                     "specmatch: SPECMATCH_SIMD=%s unsupported on this "
                     "CPU/build; falling back to scalar\n",
                     to_string(want));
      chosen = &kScalarKernels;
    }
    record_dispatch_metrics(chosen);
    return chosen;
  }();
  active.store(resolved, std::memory_order_release);
  return resolved;
}

void count_call_slow(KernelId id) {
  // Cached Counter pointers: the registry lookup (string hash + mutex) runs
  // once per kernel per process; afterwards a call is one relaxed add.
  static metrics::Counter* counters[kNumKernels] = {};
  static const bool initialised = [] {
    for (std::size_t k = 0; k < kNumKernels; ++k) {
      std::string name = "simd.";
      name += kernel_name(static_cast<KernelId>(k));
      name += ".calls";
      counters[k] = &metrics::Registry::global().counter(name);
    }
    return true;
  }();
  (void)initialised;
  counters[static_cast<std::size_t>(id)]->add();
}

}  // namespace detail

}  // namespace specmatch::simd
