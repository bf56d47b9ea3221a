// Kernel micro-bench: per-kernel ns/word of the runtime-dispatched SIMD
// layer (common/simd.hpp), scalar reference vs every tier this CPU supports,
// at word counts {4, 64, 1024, 16384} — the shapes the engine actually runs
// (paper-scale adjacency rows are 4-8 words; the ROADMAP N=20000 rows are
// ~313; the scan kernels batch further). Writes BENCH_kernels.json
// (schema specmatch-kernels-v1; path override: SPECMATCH_BENCH_JSON), the
// input of the tools/bench_compare.py kernel regression gate.
//
// Before timing anything, every supported tier is checked bit-for-bit
// against the scalar reference on random ragged-length arrays — a failed
// equivalence aborts the bench, so a kernel bug can never produce a
// plausible-looking perf record.
//
//   micro_kernels            # run equivalence checks + timings, write JSON
//   micro_kernels --probe    # print the supported tiers, one per line
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"

namespace specmatch {
namespace {

// Defeats dead-code elimination without a memory barrier per iteration.
volatile std::uint64_t g_sink = 0;

std::vector<std::uint64_t> random_words(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> out(n);
  for (auto& w : out) w = rng.next_u64();
  return out;
}

/// Checks every kernel of `tier` against the scalar reference on random
/// arrays of awkward lengths (zero, sub-block, exact-block, block + ragged
/// tail) and at nonzero scan starts. CHECK-fails on the first mismatch.
void check_tier_matches_scalar(simd::Tier tier) {
  const simd::Kernels& ref = simd::scalar_kernels();
  const simd::Kernels& k = simd::kernels_for(tier);
  const std::size_t sizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 64, 100};
  for (std::size_t trial = 0; trial < 8; ++trial) {
    for (const std::size_t n : sizes) {
      std::vector<std::uint64_t> a = random_words(n, 1000 + trial * 100 + n);
      std::vector<std::uint64_t> b = random_words(n, 2000 + trial * 100 + n);
      // Sprinkle zero words so the scan/early-exit kernels see both outcomes.
      for (std::size_t i = 0; i < n; ++i) {
        if ((i + trial) % 3 == 0) a[i] = 0;
        if ((i + trial) % 4 == 0) b[i] = 0;
      }
      const auto* ap = a.data();
      const auto* bp = b.data();
      SPECMATCH_CHECK(k.popcount(ap, n) == ref.popcount(ap, n));
      SPECMATCH_CHECK(k.and_popcount(ap, bp, n) == ref.and_popcount(ap, bp, n));
      SPECMATCH_CHECK(k.andnot_popcount(ap, bp, n) ==
                      ref.andnot_popcount(ap, bp, n));
      SPECMATCH_CHECK(k.intersects(ap, bp, n) == ref.intersects(ap, bp, n));
      SPECMATCH_CHECK(k.is_subset(ap, bp, n) == ref.is_subset(ap, bp, n));
      SPECMATCH_CHECK(k.any(ap, n) == ref.any(ap, n));
      for (const std::size_t begin : {std::size_t{0}, n / 2, n}) {
        SPECMATCH_CHECK(k.find_nonzero(ap, begin, n) ==
                        ref.find_nonzero(ap, begin, n));
        SPECMATCH_CHECK(k.find_nonzero_and(ap, bp, begin, n) ==
                        ref.find_nonzero_and(ap, bp, begin, n));
      }
      std::vector<std::uint64_t> got(n), want(n);
      k.store_and(got.data(), ap, bp, n);
      ref.store_and(want.data(), ap, bp, n);
      SPECMATCH_CHECK_MSG(got == want, "store_and mismatch at n=" << n);
      k.store_or(got.data(), ap, bp, n);
      ref.store_or(want.data(), ap, bp, n);
      SPECMATCH_CHECK_MSG(got == want, "store_or mismatch at n=" << n);
      k.store_andnot(got.data(), ap, bp, n);
      ref.store_andnot(want.data(), ap, bp, n);
      SPECMATCH_CHECK_MSG(got == want, "store_andnot mismatch at n=" << n);
    }
  }
}

struct KernelRow {
  std::string kernel;
  std::size_t words = 0;
  std::string dispatch;
  double ns_per_call = 0.0;
  double ns_per_word = 0.0;
};

/// Times `fn` (one kernel invocation returning a sink value) over `reps`
/// calls and returns ns per call. One untimed warmup call first.
template <typename Fn>
double time_ns_per_call(Fn&& fn, std::size_t reps) {
  std::uint64_t sink = fn();
  bench::WallTimer timer;
  for (std::size_t r = 0; r < reps; ++r) sink ^= fn();
  const double ns = timer.elapsed_ms() * 1e6 / static_cast<double>(reps);
  g_sink = g_sink ^ sink;
  return ns;
}

/// Benchmarks every kernel of `table` at `words` words, appending one row
/// per kernel labelled `dispatch`.
void bench_table(const simd::Kernels& table, const std::string& dispatch,
                 std::size_t words, std::size_t word_ops,
                 std::vector<KernelRow>& rows) {
  // reps scaled so each cell touches ~word_ops words regardless of size.
  const std::size_t reps = std::max<std::size_t>(8, word_ops / words);
  const std::vector<std::uint64_t> a = random_words(words, 11);
  const std::vector<std::uint64_t> b = random_words(words, 12);
  // The scan kernels get all-zero input: the full-range walk is their worst
  // case and the shape the skip-scan iteration actually pays for.
  const std::vector<std::uint64_t> zeros(words, 0);
  std::vector<std::uint64_t> dst(words, 0);
  const auto* ap = a.data();
  const auto* bp = b.data();
  const auto* zp = zeros.data();
  auto* dp = dst.data();
  const auto add = [&](simd::KernelId id, double ns) {
    rows.push_back({simd::kernel_name(id), words, dispatch, ns,
                    ns / static_cast<double>(words)});
  };
  using Id = simd::KernelId;
  add(Id::kPopcount,
      time_ns_per_call([&] { return table.popcount(ap, words); }, reps));
  add(Id::kAndPopcount, time_ns_per_call(
      [&] { return table.and_popcount(ap, bp, words); }, reps));
  add(Id::kAndnotPopcount, time_ns_per_call(
      [&] { return table.andnot_popcount(ap, bp, words); }, reps));
  add(Id::kStoreAnd, time_ns_per_call(
      [&] { table.store_and(dp, ap, bp, words); return dst[0]; }, reps));
  add(Id::kStoreOr, time_ns_per_call(
      [&] { table.store_or(dp, ap, bp, words); return dst[0]; }, reps));
  add(Id::kStoreAndnot, time_ns_per_call(
      [&] { table.store_andnot(dp, ap, bp, words); return dst[0]; }, reps));
  add(Id::kIntersects, time_ns_per_call(
      [&] { return std::uint64_t{table.intersects(ap, zp, words)}; }, reps));
  add(Id::kIsSubset, time_ns_per_call(
      [&] { return std::uint64_t{table.is_subset(zp, bp, words)}; }, reps));
  add(Id::kAny, time_ns_per_call(
      [&] { return std::uint64_t{table.any(zp, words)}; }, reps));
  add(Id::kFindNonzero, time_ns_per_call(
      [&] { return table.find_nonzero(zp, 0, words); }, reps));
  add(Id::kFindNonzeroAnd, time_ns_per_call(
      [&] { return table.find_nonzero_and(ap, zp, 0, words); }, reps));
}

void write_kernels_json(const std::string& path,
                        const std::vector<KernelRow>& rows) {
  errno = 0;
  std::ofstream out(path);
  if (!out.good()) {
    const std::string reason =
        errno != 0 ? std::strerror(errno) : "stream open failed";
    std::cerr << "ERROR: cannot open kernel bench JSON output '" << path
              << "' for writing: " << reason << "\n";
    SPECMATCH_CHECK_MSG(false, "cannot open kernel bench JSON output '"
                                   << path << "': " << reason);
  }
  out << "{\n\"schema\": \"specmatch-kernels-v1\",\n\"records\": [\n";
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const KernelRow& row = rows[r];
    out << "  {\"kernel\": \"" << row.kernel << "\", \"words\": " << row.words
        << ", \"dispatch\": \"" << row.dispatch
        << "\", \"ns_per_call\": " << row.ns_per_call
        << ", \"ns_per_word\": " << row.ns_per_word << "}"
        << (r + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "]\n}\n";
  out.flush();
  SPECMATCH_CHECK_MSG(out.good(),
                      "failed writing kernel bench JSON to '" << path << "'");
}

int run(int argc, char** argv) {
  std::vector<simd::Tier> supported = {simd::Tier::kScalar};
  if (simd::tier_supported(simd::Tier::kAvx2))
    supported.push_back(simd::Tier::kAvx2);

  if (argc > 1 && std::strcmp(argv[1], "--probe") == 0) {
    for (const simd::Tier t : supported) std::cout << to_string(t) << "\n";
    return 0;
  }

  for (const simd::Tier t : supported) check_tier_matches_scalar(t);
  std::cout << "equivalence: all tiers match scalar bit-for-bit (";
  for (std::size_t i = 0; i < supported.size(); ++i)
    std::cout << (i ? " " : "") << to_string(supported[i]);
  std::cout << ")\n";

  const bool is_smoke = env_flag("SPECMATCH_BENCH_SMOKE");
  // ~4M words per timing cell full-size (a few ms each), 64K under smoke.
  const std::size_t word_ops = is_smoke ? (std::size_t{1} << 16)
                                        : (std::size_t{1} << 22);

  std::vector<KernelRow> rows;
  for (const std::size_t words : {4, 64, 1024, 16384}) {
    // The scalar rows are the fixed baseline; "dispatched" is whatever tier
    // auto-resolution (or a forced SPECMATCH_SIMD) picked, labelled by name
    // so compare keys stay stable across machines with different ISAs.
    bench_table(simd::scalar_kernels(), "scalar", words, word_ops, rows);
    const simd::Tier active = simd::active_tier();
    if (active != simd::Tier::kScalar)
      bench_table(simd::kernels_for(active), to_string(active), words,
                  word_ops, rows);
  }

  std::cout << "active tier: " << to_string(simd::active_tier()) << "\n";
  Table table({"kernel", "words", "dispatch", "ns/call", "ns/word"});
  for (const KernelRow& row : rows)
    table.add_row({row.kernel, std::to_string(row.words), row.dispatch,
                   format_double(row.ns_per_call, 2),
                   format_double(row.ns_per_word, 4)});
  bench::print_panel("SIMD kernel layer (ns per call / per word)", table);

  const char* json_env = std::getenv("SPECMATCH_BENCH_JSON");
  const std::string json_path =
      json_env != nullptr && json_env[0] != '\0' ? json_env
                                                 : "BENCH_kernels.json";
  write_kernels_json(json_path, rows);
  std::cout << "wrote " << rows.size() << " kernel records to " << json_path
            << "\n";
  return 0;
}

}  // namespace
}  // namespace specmatch

int main(int argc, char** argv) { return specmatch::run(argc, argv); }
