// Large-market scaling bench: the two-stage pipeline swept over
// N x M grids far beyond the paper's N = 500, written to BENCH_scale.json
// (schema v2, see bench_util.hpp). Each grid point records wall time,
// total rounds, the process peak RSS, and — when SPECMATCH_COUNT_ALLOCS is
// enabled — the engine's steady-round heap-allocation count, which the
// workspace refactor pins at zero.
//
// The deployment area grows with sqrt(N / 500) so buyer density (and hence
// interference degree) stays at the paper's level instead of degenerating
// into a clique; transmission ranges keep the paper's (0, 5] draw, so the
// per-channel graphs still straddle the MWIS dense/sparse strategy split.
// Extra legs at fixed points: a fresh-workspace run and a dense-vs-CSR run
// at N=8000, M=16; the whole solve under every SIMD tier the CPU supports at
// M=16 on the dense N=2000 and CSR N=8000 points; and sub-percolation
// markets whose channel graphs fracture into many components.
//
// Knobs: SPECMATCH_BENCH_SMOKE shrinks the grid to smoke size,
// SPECMATCH_SCALE_MAX_N caps the N sweep, SPECMATCH_BENCH_JSON overrides
// the output path, SPECMATCH_TRIALS the repetitions per point.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/alloc_count.hpp"
#include "common/check.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "graph/components.hpp"
#include "market/market.hpp"
#include "matching/two_stage.hpp"
#include "matching/workspace.hpp"
#include "workload/generator.hpp"

namespace specmatch {
namespace {

/// Process high-water RSS in MB (Linux ru_maxrss is in KiB). Monotone over
/// the process lifetime, so sweep points must run smallest-first for the
/// per-point readings to be attributable.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Total adjacency-storage footprint of a market's interference graphs, in
/// MB. The representation-comparison leg reports this rather than process
/// RSS: it runs after the big sweep points, by which time the allocator's
/// recycled arenas make RSS deltas unattributable.
double adjacency_mb(const market::SpectrumMarket& market) {
  std::size_t bytes = 0;
  for (ChannelId i = 0; i < market.num_channels(); ++i)
    bytes += market.graph(i).adjacency_bytes();
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

market::SpectrumMarket scale_market(int M, int N) {
  workload::WorkloadParams params;
  params.num_sellers = M;
  params.num_buyers = N;
  params.area_size = 10.0 * std::sqrt(std::max(N, 500) / 500.0);
  Rng rng(1000003ull * static_cast<std::uint64_t>(M) +
          static_cast<std::uint64_t>(N));
  return workload::generate_market(params, rng);
}

/// The component leg's market: the same density-preserving area growth, but
/// transmission ranges capped at 0.25 so the geometric graphs sit below the
/// percolation threshold and fracture into many small components.
market::SpectrumMarket component_market(int M, int N) {
  workload::WorkloadParams params;
  params.num_sellers = M;
  params.num_buyers = N;
  params.area_size = 10.0 * std::sqrt(std::max(N, 500) / 500.0);
  params.max_range = 0.25;
  Rng rng(2000003ull * static_cast<std::uint64_t>(M) +
          static_cast<std::uint64_t>(N));
  return workload::generate_market(params, rng);
}

int total_rounds(const matching::TwoStageResult& result) {
  return result.stage1.rounds + result.stage2.phase1_rounds +
         result.stage2.phase2_rounds;
}

std::int64_t total_steady_allocs(const matching::TwoStageResult& result) {
  if (result.stage1.steady_allocs < 0 || result.stage2.steady_allocs < 0)
    return -1;
  return result.stage1.steady_allocs + result.stage2.steady_allocs;
}

void run_scale_sweep() {
  const bool smoke = env_flag("SPECMATCH_BENCH_SMOKE");
  const char* json_env = std::getenv("SPECMATCH_BENCH_JSON");
  const std::string json_path =
      (json_env != nullptr && json_env[0] != '\0') ? json_env
                                                   : "BENCH_scale.json";
  const int max_n = env_count("SPECMATCH_SCALE_MAX_N", 1, 1 << 30);
  const int threads = SpecmatchConfig::global().num_threads;

  std::vector<int> n_grid = smoke ? std::vector<int>{60, 200}
                                  : std::vector<int>{500, 2000, 8000, 20000};
  const std::vector<int> m_grid =
      smoke ? std::vector<int>{4, 8} : std::vector<int>{16, 64};
  std::erase_if(n_grid, [&](int n) { return n > max_n; });

  std::vector<bench::BenchRecord> records;
  matching::MatchWorkspace workspace;  // reused across every point and rep
  // Sweep smallest-first so peak-RSS readings are attributable per point.
  for (int N : n_grid) {
    for (int M : m_grid) {
      const int reps = bench::env_trials(N >= 8000 ? 1 : 3);
      bench::WallTimer gen_timer;
      const auto market = scale_market(M, N);
      std::cout << "scale: N=" << N << " M=" << M << " generated in "
                << gen_timer.elapsed_ms() << " ms" << std::endl;

      matching::TwoStageResult result;
      double best_ms = 0.0;
      result = matching::run_two_stage(market, {}, workspace);  // warm-up
      for (int r = 0; r < reps; ++r) {
        bench::WallTimer timer;
        result = matching::run_two_stage(market, {}, workspace);
        best_ms = r == 0 ? timer.elapsed_ms()
                         : std::min(best_ms, timer.elapsed_ms());
      }

      bench::BenchRecord record{"two_stage_scale", M,       N, "gwmin",
                                threads,           best_ms, total_rounds(result)};
      record.peak_rss_mb = peak_rss_mb();
      record.steady_allocs = total_steady_allocs(result);
      if (N == 8000 && M == 16) {
        // Honest before/after: prior engines measured on this same point /
        // seed / 1-core CI container. The two_stage_scale_rep rows below
        // isolate the representation's share of the change.
        record.note =
            "pre-workspace dense engine (c1f9ac9) ran this point in 1097 ms, "
            "workspace dense engine in 1085 ms; single core, see docs caveats";
      }
      records.push_back(record);
      std::cout << "scale: N=" << N << " M=" << M << " wall_ms=" << best_ms
                << " rounds=" << record.rounds
                << " peak_rss_mb=" << record.peak_rss_mb
                << " steady_allocs=" << record.steady_allocs << std::endl;
      // `result:` lines carry only timing-free, thread-count-free values, so
      // runs at different thread counts or on different trees diff clean.
      std::cout << "result: scale N=" << N << " M=" << M
                << " welfare=" << result.welfare_final
                << " matched=" << result.final_matching().num_matched()
                << " rounds=" << record.rounds << std::endl;

      // Legacy-entry-point leg at the before/after point: a fresh workspace
      // per run, i.e. what callers that never pass a workspace pay.
      if (N == 8000 && M == 16 && !smoke) {
        matching::TwoStageResult fresh_result;
        const double fresh_ms = [&] {
          double best = 0.0;
          for (int r = 0; r < reps; ++r) {
            bench::WallTimer timer;
            fresh_result = matching::run_two_stage(market);
            best = r == 0 ? timer.elapsed_ms()
                          : std::min(best, timer.elapsed_ms());
          }
          return best;
        }();
        bench::BenchRecord fresh{"two_stage_scale_fresh_ws",
                                 M,
                                 N,
                                 "gwmin",
                                 threads,
                                 fresh_ms,
                                 total_rounds(fresh_result)};
        fresh.note = "fresh MatchWorkspace per run (legacy entry point)";
        records.push_back(fresh);
      }
    }
  }

  // Dense-vs-CSR representation comparison at the before/after point. Runs
  // LAST so the dense market's bitset rows (~128 MB at N=8000) cannot
  // inflate the attributable per-point ru_maxrss readings above — by now
  // the process high-water mark is already set by the N=20000 sweep points.
  if (!smoke && std::find(n_grid.begin(), n_grid.end(), 8000) != n_grid.end()) {
    const int M = 16;
    const int N = 8000;
    const int reps = bench::env_trials(3);
    const auto csr_market = scale_market(M, N);
    SPECMATCH_CHECK(csr_market.graph(0).representation() ==
                    graph::GraphRep::kCsr);
    const auto dense_market =
        market::with_graph_representation(csr_market, graph::GraphRep::kDense);

    matching::TwoStageResult csr_result;
    csr_result = matching::run_two_stage(csr_market, {}, workspace);
    double csr_ms = 0.0;
    for (int r = 0; r < reps; ++r) {
      bench::WallTimer timer;
      csr_result = matching::run_two_stage(csr_market, {}, workspace);
      csr_ms =
          r == 0 ? timer.elapsed_ms() : std::min(csr_ms, timer.elapsed_ms());
    }

    matching::TwoStageResult dense_result;
    dense_result = matching::run_two_stage(dense_market, {}, workspace);
    double dense_ms = 0.0;
    for (int r = 0; r < reps; ++r) {
      bench::WallTimer timer;
      dense_result = matching::run_two_stage(dense_market, {}, workspace);
      dense_ms = r == 0 ? timer.elapsed_ms()
                        : std::min(dense_ms, timer.elapsed_ms());
    }
    SPECMATCH_CHECK_MSG(
        csr_result.final_matching() == dense_result.final_matching(),
        "representation changed the matching at N=" << N << " M=" << M);

    const auto rep_record = [&](const char* note_rep, double wall_ms,
                                const matching::TwoStageResult& result,
                                double adj_mb) {
      bench::BenchRecord record{"two_stage_scale_rep", M,       N, "gwmin",
                                threads,               wall_ms,
                                total_rounds(result)};
      record.steady_allocs = total_steady_allocs(result);
      std::ostringstream note;
      note << note_rep << "; adjacency_mb=" << adj_mb
           << " (matchings verified identical)";
      record.note = note.str();
      return record;
    };
    const double csr_mb = adjacency_mb(csr_market);
    const double dense_mb = adjacency_mb(dense_market);
    records.push_back(rep_record("csr adjacency (default at this N)", csr_ms,
                                 csr_result, csr_mb));
    records.push_back(rep_record("dense bitset adjacency (forced)", dense_ms,
                                 dense_result, dense_mb));
    std::cout << "rep: N=" << N << " M=" << M << " csr_ms=" << csr_ms
              << " dense_ms=" << dense_ms << " csr_adj_mb=" << csr_mb
              << " dense_adj_mb=" << dense_mb << std::endl;
  }

  // Engine-level SIMD leg: the whole two-stage solve under each dispatch
  // tier this CPU runs, at M=16 on the dense N=2000 and the CSR N=8000
  // points. micro_kernels times the kernels alone; these rows show what a
  // tier is worth to a whole solve. Every tier must give the same matching.
  if (!smoke) {
    const simd::Tier saved_tier = simd::active_tier();
    for (const int N : {2000, 8000}) {
      if (std::find(n_grid.begin(), n_grid.end(), N) == n_grid.end()) continue;
      const int M = 16;
      const int reps = bench::env_trials(3);
      const auto market = scale_market(M, N);
      const bool dense =
          market.graph(0).representation() == graph::GraphRep::kDense;
      matching::Matching reference;
      for (const simd::Tier tier :
           {simd::Tier::kAvx2, simd::Tier::kSse2, simd::Tier::kScalar}) {
        if (!simd::force_tier(tier)) continue;
        matching::TwoStageResult result;
        result = matching::run_two_stage(market, {}, workspace);  // warm-up
        double best_ms = 0.0;
        for (int r = 0; r < reps; ++r) {
          bench::WallTimer timer;
          result = matching::run_two_stage(market, {}, workspace);
          best_ms = r == 0 ? timer.elapsed_ms()
                           : std::min(best_ms, timer.elapsed_ms());
        }
        if (reference.num_buyers() == 0) reference = result.final_matching();
        SPECMATCH_CHECK_MSG(result.final_matching() == reference,
                            "SIMD tier " << simd::to_string(tier)
                                         << " changed the matching at N="
                                         << N);
        bench::BenchRecord record{
            std::string("two_stage_scale_simd_") + simd::to_string(tier),
            M,
            N,
            "gwmin",
            threads,
            best_ms,
            total_rounds(result)};
        record.note = std::string(dense ? "dense" : "csr") +
                      " adjacency (matchings verified identical across tiers)";
        records.push_back(record);
        std::cout << "simd: N=" << N << " M=" << M
                  << " tier=" << simd::to_string(tier)
                  << " wall_ms=" << best_ms << std::endl;
      }
    }
    simd::force_tier(saved_tier);
  }

  // Component leg: sub-percolation sparse markets whose channel graphs
  // fracture into many components. Each point records the component census
  // (power-of-two size buckets) and the two-stage wall clock.
  {
    std::vector<int> comp_grid = smoke
                                     ? std::vector<int>{200}
                                     : std::vector<int>{20000, 50000, 100000};
    std::erase_if(comp_grid, [&](int n) { return n > max_n; });
    const int M = 8;
    for (const int N : comp_grid) {
      const int reps = bench::env_trials(N >= 50000 ? 1 : 2);
      const auto market = component_market(M, N);

      std::size_t total_components = 0;
      std::size_t largest = 0;
      std::vector<std::size_t> hist;  // bucket b: sizes in [2^b, 2^{b+1})
      for (ChannelId i = 0; i < M; ++i) {
        const graph::ComponentIndex& index = market.graph(i).components();
        total_components += index.num_components();
        largest = std::max(largest, index.largest_component());
        for (std::size_t c = 0; c < index.num_components(); ++c) {
          std::size_t bucket = 0;
          while ((std::size_t{1} << (bucket + 1)) <= index.size(c)) ++bucket;
          if (hist.size() <= bucket) hist.resize(bucket + 1, 0);
          ++hist[bucket];
        }
      }

      matching::TwoStageResult result;
      result = matching::run_two_stage(market, {}, workspace);  // warm-up
      double best_ms = 0.0;
      for (int r = 0; r < reps; ++r) {
        bench::WallTimer timer;
        result = matching::run_two_stage(market, {}, workspace);
        best_ms = r == 0 ? timer.elapsed_ms()
                         : std::min(best_ms, timer.elapsed_ms());
      }

      bench::BenchRecord record{"two_stage_scale_components",
                                M,
                                N,
                                "gwmin",
                                threads,
                                best_ms,
                                total_rounds(result)};
      record.peak_rss_mb = peak_rss_mb();
      record.steady_allocs = total_steady_allocs(result);
      std::ostringstream note;
      note << "components=" << total_components << " largest=" << largest
           << " hist=";
      for (std::size_t b = 0; b < hist.size(); ++b)
        note << (b == 0 ? "" : ",") << (std::size_t{1} << b) << ":" << hist[b];
      record.note = note.str();
      records.push_back(record);

      std::cout << "components: N=" << N << " M=" << M
                << " wall_ms=" << best_ms
                << " components=" << total_components
                << " largest=" << largest
                << " peak_rss_mb=" << record.peak_rss_mb
                << " steady_allocs=" << record.steady_allocs << std::endl;
      std::cout << "result: components N=" << N << " M=" << M
                << " welfare=" << result.welfare_final
                << " matched=" << result.final_matching().num_matched()
                << " rounds=" << record.rounds << std::endl;
    }
  }

  bench::write_bench_json(json_path, records);
  std::cout << "\nwrote " << records.size() << " scale records to "
            << json_path << "\n";
}

}  // namespace
}  // namespace specmatch

int main() {
  try {
    specmatch::run_scale_sweep();
  } catch (const std::exception& error) {
    std::cerr << "large_market: " << error.what() << "\n";
    return 1;
  }
  return 0;
}
