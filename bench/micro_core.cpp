// Micro-benchmarks (google-benchmark): hot-path costs of the library —
// MWIS solvers, Stage I / Stage II, the full pipeline, the distributed
// runtime, and the bitset primitives everything leans on.
//
// After the google-benchmark suite, main() runs the core perf trajectory —
// the two-stage pipeline at 1 vs SPECMATCH_BENCH_THREADS lanes, build_market,
// solve_mwis vs the textbook rescan reference, and a market's fault-in and
// component labelling — and writes the results to BENCH_core.json (path
// override: SPECMATCH_BENCH_JSON). SPECMATCH_BENCH_SMOKE=1 shrinks the
// workloads to smoke-test size.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/bitset.hpp"
#include "common/config.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "dist/runtime.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "graph/mwis.hpp"
#include "market/scenario.hpp"
#include "matching/deferred_acceptance.hpp"
#include "mwis_reference.hpp"
#include "test_util.hpp"
#include "matching/two_stage.hpp"
#include "optimal/exact.hpp"
#include "serve/registry.hpp"
#include "store/market_store.hpp"
#include "workload/generator.hpp"

namespace specmatch {
namespace {

market::SpectrumMarket make_market(int sellers, int buyers,
                                   std::uint64_t seed = 42) {
  Rng rng(seed);
  workload::WorkloadParams params;
  params.num_sellers = sellers;
  params.num_buyers = buyers;
  return workload::generate_market(params, rng);
}

void BM_BitsetIntersects(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  DynamicBitset a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) a.set(i);
    if (rng.bernoulli(0.3)) b.set(i);
  }
  for (auto _ : state) benchmark::DoNotOptimize(a.intersects(b));
}
BENCHMARK(BM_BitsetIntersects)->Arg(64)->Arg(512)->Arg(4096);

void BM_GeometricGraph(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  std::vector<graph::Point> pts(n);
  for (auto& p : pts) p = {rng.uniform(0, 10), rng.uniform(0, 10)};
  for (auto _ : state) {
    auto g = graph::geometric(pts, 3.0);
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_GeometricGraph)->Arg(100)->Arg(300)->Arg(500);

/// cold_solve's market shape (perfbench/): M = 16 channels whose ranges are
/// the midpoints of 16 equal slices of (1, 5], so every channel percolates.
market::Scenario cold_solve_scenario(int buyers) {
  Rng rng(7);
  return testutil::stratified_scenario(rng, buyers, 1.0);
}

/// Every channel's interference graph of a cold_solve-shaped market, on the
/// engine's lanes (SPECMATCH_THREADS).
void BM_BuildMarket(benchmark::State& state) {
  const market::Scenario scenario =
      cold_solve_scenario(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto market = market::build_market(scenario);
    benchmark::DoNotOptimize(market);
  }
}
BENCHMARK(BM_BuildMarket)->Arg(8000)->Unit(benchmark::kMillisecond);

template <graph::MwisAlgorithm Alg>
void BM_Mwis(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  const auto g = graph::erdos_renyi(n, 0.2, rng);
  std::vector<double> w(n);
  for (auto& x : w) x = rng.uniform(0.01, 1.0);
  DynamicBitset all(n);
  for (std::size_t i = 0; i < n; ++i) all.set(i);
  for (auto _ : state) {
    auto result = graph::solve_mwis(g, w, all, Alg);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK_TEMPLATE(BM_Mwis, graph::MwisAlgorithm::kGwmin)
    ->Arg(50)
    ->Arg(200)
    ->Arg(500);
BENCHMARK_TEMPLATE(BM_Mwis, graph::MwisAlgorithm::kGwmin2)
    ->Arg(50)
    ->Arg(200)
    ->Arg(500);
BENCHMARK_TEMPLATE(BM_Mwis, graph::MwisAlgorithm::kExact)->Arg(20)->Arg(30);

void BM_StageI(benchmark::State& state) {
  const auto market = make_market(static_cast<int>(state.range(0)),
                                  static_cast<int>(state.range(1)));
  for (auto _ : state) {
    auto result = matching::run_deferred_acceptance(market);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_StageI)->Args({5, 50})->Args({10, 200})->Args({16, 500});

void BM_TwoStage(benchmark::State& state) {
  const auto market = make_market(static_cast<int>(state.range(0)),
                                  static_cast<int>(state.range(1)));
  for (auto _ : state) {
    auto result = matching::run_two_stage(market);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_TwoStage)->Args({5, 50})->Args({10, 200})->Args({16, 500});

void BM_OptimalBranchAndBound(benchmark::State& state) {
  const auto market = make_market(4, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto result = optimal::solve_optimal(market);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_OptimalBranchAndBound)->Arg(8)->Arg(10)->Arg(12);

void BM_DistributedDefault(benchmark::State& state) {
  const auto market = make_market(static_cast<int>(state.range(0)),
                                  static_cast<int>(state.range(1)));
  for (auto _ : state) {
    auto result = dist::run_distributed(market);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_DistributedDefault)->Args({5, 20})->Args({8, 60});

void BM_DistributedQuiescence(benchmark::State& state) {
  const auto market = make_market(static_cast<int>(state.range(0)),
                                  static_cast<int>(state.range(1)));
  const auto config = dist::DistConfig::quiescence();
  for (auto _ : state) {
    auto result = dist::run_distributed(market, config);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_DistributedQuiescence)->Args({5, 20})->Args({8, 60});

void BM_WorkloadGeneration(benchmark::State& state) {
  workload::WorkloadParams params;
  params.num_sellers = static_cast<int>(state.range(0));
  params.num_buyers = static_cast<int>(state.range(1));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Rng rng(++seed);
    auto market = workload::generate_market(params, rng);
    benchmark::DoNotOptimize(market);
  }
}
BENCHMARK(BM_WorkloadGeneration)->Args({10, 200})->Args({16, 500});

/// Best-of-`reps` wall-clock of `fn` in milliseconds (after one warm-up
/// call), which is what the JSON perf records store.
template <typename Fn>
double best_wall_ms(int reps, Fn&& fn) {
  fn();
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    bench::WallTimer timer;
    fn();
    best = r == 0 ? timer.elapsed_ms() : std::min(best, timer.elapsed_ms());
  }
  return best;
}

/// Fault-in of a spill_churn-shaped market (dense, M = 16; N = 2000 at full
/// size) at one lane: MarketStore::load of its snapshot pair plus the
/// MarketEntry adoption that labels every channel's components ("rounds" is
/// the channel count). Then the component labelling alone, every channel's
/// ComponentIndex of the fresh market ("rounds" is the component total).
void fault_in_records(int buyers, int reps,
                      std::vector<bench::BenchRecord>& records) {
  Rng rng(7);
  const auto scenario = std::make_shared<const market::Scenario>(
      testutil::stratified_scenario(rng, buyers, 0.0));
  const market::SpectrumMarket built = market::build_market(*scenario);
  const int M = built.num_channels();
  const auto n = static_cast<std::size_t>(buyers);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "specmatch_micro_core_store";
  std::filesystem::remove_all(dir);
  {
    store::MarketStore market_store(store::StoreConfig{dir.string(), true,
                                                       false});
    const std::vector<double> base(built.prices().begin(),
                                   built.prices().end());
    const std::vector<std::uint8_t> active(n, 1);
    const std::vector<std::uint8_t> dirty(n, 0);
    const std::vector<std::int32_t> matching(n, -1);
    store::MarketStateView view;
    view.market = &built;
    view.scenario = scenario.get();
    view.base_prices = base;
    view.active = active;
    view.dirty = dirty;
    view.matching = matching;
    market_store.write("m", view);
    const double fault_ms = best_wall_ms(reps, [&] {
      serve::MarketEntry entry(market_store.load("m"));
      benchmark::DoNotOptimize(entry.bytes);
    });
    records.push_back({"fault_in", M, buyers, "dense", 1, fault_ms, M});
  }
  std::filesystem::remove_all(dir);

  std::size_t components = 0;
  const double index_ms = best_wall_ms(reps, [&] {
    components = 0;
    for (ChannelId i = 0; i < M; ++i)
      components += graph::ComponentIndex(built.graph(i)).num_components();
  });
  records.push_back({"components_build", M, buyers, "dense", 1, index_ms,
                     static_cast<int>(components)});
}

/// The headline trajectory of this perf series: the full pipeline at the
/// paper's largest setting for serial vs parallel lanes, build_market on a
/// cold_solve-shaped market (N = 8000, M = 16; "rounds" holds its edge
/// total) at the same two lane counts, solve_mwis against the textbook
/// rescan (tests/mwis_reference.hpp) on G(500, 0.2), mean degree ~100: a
/// dense-row graph where a word-parallel rescore of every survivor per pick
/// is at its strongest, and a dense market's fault-in (fault_in_records).
void run_core_trajectory() {
  const bool smoke = env_flag("SPECMATCH_BENCH_SMOKE");
  const char* json_env = std::getenv("SPECMATCH_BENCH_JSON");
  const std::string json_path =
      (json_env != nullptr && json_env[0] != '\0') ? json_env
                                                   : "BENCH_core.json";
  const int parallel_threads = env_count("SPECMATCH_BENCH_THREADS", 1, 4);
  const int market_sellers = smoke ? 4 : 16;
  const int market_buyers = smoke ? 60 : 500;
  const std::size_t mwis_vertices = smoke ? 80 : 500;
  const int reps = smoke ? 2 : 5;

  std::vector<bench::BenchRecord> records;
  auto& config = SpecmatchConfig::global();
  const int saved_threads = config.num_threads;

  const auto market = make_market(market_sellers, market_buyers);
  for (int threads : {1, parallel_threads}) {
    config.num_threads = threads;
    (void)ThreadPool::global();
    matching::TwoStageResult result;
    const double wall_ms = best_wall_ms(
        reps, [&] { result = matching::run_two_stage(market); });
    records.push_back({"two_stage", market_sellers, market_buyers, "gwmin",
                       threads, wall_ms,
                       result.stage1.rounds + result.stage2.phase1_rounds +
                           result.stage2.phase2_rounds});
  }

  const int build_buyers = smoke ? 500 : 8000;
  const market::Scenario cold = cold_solve_scenario(build_buyers);
  for (int threads : {1, parallel_threads}) {
    config.num_threads = threads;
    (void)ThreadPool::global();
    std::size_t edges = 0;
    const double wall_ms = best_wall_ms(reps, [&] {
      const market::SpectrumMarket built = market::build_market(cold);
      edges = 0;
      for (ChannelId i = 0; i < built.num_channels(); ++i)
        edges += built.graph(i).num_edges();
    });
    records.push_back({"build_market", cold.num_channels(), build_buyers,
                       "geometric", threads, wall_ms,
                       static_cast<int>(edges)});
  }
  config.num_threads = 1;
  (void)ThreadPool::global();
  fault_in_records(smoke ? 300 : 2000, reps * 4, records);
  config.num_threads = saved_threads;
  (void)ThreadPool::global();

  // Dense G(n, 0.2) as in BM_Mwis; "rounds" is the chosen-set size here.
  Rng rng(3);
  const auto g = graph::erdos_renyi(mwis_vertices, 0.2, rng);
  std::vector<double> weights(mwis_vertices);
  for (double& w : weights) w = rng.uniform(0.01, 1.0);
  DynamicBitset all(mwis_vertices);
  for (std::size_t v = 0; v < mwis_vertices; ++v) all.set(v);
  for (graph::MwisAlgorithm algorithm :
       {graph::MwisAlgorithm::kGwmin, graph::MwisAlgorithm::kGwmin2}) {
    DynamicBitset chosen;
    const double fast_ms = best_wall_ms(reps * 4, [&] {
      chosen = graph::solve_mwis(g, weights, all, algorithm);
    });
    records.push_back({"mwis", 0, static_cast<int>(mwis_vertices),
                       std::string(to_string(algorithm)), 1, fast_ms,
                       static_cast<int>(chosen.count())});
    const double rescan_ms = best_wall_ms(reps * 4, [&] {
      chosen = graph::solve_mwis_rescan(g, weights, all, algorithm);
    });
    records.push_back({"mwis_rescan", 0, static_cast<int>(mwis_vertices),
                       std::string(to_string(algorithm)), 1, rescan_ms,
                       static_cast<int>(chosen.count())});
  }

  if (metrics::enabled()) {
    // Exercise the dist runtime once so the snapshot always carries message
    // counters, even when the google-benchmark dist cases were filtered out
    // (the smoke run keeps only one bitset case).
    (void)dist::run_distributed(make_market(smoke ? 3 : 5, smoke ? 15 : 20));
    const metrics::Snapshot snapshot = metrics::Registry::global().snapshot();
    bench::write_bench_json(json_path, records, &snapshot);
    std::cout << "\nwrote " << records.size() << " perf records + "
              << snapshot.counters.size() << " counters to " << json_path
              << "\n";
  } else {
    bench::write_bench_json(json_path, records);
    std::cout << "\nwrote " << records.size() << " perf records to "
              << json_path << "\n";
  }

  if (trace::enabled()) {
    const char* trace_env = std::getenv("SPECMATCH_TRACE_OUT");
    const std::string trace_path =
        (trace_env != nullptr && trace_env[0] != '\0') ? trace_env
                                                       : "specmatch_trace.json";
    std::ofstream trace_out(trace_path);
    SPECMATCH_CHECK_MSG(trace_out.good(),
                        "cannot open trace output " << trace_path);
    trace::Tracer::global().write_chrome_json(trace_out);
    std::cout << "wrote " << trace::Tracer::global().snapshot().size()
              << " spans to " << trace_path << "\n";
  }
}

}  // namespace
}  // namespace specmatch

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  try {
    specmatch::run_core_trajectory();
  } catch (const std::exception& error) {
    std::cerr << "micro_core: core trajectory failed: " << error.what()
              << "\n";
    return 1;
  }
  return 0;
}
