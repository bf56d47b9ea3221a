// Property tests for the parallel engine's core guarantee: SPECMATCH_THREADS
// changes wall-clock time only, never results. Runs the same computations at
// 1 and 4 lanes and requires bit-identical outputs, and checks that the
// incremental MWIS returns exactly the set of the textbook rescan reference
// on random and geometric graphs from sparse to near-complete.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "exp/experiment.hpp"
#include "graph/generators.hpp"
#include "graph/mwis.hpp"
#include "matching/two_stage.hpp"
#include "mwis_reference.hpp"
#include "test_util.hpp"
#include "workload/generator.hpp"

namespace specmatch {
namespace {

using testutil::ScopedThreads;

matching::TwoStageResult run_with_threads(const market::SpectrumMarket& market,
                                          graph::MwisAlgorithm policy,
                                          int num_threads) {
  ScopedThreads scope(num_threads);
  matching::TwoStageConfig config;
  config.coalition_policy = policy;
  return matching::run_two_stage(market, config);
}

void expect_identical(const matching::TwoStageResult& a,
                      const matching::TwoStageResult& b) {
  EXPECT_EQ(a.stage1.matching, b.stage1.matching);
  EXPECT_EQ(a.stage1.rounds, b.stage1.rounds);
  EXPECT_EQ(a.stage1.total_proposals, b.stage1.total_proposals);
  EXPECT_EQ(a.stage1.total_evictions, b.stage1.total_evictions);
  EXPECT_EQ(a.stage2.after_phase1, b.stage2.after_phase1);
  EXPECT_EQ(a.stage2.matching, b.stage2.matching);
  EXPECT_EQ(a.stage2.phase1_rounds, b.stage2.phase1_rounds);
  EXPECT_EQ(a.stage2.phase2_rounds, b.stage2.phase2_rounds);
  EXPECT_EQ(a.stage2.transfers_accepted, b.stage2.transfers_accepted);
  EXPECT_EQ(a.stage2.invitations_accepted, b.stage2.invitations_accepted);
  // Bit-identical welfare, not just approximately equal.
  EXPECT_EQ(a.welfare_stage1, b.welfare_stage1);
  EXPECT_EQ(a.welfare_phase1, b.welfare_phase1);
  EXPECT_EQ(a.welfare_final, b.welfare_final);
}

TEST(ParallelDeterminismTest, TwoStageIsThreadCountInvariant) {
  constexpr graph::MwisAlgorithm kPolicies[] = {
      graph::MwisAlgorithm::kGwmin, graph::MwisAlgorithm::kGwmin2,
      graph::MwisAlgorithm::kExact};
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    workload::WorkloadParams params;
    params.num_sellers = 6;
    params.num_buyers = 24;  // small enough for the exact B&B policy
    Rng rng(seed);
    const auto market = workload::generate_market(params, rng);
    for (graph::MwisAlgorithm policy : kPolicies) {
      SCOPED_TRACE(testing::Message()
                   << "seed=" << seed << " policy=" << to_string(policy));
      const auto serial = run_with_threads(market, policy, 1);
      const auto parallel = run_with_threads(market, policy, 4);
      expect_identical(serial, parallel);
    }
  }
}

TEST(ParallelDeterminismTest, LargerMarketsMatchUnderGreedyPolicies) {
  // Wider markets exercise multi-channel rounds where Stage-I selection
  // actually fans out across lanes.
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    workload::WorkloadParams params;
    params.num_sellers = 10;
    params.num_buyers = 120;
    Rng rng(seed);
    const auto market = workload::generate_market(params, rng);
    for (graph::MwisAlgorithm policy :
         {graph::MwisAlgorithm::kGwmin, graph::MwisAlgorithm::kGwmin2}) {
      SCOPED_TRACE(testing::Message()
                   << "seed=" << seed << " policy=" << to_string(policy));
      expect_identical(run_with_threads(market, policy, 1),
                       run_with_threads(market, policy, 4));
    }
  }
}

TEST(ParallelDeterminismTest, RunTrialsAggregatesAreThreadCountInvariant) {
  const auto run = [](int num_threads) {
    ScopedThreads scope(num_threads);
    return exp::run_trials(8, 2026, [](Rng& rng) {
      workload::WorkloadParams params;
      params.num_sellers = 5;
      params.num_buyers = 40;
      const auto market = workload::generate_market(params, rng);
      return exp::two_stage_metrics(market);
    });
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  ASSERT_EQ(serial.num_trials(), parallel.num_trials());
  const auto names = serial.metric_names();
  ASSERT_EQ(names, parallel.metric_names());
  for (const auto& name : names) {
    SCOPED_TRACE(name);
    EXPECT_EQ(serial.mean(name), parallel.mean(name));
    EXPECT_EQ(serial.stderror(name), parallel.stderror(name));
  }
}

/// Requires byte-identical adjacency: CSR arrays compared with memcmp, dense
/// rows word for word, and the same degree caches.
void expect_same_graphs(const market::SpectrumMarket& a,
                        const market::SpectrumMarket& b) {
  ASSERT_EQ(a.num_channels(), b.num_channels());
  for (ChannelId i = 0; i < a.num_channels(); ++i) {
    SCOPED_TRACE(testing::Message() << "channel " << i);
    const graph::InterferenceGraph& ga = a.graph(i);
    const graph::InterferenceGraph& gb = b.graph(i);
    ASSERT_EQ(ga.representation(), gb.representation());
    ASSERT_EQ(ga.num_vertices(), gb.num_vertices());
    ASSERT_EQ(ga.num_edges(), gb.num_edges());
    EXPECT_EQ(ga.max_degree(), gb.max_degree());
    const std::size_t n = ga.num_vertices();
    EXPECT_EQ(std::memcmp(ga.degrees().data(), gb.degrees().data(),
                          n * sizeof(std::uint32_t)),
              0);
    if (ga.representation() == graph::GraphRep::kCsr) {
      const graph::CsrView va = ga.csr_export();
      const graph::CsrView vb = gb.csr_export();
      ASSERT_EQ(va.narrow, vb.narrow);
      EXPECT_EQ(std::memcmp(va.offsets, vb.offsets,
                            (n + 1) * sizeof(std::uint32_t)),
                0);
      const std::size_t entries = 2 * va.num_edges;
      EXPECT_EQ(va.narrow ? std::memcmp(va.ids16, vb.ids16,
                                        entries * sizeof(std::uint16_t))
                          : std::memcmp(va.ids32, vb.ids32,
                                        entries * sizeof(std::uint32_t)),
                0);
    } else {
      const auto wa = ga.dense_rows();
      const auto wb = gb.dense_rows();
      EXPECT_TRUE(std::equal(wa.begin(), wa.end(), wb.begin(), wb.end()));
    }
  }
}

TEST(ParallelDeterminismTest, BuildMarketIsThreadCountInvariant) {
  // build_market builds one channel per engine lane; the graphs must not
  // depend on the lane count. cold_solve's shape (N = 8000, CSR) and
  // spill_churn's (N = 2000, dense).
  struct Shape {
    int buyers;
    double min_range;
    graph::GraphRep rep;
  };
  for (const Shape shape : {Shape{8000, 1.0, graph::GraphRep::kCsr},
                            Shape{2000, 0.0, graph::GraphRep::kDense}}) {
    SCOPED_TRACE(testing::Message() << "N=" << shape.buyers);
    Rng rng(71);
    const market::Scenario scenario =
        testutil::stratified_scenario(rng, shape.buyers, shape.min_range);
    std::optional<market::SpectrumMarket> serial;
    {
      ScopedThreads scope(1);
      serial.emplace(market::build_market(scenario));
    }
    ScopedThreads scope(4);
    const market::SpectrumMarket parallel = market::build_market(scenario);
    ASSERT_EQ(parallel.graph(0).representation(), shape.rep);
    expect_same_graphs(*serial, parallel);
  }
}

TEST(IncrementalMwisTest, MatchesRescanReferenceAcrossDensities) {
  // Small graphs from empty to near-complete.
  constexpr double kEdgeProbabilities[] = {0.0, 0.01, 0.05, 0.15, 0.4, 0.8};
  Rng rng(77);
  for (double p : kEdgeProbabilities) {
    for (std::size_t n : {1u, 17u, 130u}) {
      const auto graph = graph::erdos_renyi(n, p, rng);
      std::vector<double> weights(n);
      for (double& w : weights) w = rng.uniform();
      DynamicBitset candidates(n);
      for (std::size_t v = 0; v < n; ++v)
        if (rng.uniform() < 0.9) candidates.set(v);
      for (graph::MwisAlgorithm algorithm :
           {graph::MwisAlgorithm::kGwmin, graph::MwisAlgorithm::kGwmin2}) {
        SCOPED_TRACE(testing::Message() << "n=" << n << " p=" << p
                                        << " alg=" << to_string(algorithm));
        const auto fast = solve_mwis(graph, weights, candidates, algorithm);
        const auto reference =
            solve_mwis_rescan(graph, weights, candidates, algorithm);
        EXPECT_EQ(fast, reference);
      }
    }
  }
}

// Weights from a few values (ties in both GWMIN and GWMIN2 scores) plus some
// zeros (non-viable candidates, so local ids skip global ids).
std::vector<double> few_valued_weights(std::size_t n, Rng& rng) {
  constexpr double kWeightValues[] = {0.0, 0.5, 1.0, 1.5, 2.0, 2.0, 1.0, 0.5};
  std::vector<double> weights(n);
  for (double& w : weights) w = kWeightValues[rng.uniform_int(0, 7)];
  return weights;
}

/// `n` points uniform in a square of the given side.
std::vector<graph::Point> uniform_points(std::size_t n, double side,
                                         Rng& rng) {
  std::vector<graph::Point> points(n);
  for (graph::Point& p : points)
    p = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
  return points;
}

/// Requires solve_mwis to return the rescan reference's set on `g` for
/// GWMIN and GWMIN2, with candidate sets from 1% to all of the graph, so
/// the induced subgraph ranges from k << N to k = N.
void expect_matches_rescan_over_shares(const graph::InterferenceGraph& g,
                                       std::span<const double> weights,
                                       Rng& rng) {
  constexpr double kCandidateShares[] = {0.01, 0.05, 0.3, 1.0};
  const std::size_t n = g.num_vertices();
  for (double share : kCandidateShares) {
    DynamicBitset candidates(n);
    for (std::size_t v = 0; v < n; ++v)
      if (share == 1.0 || rng.uniform() < share) candidates.set(v);
    for (graph::MwisAlgorithm algorithm :
         {graph::MwisAlgorithm::kGwmin, graph::MwisAlgorithm::kGwmin2}) {
      SCOPED_TRACE(testing::Message()
                   << "n=" << n
                   << " rep=" << static_cast<int>(g.representation())
                   << " share=" << share << " alg=" << to_string(algorithm));
      EXPECT_EQ(solve_mwis(g, weights, candidates, algorithm),
                solve_mwis_rescan(g, weights, candidates, algorithm));
    }
  }
}

TEST(IncrementalMwisTest, MatchesRescanOnLargeSparseCandidateSets) {
  // Market-scale geometric graphs (mean degree ~14) under both forced
  // representations.
  Rng rng(2026);
  for (std::size_t n : {3000u, 8000u}) {
    // Density 4 per unit area, range 1.05: mean degree 4 * pi * 1.05^2.
    const double side = std::sqrt(static_cast<double>(n) / 4.0);
    const auto built = graph::geometric(uniform_points(n, side, rng), 1.05);
    const std::vector<double> weights = few_valued_weights(n, rng);
    for (graph::GraphRep rep :
         {graph::GraphRep::kCsr, graph::GraphRep::kDense}) {
      expect_matches_rescan_over_shares(
          graph::with_representation(built, rep), weights, rng);
    }
  }
}

TEST(IncrementalMwisTest, MatchesRescanOnDenseHighDegreeGraphs) {
  // spill_churn's shape: N = 2000 dense buyers in a 20 x 20 area, ranges at
  // midpoints of 16 equal slices of (0, 5]; every fifth slice spans
  // sub-percolating to mean degree ~290. Then G(500, p) near-complete.
  Rng rng(2027);
  const auto points = uniform_points(2000, 20.0, rng);
  const std::vector<double> geo_weights = few_valued_weights(2000, rng);
  for (int slice : {0, 5, 10, 15}) {
    const double range = 5.0 * (slice + 0.5) / 16.0;
    SCOPED_TRACE(testing::Message() << "range=" << range);
    const auto g = graph::geometric(points, range);
    ASSERT_EQ(g.representation(), graph::GraphRep::kDense);
    expect_matches_rescan_over_shares(g, geo_weights, rng);
  }
  for (double p : {0.2, 0.8}) {
    SCOPED_TRACE(testing::Message() << "p=" << p);
    const auto g = graph::erdos_renyi(500, p, rng);
    ASSERT_EQ(g.representation(), graph::GraphRep::kDense);
    expect_matches_rescan_over_shares(g, few_valued_weights(500, rng), rng);
  }
}

TEST(IncrementalMwisTest, OneScratchServesAnySequenceOfSolves) {
  // The engine reuses one scratch per lane across channels, components and
  // rounds: each solve must match the rescan whatever the scratch solved
  // before — a larger graph, a smaller one, other candidates.
  Rng rng(31);
  std::vector<graph::InterferenceGraph> graphs;
  for (std::size_t n : {2500u, 400u, 1200u}) {
    const double side = std::sqrt(static_cast<double>(n) / 4.0);
    const auto g = graph::geometric(uniform_points(n, side, rng), 1.05);
    graphs.push_back(graph::with_representation(g, graph::GraphRep::kCsr));
    graphs.push_back(graph::with_representation(g, graph::GraphRep::kDense));
  }
  graph::MwisScratch scratch;
  for (int solve = 0; solve < 24; ++solve) {
    const auto& g = graphs[static_cast<std::size_t>(rng.uniform_int(0, 5))];
    const std::size_t n = g.num_vertices();
    std::vector<double> weights(n);
    for (double& w : weights) w = rng.uniform(0.0, 1.0);
    const double share = rng.uniform(0.01, 1.0);
    DynamicBitset candidates(n);
    for (std::size_t v = 0; v < n; ++v)
      if (rng.uniform() < share) candidates.set(v);
    const auto algorithm = solve % 2 == 0 ? graph::MwisAlgorithm::kGwmin
                                          : graph::MwisAlgorithm::kGwmin2;
    SCOPED_TRACE(testing::Message() << "solve " << solve << " n=" << n);
    EXPECT_EQ(solve_mwis(g, weights, candidates, algorithm, scratch),
              solve_mwis_rescan(g, weights, candidates, algorithm));
  }
}

TEST(IncrementalMwisTest, HandlesZeroAndNegativeWeights) {
  Rng rng(5);
  const auto graph = graph::erdos_renyi(40, 0.1, rng);
  std::vector<double> weights(40);
  for (std::size_t v = 0; v < weights.size(); ++v)
    weights[v] = (v % 3 == 0) ? -rng.uniform() : (v % 3 == 1 ? 0.0
                                                             : rng.uniform());
  DynamicBitset candidates(40);
  for (std::size_t v = 0; v < 40; ++v) candidates.set(v);
  for (graph::MwisAlgorithm algorithm :
       {graph::MwisAlgorithm::kGwmin, graph::MwisAlgorithm::kGwmin2}) {
    EXPECT_EQ(solve_mwis(graph, weights, candidates, algorithm),
              solve_mwis_rescan(graph, weights, candidates, algorithm));
  }
}

}  // namespace
}  // namespace specmatch
