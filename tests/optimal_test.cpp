#include "optimal/exact.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "matching/paper_examples.hpp"
#include "matching/stability.hpp"
#include "optimal/greedy.hpp"
#include "optimal/random_matcher.hpp"
#include "test_util.hpp"
#include "workload/generator.hpp"

namespace specmatch::optimal {
namespace {

market::SpectrumMarket random_market(std::uint64_t seed, int sellers,
                                     int buyers) {
  Rng rng(seed);
  workload::WorkloadParams params;
  params.num_sellers = sellers;
  params.num_buyers = buyers;
  return workload::generate_market(params, rng);
}

TEST(ExactTest, ToyExampleOptimum) {
  const auto market = matching::toy_example();
  const auto result = solve_optimal(market);
  // The toy example's optimum is at least the Stage-II result (30).
  EXPECT_GE(result.welfare, 30.0 - 1e-9);
  EXPECT_TRUE(matching::is_interference_free(market, result.matching));
  // Cross-check against plain enumeration.
  const auto brute = solve_optimal_exhaustive(market);
  EXPECT_NEAR(result.welfare, brute.welfare, 1e-9);
}

TEST(ExactTest, BranchAndBoundMatchesExhaustiveOnRandomMarkets) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const auto market = random_market(seed, 3, 7);
    const auto bb = solve_optimal(market);
    const auto brute = solve_optimal_exhaustive(market);
    EXPECT_NEAR(bb.welfare, brute.welfare, 1e-9) << "seed " << seed;
    EXPECT_TRUE(matching::is_interference_free(market, bb.matching));
    EXPECT_NEAR(bb.matching.social_welfare(market), bb.welfare, 1e-9);
  }
}

TEST(ExactTest, PruningExploresFewerNodesThanExhaustive) {
  const auto market = random_market(7, 3, 8);
  const auto bb = solve_optimal(market);
  const auto brute = solve_optimal_exhaustive(market);
  EXPECT_LT(bb.nodes_explored, brute.nodes_explored);
}

TEST(ExactTest, EmptyGraphOptimumIsSumOfBestUtilities) {
  const int M = 3, N = 4;
  std::vector<double> prices;
  Rng rng(9);
  for (int i = 0; i < M * N; ++i) prices.push_back(rng.uniform(0.1, 1.0));
  std::vector<graph::InterferenceGraph> graphs(
      static_cast<std::size_t>(M),
      graph::InterferenceGraph(static_cast<std::size_t>(N)));
  const market::SpectrumMarket market(M, N, prices, std::move(graphs));
  const auto result = solve_optimal(market);
  double expect = 0.0;
  for (BuyerId j = 0; j < N; ++j) {
    double best = 0.0;
    for (ChannelId i = 0; i < M; ++i)
      best = std::max(best, market.utility(i, j));
    expect += best;
  }
  EXPECT_NEAR(result.welfare, expect, 1e-9);
}

TEST(ExactTest, CompleteGraphsOptimumIsAssignmentProblem) {
  // With complete interference graphs each channel holds one buyer, so the
  // optimum is a max-weight matching; verify against exhaustive search.
  const int M = 2, N = 5;
  std::vector<double> prices;
  Rng rng(10);
  for (int i = 0; i < M * N; ++i) prices.push_back(rng.uniform(0.1, 1.0));
  std::vector<graph::InterferenceGraph> graphs;
  for (int i = 0; i < M; ++i)
    graphs.push_back(graph::complete(static_cast<std::size_t>(N)));
  const market::SpectrumMarket market(M, N, prices, std::move(graphs));
  const auto bb = solve_optimal(market);
  const auto brute = solve_optimal_exhaustive(market);
  EXPECT_NEAR(bb.welfare, brute.welfare, 1e-9);
  for (ChannelId i = 0; i < M; ++i)
    EXPECT_LE(bb.matching.members_of(i).count(), 1u);
}

TEST(ExactTest, ExhaustiveGuardsAgainstLargeInputs) {
  const auto market = random_market(1, 2, 13);
  EXPECT_THROW((void)solve_optimal_exhaustive(market), CheckError);
}

TEST(GreedyTest, FeasibleAndDeterministic) {
  const auto market = random_market(3, 4, 10);
  const auto a = solve_greedy(market);
  const auto b = solve_greedy(market);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(matching::is_interference_free(market, a));
  a.check_consistent();
}

TEST(GreedyTest, TakesTheGlobalMaximumPairFirst) {
  // One channel, no interference: greedy assigns everyone.
  std::vector<double> prices = {0.3, 0.9, 0.5};
  std::vector<graph::InterferenceGraph> graphs(1,
                                               graph::InterferenceGraph(3));
  const market::SpectrumMarket market(1, 3, std::move(prices),
                                      std::move(graphs));
  const auto m = solve_greedy(market);
  EXPECT_EQ(m.num_matched(), 3);
}

TEST(GreedyTest, RespectsInterference) {
  std::vector<double> prices = {0.3, 0.9};
  std::vector<graph::InterferenceGraph> graphs;
  graphs.push_back(testutil::make_graph(2, {{0, 1}}));
  const market::SpectrumMarket market(1, 2, std::move(prices),
                                      std::move(graphs));
  const auto m = solve_greedy(market);
  EXPECT_EQ(m.seller_of(1), 0);  // the 0.9 pair wins
  EXPECT_EQ(m.seller_of(0), kUnmatched);
}

TEST(RandomSerialTest, FeasibleAndSeedDeterministic) {
  const auto market = random_market(4, 4, 12);
  Rng rng_a(11), rng_b(11), rng_c(12);
  const auto a = solve_random_serial(market, rng_a);
  const auto b = solve_random_serial(market, rng_b);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(matching::is_interference_free(market, a));
  // A different seed usually produces a different matching.
  const auto c = solve_random_serial(market, rng_c);
  (void)c;  // feasibility is what matters; equality is not required
  EXPECT_TRUE(matching::is_interference_free(market, c));
}

TEST(BaselineOrderingTest, OptimalDominatesGreedyDominatesNothing) {
  Summary greedy_ratio;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const auto market = random_market(seed, 4, 8);
    const auto opt = solve_optimal(market);
    const auto greedy = solve_greedy(market);
    EXPECT_LE(greedy.social_welfare(market), opt.welfare + 1e-9);
    greedy_ratio.add(greedy.social_welfare(market) / opt.welfare);
  }
  EXPECT_GT(greedy_ratio.mean(), 0.6);
}

}  // namespace
}  // namespace specmatch::optimal
