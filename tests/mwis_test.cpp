#include "graph/mwis.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"

namespace specmatch::graph {
namespace {

using testutil::bits;

DynamicBitset all(std::size_t n) {
  DynamicBitset b(n);
  for (std::size_t i = 0; i < n; ++i) b.set(i);
  return b;
}

class MwisAlgorithmsTest : public ::testing::TestWithParam<MwisAlgorithm> {};

TEST_P(MwisAlgorithmsTest, EmptyGraphTakesEverything) {
  const auto g = empty(6);
  const std::vector<double> w = {1, 2, 3, 4, 5, 6};
  const auto result = solve_mwis(g, w, all(6), GetParam());
  EXPECT_EQ(result.count(), 6u);
}

TEST_P(MwisAlgorithmsTest, CompleteGraphTakesHeaviestVertex) {
  const auto g = complete(5);
  const std::vector<double> w = {1, 9, 3, 4, 5};
  const auto result = solve_mwis(g, w, all(5), GetParam());
  EXPECT_EQ(result, bits(5, {1}));
}

TEST_P(MwisAlgorithmsTest, RespectsCandidateMask) {
  const auto g = empty(5);
  const std::vector<double> w = {5, 5, 5, 5, 5};
  const auto result = solve_mwis(g, w, bits(5, {1, 3}), GetParam());
  EXPECT_EQ(result, bits(5, {1, 3}));
}

TEST_P(MwisAlgorithmsTest, ResultIsAlwaysIndependentSubsetOfCandidates) {
  Rng rng(17);
  for (int trial = 0; trial < 30; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 40));
    Rng graph_rng = rng.fork(static_cast<std::uint64_t>(trial));
    const auto g = erdos_renyi(n, 0.3, graph_rng);
    std::vector<double> w(n);
    for (auto& x : w) x = rng.uniform();
    DynamicBitset candidates(n);
    for (std::size_t i = 0; i < n; ++i)
      if (rng.bernoulli(0.7)) candidates.set(i);
    const auto result = solve_mwis(g, w, candidates, GetParam());
    EXPECT_TRUE(result.is_subset_of(candidates));
    EXPECT_TRUE(g.is_independent(result));
  }
}

TEST_P(MwisAlgorithmsTest, ZeroWeightVerticesAreNeverChosen) {
  const auto g = empty(4);
  const std::vector<double> w = {0.0, 1.0, -2.0, 3.0};
  const auto result = solve_mwis(g, w, all(4), GetParam());
  EXPECT_EQ(result, bits(4, {1, 3}));
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, MwisAlgorithmsTest,
                         ::testing::Values(MwisAlgorithm::kGwmin,
                                           MwisAlgorithm::kGwmin2,
                                           MwisAlgorithm::kExact),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(MwisExactTest, PathGraphKnownOptimum) {
  // Path 0-1-2-3-4 with weights 1,10,1,10,1 -> optimum {1,3} = 20.
  const auto g = path(5);
  const std::vector<double> w = {1, 10, 1, 10, 1};
  const auto result = solve_mwis(g, w, all(5), MwisAlgorithm::kExact);
  EXPECT_EQ(result, bits(5, {1, 3}));
}

TEST(MwisExactTest, OddCycleKnownOptimum) {
  // C5 with uniform weights: maximum independent set has size 2.
  const auto g = cycle(5);
  const std::vector<double> w(5, 1.0);
  const auto result = solve_mwis(g, w, all(5), MwisAlgorithm::kExact);
  EXPECT_EQ(result.count(), 2u);
}

TEST(MwisExactTest, ReportsSearchNodes) {
  const auto g = cycle(6);
  const std::vector<double> w(6, 1.0);
  MwisStats stats;
  (void)solve_mwis(g, w, all(6), MwisAlgorithm::kExact, &stats);
  EXPECT_GT(stats.nodes_explored, 0u);
}

TEST(MwisGreedyTest, GwminPrefersLowDegreeHighWeight) {
  // Star: center 0 with weight 5, leaves 1..4 weight 2 each. GWMIN scores:
  // center 5/5 = 1, leaf 2/2 = 1 -> tie resolves to vertex 0... center wins
  // ties by index, leaving {0}. Raise one leaf to break the tie properly.
  const auto g = testutil::make_graph(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  const std::vector<double> w = {5, 2.1, 2, 2, 2};
  const auto result = solve_mwis(g, w, all(5), MwisAlgorithm::kGwmin);
  EXPECT_EQ(result, bits(5, {1, 2, 3, 4}));
}

TEST(MwisGreedyTest, TieBreaksTowardLowestIndex) {
  const auto g = complete(3);
  const std::vector<double> w = {2, 2, 2};
  EXPECT_EQ(solve_mwis(g, w, all(3), MwisAlgorithm::kGwmin), bits(3, {0}));
  EXPECT_EQ(solve_mwis(g, w, all(3), MwisAlgorithm::kGwmin2), bits(3, {0}));
}

TEST(MwisGreedyTest, WeightSizeMismatchThrows) {
  const auto g = empty(3);
  const std::vector<double> w = {1, 2};
  EXPECT_THROW((void)solve_mwis(g, w, all(3), MwisAlgorithm::kGwmin),
               CheckError);
}

// Property sweep: greedy solutions are never better than exact, and exact is
// never worse than any single vertex.
class GreedyVsExactTest : public ::testing::TestWithParam<double> {};

TEST_P(GreedyVsExactTest, GreedyBoundedByExact) {
  const double density = GetParam();
  Rng rng(91);
  Summary ratio;
  for (int trial = 0; trial < 25; ++trial) {
    Rng graph_rng = rng.fork(static_cast<std::uint64_t>(trial));
    const auto g = erdos_renyi(18, density, graph_rng);
    std::vector<double> w(18);
    for (auto& x : w) x = rng.uniform(0.01, 1.0);
    const auto exact =
        set_weight(w, solve_mwis(g, w, all(18), MwisAlgorithm::kExact));
    for (auto alg : {MwisAlgorithm::kGwmin, MwisAlgorithm::kGwmin2}) {
      const auto greedy = set_weight(w, solve_mwis(g, w, all(18), alg));
      EXPECT_LE(greedy, exact + 1e-9);
      EXPECT_GT(greedy, 0.0);
      ratio.add(greedy / exact);
    }
  }
  // The GWMIN family is near-optimal on sparse random graphs.
  EXPECT_GT(ratio.mean(), 0.8);
}

INSTANTIATE_TEST_SUITE_P(Densities, GreedyVsExactTest,
                         ::testing::Values(0.1, 0.3, 0.6));

TEST(SetWeightTest, SumsSelectedWeights) {
  const std::vector<double> w = {1, 2, 4, 8};
  EXPECT_DOUBLE_EQ(set_weight(w, bits(4, {0, 2})), 5.0);
  EXPECT_DOUBLE_EQ(set_weight(w, bits(4, {})), 0.0);
}

}  // namespace
}  // namespace specmatch::graph
