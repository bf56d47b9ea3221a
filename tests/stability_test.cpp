#include "matching/stability.hpp"

#include <gtest/gtest.h>

#include "matching/paper_examples.hpp"
#include "test_util.hpp"

namespace specmatch::matching {
namespace {

using testutil::make_matching;

TEST(InterferenceFreeTest, DetectsInterferingCoMembers) {
  const auto market = toy_example();
  // Buyers 0 and 1 interfere on channel a (0).
  EXPECT_FALSE(is_interference_free(market, make_matching(3, 5, {{0, 1}, {}, {}})));
  // Same pair on channel c (2) is fine.
  EXPECT_TRUE(is_interference_free(market, make_matching(3, 5, {{}, {}, {0, 1}})));
  EXPECT_TRUE(is_interference_free(market, Matching(3, 5)));
}

TEST(IndividualRationalityTest, InterferenceFreePositivePricesAreIR) {
  const auto market = toy_example();
  const auto m = make_matching(3, 5, {{3}, {2, 4}, {0, 1}});
  EXPECT_TRUE(is_individual_rational(market, m));
}

TEST(IndividualRationalityTest, InterferingMatchingIsNotIR) {
  const auto market = toy_example();
  const auto m = make_matching(3, 5, {{0, 1}, {}, {}});
  EXPECT_FALSE(is_individual_rational(market, m));
}

TEST(NashStabilityTest, EmptyMatchingIsUnstableWhenChannelsAreFree) {
  const auto market = toy_example();
  const Matching empty(3, 5);
  const auto deviation = find_nash_deviation(market, empty);
  ASSERT_TRUE(deviation.has_value());
  // Buyer 0's best channel is a (price 7), currently empty -> deviation.
  EXPECT_EQ(deviation->buyer, 0);
  EXPECT_EQ(deviation->target, 0);
  EXPECT_DOUBLE_EQ(deviation->deviation_utility, 7.0);
}

TEST(NashStabilityTest, DeviationBlockedByInterference) {
  const auto market = toy_example();
  // Buyer 1 alone on c; buyer 4 on c would be blocked (edge 1-4 on c)...
  // buyer 4's alternatives: b (price 2, empty -> better than 3? no, 3 > 2).
  auto m = Matching(3, 5);
  m.match(4, 2);  // buyer 5 on her favourite channel c (price 3)
  m.match(1, 2);  // wait: 1 and 4 interfere on c — build differently.
  m.unmatch(1);
  // Buyer 4 matched on c at price 3 = her maximum; b and a are worse.
  // Other buyers unmatched -> they all have deviations; restrict the check
  // to buyer 4 via the full scan result.
  const auto deviation = find_nash_deviation(market, m);
  ASSERT_TRUE(deviation.has_value());
  EXPECT_NE(deviation->buyer, 4);
}

TEST(NashStabilityTest, ToyFinalMatchingIsStable) {
  const auto market = toy_example();
  const auto final_matching = make_matching(3, 5, {{1, 3}, {2}, {0, 4}});
  EXPECT_TRUE(is_nash_stable(market, final_matching));
}

TEST(PairwiseStabilityTest, FindsMutualImprovement) {
  const auto market = counter_example();
  const auto algo_result =
      make_matching(3, 9, {{0, 4, 8}, {2, 3, 6}, {1, 5, 7}});
  const auto blocking = find_blocking_pair(market, algo_result);
  ASSERT_TRUE(blocking.has_value());
  EXPECT_FALSE(is_pairwise_stable(market, algo_result));
}

TEST(PairwiseStabilityTest, EmptyMarketMatchingOfSingletonIsStable) {
  // One buyer, one channel, positive price, matched: nothing can block.
  std::vector<double> prices = {1.0};
  std::vector<graph::InterferenceGraph> graphs(1,
                                               graph::InterferenceGraph(1));
  const market::SpectrumMarket market(1, 1, std::move(prices),
                                      std::move(graphs));
  const auto m = make_matching(1, 1, {{0}});
  EXPECT_TRUE(is_pairwise_stable(market, m));
  EXPECT_TRUE(is_nash_stable(market, m));
  EXPECT_TRUE(is_individual_rational(market, m));
}

TEST(PairwiseStabilityTest, SellerGainMustBeStrict) {
  // Two buyers with equal prices interfere; swapping them never strictly
  // improves the seller, so the matching is pairwise stable.
  std::vector<double> prices = {1.0, 1.0};
  std::vector<graph::InterferenceGraph> graphs;
  graphs.push_back(testutil::make_graph(2, {{0, 1}}));
  const market::SpectrumMarket market(1, 2, std::move(prices),
                                      std::move(graphs));
  const auto m = make_matching(1, 2, {{0}});
  EXPECT_TRUE(is_pairwise_stable(market, m));
}

TEST(PairwiseStabilityTest, UnmatchedBuyerAndFreeSellerBlock) {
  std::vector<double> prices = {1.0, 0.5};
  std::vector<graph::InterferenceGraph> graphs(1,
                                               graph::InterferenceGraph(2));
  const market::SpectrumMarket market(1, 2, std::move(prices),
                                      std::move(graphs));
  const Matching empty(1, 2);
  const auto blocking = find_blocking_pair(market, empty);
  ASSERT_TRUE(blocking.has_value());
  EXPECT_EQ(blocking->seller, 0);
  EXPECT_EQ(blocking->buyer, 0);
  EXPECT_TRUE(blocking->retained.empty());
  EXPECT_DOUBLE_EQ(blocking->seller_gain, 1.0);
}

}  // namespace
}  // namespace specmatch::matching
