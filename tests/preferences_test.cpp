#include "market/preferences.hpp"

#include <gtest/gtest.h>

#include "market/coalition.hpp"
#include "matching/paper_examples.hpp"
#include "matching/two_stage.hpp"
#include "test_util.hpp"

namespace specmatch::market {
namespace {

using testutil::bits;

/// One channel, four buyers, edges 0-1 and 2-3, prices 1, 2, 3, 4.
SpectrumMarket one_channel_market() {
  std::vector<double> prices = {1, 2, 3, 4};
  std::vector<graph::InterferenceGraph> graphs;
  graphs.push_back(testutil::make_graph(4, {{0, 1}, {2, 3}}));
  return SpectrumMarket(1, 4, std::move(prices), std::move(graphs));
}

TEST(CoalitionTest, TotalPrice) {
  const auto m = one_channel_market();
  EXPECT_DOUBLE_EQ(total_price(m, 0, bits(4, {0, 2})), 4.0);
  EXPECT_DOUBLE_EQ(total_price(m, 0, bits(4, {})), 0.0);
}

TEST(CoalitionTest, InterferenceFree) {
  const auto m = one_channel_market();
  EXPECT_TRUE(interference_free(m, 0, bits(4, {0, 2})));
  EXPECT_FALSE(interference_free(m, 0, bits(4, {0, 1})));
  EXPECT_TRUE(interference_free(m, 0, bits(4, {})));
}

TEST(CoalitionTest, CoalitionValue) {
  const auto m = one_channel_market();
  EXPECT_DOUBLE_EQ(coalition_value(m, 0, bits(4, {1, 2})).value(), 5.0);
  EXPECT_FALSE(coalition_value(m, 0, bits(4, {2, 3})).has_value());
}

TEST(BuyerUtilityTest, FullUtilityWithoutInterferingNeighbours) {
  const auto m = one_channel_market();
  // Buyer 0 with member set {0, 2}: 2 is not a neighbour -> full price.
  EXPECT_DOUBLE_EQ(buyer_utility_in(m, 0, 0, bits(4, {0, 2})), 1.0);
  // Membership of j itself must not count as interference.
  EXPECT_DOUBLE_EQ(buyer_utility_in(m, 0, 0, bits(4, {0})), 1.0);
}

TEST(BuyerUtilityTest, ZeroWithInterferingNeighbour) {
  const auto m = one_channel_market();
  EXPECT_DOUBLE_EQ(buyer_utility_in(m, 0, 0, bits(4, {0, 1})), 0.0);
  EXPECT_DOUBLE_EQ(buyer_utility_in(m, 3, 0, bits(4, {2, 3})), 0.0);
}

TEST(BuyerUtilityTest, UnmatchedIsZero) {
  const auto m = one_channel_market();
  EXPECT_DOUBLE_EQ(buyer_utility_in(m, 0, kUnmatched, bits(4, {})), 0.0);
}

TEST(BuyerPrefersTest, Eq5Cases) {
  // Two channels so buyers can compare coalitions on different sellers.
  std::vector<double> prices = {
      5, 2, 3,  // channel 0
      4, 9, 3,  // channel 1
  };
  std::vector<graph::InterferenceGraph> graphs;
  graphs.push_back(testutil::make_graph(3, {{0, 1}}));
  graphs.emplace_back(3);
  const SpectrumMarket m(2, 3, std::move(prices), std::move(graphs));

  // Case 1 of eq. (5): no interference in C1 and higher utility.
  EXPECT_TRUE(buyer_prefers(m, 0, 0, bits(3, {0, 2}), 1, bits(3, {0})));
  // Case 2 of eq. (5): an interfering neighbour in C2 makes C1 preferred
  // even when the raw price on C2's channel is higher.
  EXPECT_TRUE(buyer_prefers(m, 0, 1, bits(3, {0}), 0, bits(3, {0, 1})));
  // Indifference: both coalitions contain interfering neighbours.
  EXPECT_FALSE(buyer_prefers(m, 0, 0, bits(3, {0, 1}), 0, bits(3, {0, 1})));
  // Indifference: unmatched vs interfering coalition (both utility 0).
  EXPECT_FALSE(
      buyer_prefers(m, 0, kUnmatched, bits(3, {}), 0, bits(3, {0, 1})));
  // Strictness: same coalition is never preferred to itself.
  EXPECT_FALSE(buyer_prefers(m, 0, 0, bits(3, {0}), 0, bits(3, {0})));
}

TEST(SellerPrefersTest, Eq6Cases) {
  const auto m = one_channel_market();
  // Higher total price wins among interference-free coalitions.
  EXPECT_TRUE(seller_prefers(m, 0, bits(4, {1, 2}), bits(4, {0, 2})));
  EXPECT_FALSE(seller_prefers(m, 0, bits(4, {0, 2}), bits(4, {1, 2})));
  // Interference-free beats interfering regardless of price.
  EXPECT_TRUE(seller_prefers(m, 0, bits(4, {0}), bits(4, {2, 3})));
  // An interfering coalition is never strictly preferred.
  EXPECT_FALSE(seller_prefers(m, 0, bits(4, {2, 3}), bits(4, {0})));
  // Indifference between two interfering coalitions.
  EXPECT_FALSE(seller_prefers(m, 0, bits(4, {2, 3}), bits(4, {0, 1})));
  // Indifference between unmatched and an interfering coalition.
  EXPECT_FALSE(seller_prefers(m, 0, bits(4, {}), bits(4, {0, 1})));
  EXPECT_FALSE(seller_prefers(m, 0, bits(4, {0, 1}), bits(4, {})));
  // Any paying interference-free coalition beats being unmatched.
  EXPECT_TRUE(seller_prefers(m, 0, bits(4, {0}), bits(4, {})));
}

// EXPERIMENTS.md known deviation 4: the offered price b_{i,j} is also
// buyer j's utility for channel i (§II-A), and a seller's utility is the
// total price of her coalition. On the toy example's final matching every
// matched buyer's utility is the price she offers her seller, every
// seller's coalition value is the sum of her members' prices, and social
// welfare counts each price once from either side.
TEST(CoalitionTest, PricesDoubleAsUtilitiesAndSellerUtilityIsTotalPrice) {
  const SpectrumMarket m = matching::toy_example();
  const matching::Matching& final_matching =
      matching::run_two_stage(m).stage2.matching;
  double buyer_side = 0.0;
  for (BuyerId j = 0; j < m.num_buyers(); ++j) {
    const ChannelId i = final_matching.seller_of(j);
    if (i == kUnmatched) continue;
    EXPECT_DOUBLE_EQ(final_matching.buyer_utility(m, j), m.utility(i, j));
    buyer_side += m.utility(i, j);
  }
  double seller_side = 0.0;
  for (ChannelId i = 0; i < m.num_channels(); ++i) {
    const DynamicBitset& members = final_matching.members_of(i);
    double sum = 0.0;
    members.for_each_set(
        [&](std::size_t j) { sum += m.utility(i, static_cast<BuyerId>(j)); });
    EXPECT_DOUBLE_EQ(coalition_value(m, i, members).value(), sum);
    seller_side += total_price(m, i, members);
  }
  EXPECT_DOUBLE_EQ(buyer_side, 30.0);  // Fig. 2(d)
  EXPECT_DOUBLE_EQ(seller_side, buyer_side);
  EXPECT_DOUBLE_EQ(final_matching.social_welfare(m), buyer_side);
}

}  // namespace
}  // namespace specmatch::market
