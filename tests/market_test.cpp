#include "market/market.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/check.hpp"
#include "market/scenario.hpp"
#include "test_util.hpp"

namespace specmatch::market {
namespace {

SpectrumMarket tiny_market() {
  // 2 channels, 3 buyers; prices channel-major.
  std::vector<double> prices = {
      0.5, 0.2, 0.9,  // channel 0
      0.1, 0.8, 0.0,  // channel 1
  };
  std::vector<graph::InterferenceGraph> graphs;
  graphs.push_back(testutil::make_graph(3, {{0, 1}}));
  graphs.emplace_back(3);
  return SpectrumMarket(2, 3, std::move(prices), std::move(graphs));
}

TEST(SpectrumMarketTest, DimensionsAndUtilities) {
  const auto m = tiny_market();
  EXPECT_EQ(m.num_channels(), 2);
  EXPECT_EQ(m.num_buyers(), 3);
  EXPECT_DOUBLE_EQ(m.utility(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(m.utility(0, 2), 0.9);
  EXPECT_DOUBLE_EQ(m.utility(1, 1), 0.8);
}

TEST(SpectrumMarketTest, ChannelPricesIsContiguousRow) {
  const auto m = tiny_market();
  const auto row = m.channel_prices(1);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_DOUBLE_EQ(row[0], 0.1);
  EXPECT_DOUBLE_EQ(row[1], 0.8);
  EXPECT_DOUBLE_EQ(row[2], 0.0);
}

TEST(SpectrumMarketTest, BuyerUtilitiesIsColumn) {
  const auto m = tiny_market();
  const auto col = m.buyer_utilities(1);
  ASSERT_EQ(col.size(), 2u);
  EXPECT_DOUBLE_EQ(col[0], 0.2);
  EXPECT_DOUBLE_EQ(col[1], 0.8);
}

TEST(SpectrumMarketTest, InterferesQueriesTheRightGraph) {
  const auto m = tiny_market();
  EXPECT_TRUE(m.interferes(0, 0, 1));
  EXPECT_FALSE(m.interferes(1, 0, 1));
  EXPECT_FALSE(m.interferes(0, 0, 2));
}

TEST(SpectrumMarketTest, PreferenceOrderSortsByUtilityAndDropsZeros) {
  const auto m = tiny_market();
  // Buyer 2: channel 0 -> 0.9, channel 1 -> 0.0 (dropped).
  EXPECT_EQ(m.buyer_preference_order(2), (std::vector<ChannelId>{0}));
  // Buyer 1: channel 1 (0.8) then channel 0 (0.2).
  EXPECT_EQ(m.buyer_preference_order(1), (std::vector<ChannelId>{1, 0}));
}

TEST(SpectrumMarketTest, PreferenceOrderBreaksTiesByIndex) {
  std::vector<double> prices = {0.5, 0.5};  // 2 channels, 1 buyer
  std::vector<graph::InterferenceGraph> graphs(2,
                                               graph::InterferenceGraph(1));
  const SpectrumMarket m(2, 1, std::move(prices), std::move(graphs));
  EXPECT_EQ(m.buyer_preference_order(0), (std::vector<ChannelId>{0, 1}));
}

TEST(SpectrumMarketTest, DefaultParentsAreIdentity) {
  const auto m = tiny_market();
  EXPECT_EQ(m.buyer_parent(2), 2);
  EXPECT_EQ(m.seller_parent(1), 1);
}

TEST(SpectrumMarketTest, BadConstructionThrows) {
  std::vector<graph::InterferenceGraph> graphs(2,
                                               graph::InterferenceGraph(3));
  EXPECT_THROW(SpectrumMarket(2, 3, {1.0}, graphs), CheckError);
  std::vector<graph::InterferenceGraph> wrong(1, graph::InterferenceGraph(3));
  EXPECT_THROW(SpectrumMarket(2, 3, std::vector<double>(6, 0.0), wrong),
               CheckError);
  std::vector<graph::InterferenceGraph> wrong_size(
      2, graph::InterferenceGraph(4));
  EXPECT_THROW(
      SpectrumMarket(2, 3, std::vector<double>(6, 0.0), wrong_size),
      CheckError);
}

TEST(ScenarioTest, VirtualCountsAndParents) {
  Scenario s;
  s.seller_channel_counts = {2, 1};
  s.buyer_demands = {1, 3};
  s.buyer_locations = {{0, 0}, {5, 5}};
  s.channel_ranges = {1.0, 1.0, 1.0};
  s.utilities.assign(3 * 4, 0.5);
  s.validate();
  EXPECT_EQ(s.num_channels(), 3);
  EXPECT_EQ(s.num_virtual_buyers(), 4);
  EXPECT_EQ(s.virtual_seller_parents(), (std::vector<int>{0, 0, 1}));
  EXPECT_EQ(s.virtual_buyer_parents(), (std::vector<int>{0, 1, 1, 1}));
}

TEST(ScenarioTest, ValidationCatchesInconsistencies) {
  Scenario s;
  s.seller_channel_counts = {1};
  s.buyer_demands = {1};
  s.buyer_locations = {{0, 0}};
  s.channel_ranges = {1.0};
  s.utilities = {0.5};
  s.validate();  // baseline OK

  auto bad = s;
  bad.channel_ranges = {0.0};  // range must be positive
  EXPECT_THROW(bad.validate(), CheckError);

  bad = s;
  bad.utilities = {0.5, 0.5};
  EXPECT_THROW(bad.validate(), CheckError);

  bad = s;
  bad.buyer_locations.clear();
  EXPECT_THROW(bad.validate(), CheckError);

  bad = s;
  bad.buyer_demands = {0};
  EXPECT_THROW(bad.validate(), CheckError);
}

TEST(ScenarioTest, ValidationRejectsHostileGeometry) {
  Scenario s;
  s.seller_channel_counts = {1};
  s.buyer_demands = {1, 1};
  s.buyer_locations = {{0, 0}, {1, 1}};
  s.channel_ranges = {1.0};
  s.utilities = {0.5, 0.5};
  s.validate();  // baseline OK

  const double inf = std::numeric_limits<double>::infinity();
  auto bad = s;
  bad.channel_ranges = {inf};
  EXPECT_THROW(bad.validate(), CheckError);
  bad.channel_ranges = {std::nan("")};
  EXPECT_THROW(bad.validate(), CheckError);

  bad = s;
  bad.buyer_locations[1] = {inf, 0.0};
  EXPECT_THROW(bad.validate(), CheckError);
  bad.buyer_locations[1] = {0.0, std::nan("")};
  EXPECT_THROW(bad.validate(), CheckError);

  // Each coordinate is finite, but max - min is not.
  bad = s;
  bad.buyer_locations = {{-1e308, 0.0}, {1e308, 0.0}};
  EXPECT_THROW(bad.validate(), CheckError);
  bad.buyer_locations = {{0.0, -1e308}, {0.0, 1e308}};
  EXPECT_THROW(bad.validate(), CheckError);
  bad.buyer_locations = {{-8e307, 8e307}, {8e307, -8e307}};
  bad.validate();  // a span of 1.6e308 still fits
}

TEST(BuildMarketTest, SameParentDummiesInterfereOnEveryChannel) {
  Scenario s;
  s.seller_channel_counts = {2};
  s.buyer_demands = {2, 1};
  // Parent buyers far apart so geometric edges cannot connect them.
  s.buyer_locations = {{0, 0}, {9, 9}};
  s.channel_ranges = {0.5, 0.5};
  s.utilities.assign(2 * 3, 0.5);
  const auto market = build_market(s);
  EXPECT_EQ(market.num_channels(), 2);
  EXPECT_EQ(market.num_buyers(), 3);
  // Virtual buyers 0 and 1 share parent 0 -> interfere on both channels.
  EXPECT_TRUE(market.interferes(0, 0, 1));
  EXPECT_TRUE(market.interferes(1, 0, 1));
  // Across parents: far apart, no interference.
  EXPECT_FALSE(market.interferes(0, 0, 2));
  EXPECT_EQ(market.buyer_parent(0), 0);
  EXPECT_EQ(market.buyer_parent(1), 0);
  EXPECT_EQ(market.buyer_parent(2), 1);
  EXPECT_EQ(market.seller_parent(1), 0);
}

TEST(BuildMarketTest, GeometricEdgesFollowChannelRange) {
  Scenario s;
  s.seller_channel_counts = {1, 1};
  s.buyer_demands = {1, 1};
  s.buyer_locations = {{0, 0}, {0, 3}};
  s.channel_ranges = {4.0, 2.0};  // channel 0 links them, channel 1 does not
  s.utilities.assign(2 * 2, 0.5);
  const auto market = build_market(s);
  EXPECT_TRUE(market.interferes(0, 0, 1));
  EXPECT_FALSE(market.interferes(1, 0, 1));
}

}  // namespace
}  // namespace specmatch::market
