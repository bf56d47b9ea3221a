#include "matching/pricing.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "matching/paper_examples.hpp"
#include "test_util.hpp"
#include "workload/generator.hpp"

namespace specmatch::matching {
namespace {

market::SpectrumMarket random_market(std::uint64_t seed, int sellers = 4,
                                     int buyers = 8) {
  Rng rng(seed);
  workload::WorkloadParams params;
  params.num_sellers = sellers;
  params.num_buyers = buyers;
  return workload::generate_market(params, rng);
}

TEST(PayYourBidTest, SellersCaptureTheWholeSurplus) {
  const auto market = toy_example();
  const auto result = run_two_stage(market);
  const auto report = pay_your_bid(market, result.final_matching());
  EXPECT_DOUBLE_EQ(report.welfare, 30.0);
  EXPECT_DOUBLE_EQ(report.total_revenue, 30.0);
  EXPECT_DOUBLE_EQ(report.total_buyer_surplus, 0.0);
  // Unmatched buyers pay nothing (none here, all 5 matched).
  for (double p : report.payments) EXPECT_GE(p, 0.0);
}

TEST(CriticalValueTest, PaymentsAreBoundedByBids) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto market = random_market(seed);
    const auto base = run_two_stage(market);
    const auto report = critical_value_payments(market);
    for (BuyerId j = 0; j < market.num_buyers(); ++j) {
      const auto ju = static_cast<std::size_t>(j);
      const SellerId i = base.final_matching().seller_of(j);
      if (i == kUnmatched) {
        EXPECT_DOUBLE_EQ(report.payments[ju], 0.0);
      } else {
        EXPECT_GE(report.payments[ju], 0.0);
        EXPECT_LE(report.payments[ju], market.utility(i, j) + 1e-9);
      }
    }
    EXPECT_LE(report.total_revenue, report.welfare + 1e-9);
    EXPECT_GE(report.total_buyer_surplus, -1e-9);
  }
}

TEST(CriticalValueTest, UncontestedBuyerPaysNothing) {
  // One buyer, one channel: she wins at any positive report... at report 0
  // she does not propose at all, so the critical value is (just above) 0.
  std::vector<double> prices = {0.7};
  std::vector<graph::InterferenceGraph> graphs(1,
                                               graph::InterferenceGraph(1));
  const market::SpectrumMarket market(1, 1, std::move(prices),
                                      std::move(graphs));
  const auto report = critical_value_payments(market);
  EXPECT_LE(report.payments[0], 1e-2);
  EXPECT_NEAR(report.total_buyer_surplus, 0.7, 1e-2);
}

TEST(CriticalValueTest, ContestedChannelPricesNearTheRivalBid) {
  // Two buyers interfering on a single channel: the winner's critical value
  // is the loser's bid (she must outbid to be selected by the seller).
  std::vector<double> prices = {0.9, 0.4};
  std::vector<graph::InterferenceGraph> graphs;
  graphs.push_back(testutil::make_graph(2, {{0, 1}}));
  const market::SpectrumMarket market(1, 2, std::move(prices),
                                      std::move(graphs));
  const auto report = critical_value_payments(market);
  EXPECT_NEAR(report.payments[0], 0.4, 1e-2);
  EXPECT_DOUBLE_EQ(report.payments[1], 0.0);  // unmatched
}

TEST(CriticalValueTest, RevenueBelowPayYourBid) {
  // Critical values refund buyer surplus, so revenue can only fall.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto market = random_market(seed + 20);
    const auto base = run_two_stage(market);
    const auto bid = pay_your_bid(market, base.final_matching());
    const auto critical = critical_value_payments(market);
    EXPECT_LE(critical.total_revenue, bid.total_revenue + 1e-9);
    EXPECT_NEAR(critical.welfare, bid.welfare, 1e-9);
  }
}

TEST(CriticalValueTest, InvalidToleranceThrows) {
  const auto market = toy_example();
  PricingConfig config;
  config.tolerance = 0.0;
  EXPECT_THROW((void)critical_value_payments(market, config), CheckError);
}

}  // namespace
}  // namespace specmatch::matching
