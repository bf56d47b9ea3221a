#include "matching/deferred_acceptance.hpp"

#include <gtest/gtest.h>

#include "matching/paper_examples.hpp"
#include "matching/stability.hpp"
#include "test_util.hpp"
#include "workload/generator.hpp"

namespace specmatch::matching {
namespace {

using testutil::members;

StageIConfig traced() {
  StageIConfig config;
  config.record_trace = true;
  return config;
}

// ---- The paper's toy example, Fig. 1 --------------------------------------

TEST(ToyExampleStageI, ReproducesFinalMatchingAndWelfare) {
  const auto market = toy_example();
  const auto result = run_deferred_acceptance(market);
  // Fig. 1(e): a:{4}, b:{3,5}, c:{1,2} in paper numbering (1-based).
  EXPECT_EQ(members(result.matching, 0), (std::vector<BuyerId>{3}));
  EXPECT_EQ(members(result.matching, 1), (std::vector<BuyerId>{2, 4}));
  EXPECT_EQ(members(result.matching, 2), (std::vector<BuyerId>{0, 1}));
  EXPECT_DOUBLE_EQ(result.matching.social_welfare(market), 27.0);
}

TEST(ToyExampleStageI, ConvergesInFourRounds) {
  const auto market = toy_example();
  const auto result = run_deferred_acceptance(market);
  EXPECT_EQ(result.rounds, 4);
}

TEST(ToyExampleStageI, RoundByRoundTraceMatchesFigure1) {
  const auto market = toy_example();
  const auto result = run_deferred_acceptance(market, traced());
  ASSERT_EQ(result.trace.size(), 4u);

  // Round 1 (Fig. 1a/b): 1->a, 2->a, 3->b, 4->b, 5->c; lists a:{1}, b:{3},
  // c:{5}.
  const auto& r1 = result.trace[0];
  EXPECT_EQ(r1.proposals,
            (std::vector<std::pair<BuyerId, ChannelId>>{
                {0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}}));
  EXPECT_EQ(r1.waiting_lists[0], (std::vector<BuyerId>{0}));
  EXPECT_EQ(r1.waiting_lists[1], (std::vector<BuyerId>{2}));
  EXPECT_EQ(r1.waiting_lists[2], (std::vector<BuyerId>{4}));

  // Round 2 (Fig. 1c): 2->b, 4->a; a evicts 1 for 4.
  const auto& r2 = result.trace[1];
  EXPECT_EQ(r2.proposals, (std::vector<std::pair<BuyerId, ChannelId>>{
                              {1, 1}, {3, 0}}));
  EXPECT_EQ(r2.waiting_lists[0], (std::vector<BuyerId>{3}));
  EXPECT_EQ(r2.waiting_lists[1], (std::vector<BuyerId>{2}));
  EXPECT_EQ(r2.waiting_lists[2], (std::vector<BuyerId>{4}));

  // Round 3 (Fig. 1d): 1->b, 2->c; c evicts 5 for 2.
  const auto& r3 = result.trace[2];
  EXPECT_EQ(r3.proposals, (std::vector<std::pair<BuyerId, ChannelId>>{
                              {0, 1}, {1, 2}}));
  EXPECT_EQ(r3.waiting_lists[0], (std::vector<BuyerId>{3}));
  EXPECT_EQ(r3.waiting_lists[1], (std::vector<BuyerId>{2}));
  EXPECT_EQ(r3.waiting_lists[2], (std::vector<BuyerId>{1}));

  // Round 4 (Fig. 1e): 1->c, 5->b; final lists a:{4}, b:{3,5}, c:{1,2}.
  const auto& r4 = result.trace[3];
  EXPECT_EQ(r4.proposals, (std::vector<std::pair<BuyerId, ChannelId>>{
                              {0, 2}, {4, 1}}));
  EXPECT_EQ(r4.waiting_lists[0], (std::vector<BuyerId>{3}));
  EXPECT_EQ(r4.waiting_lists[1], (std::vector<BuyerId>{2, 4}));
  EXPECT_EQ(r4.waiting_lists[2], (std::vector<BuyerId>{0, 1}));
}

TEST(ToyExampleStageI, CountsProposalsAndEvictions) {
  const auto market = toy_example();
  const auto result = run_deferred_acceptance(market);
  // 5 + 2 + 2 + 2 proposals across the four rounds.
  EXPECT_EQ(result.total_proposals, 11);
  // Buyer 1 evicted from a (round 2), buyer 5 evicted from c (round 3).
  EXPECT_EQ(result.total_evictions, 2);
}

TEST(ToyExampleStageI, StageIResultIsNotNashStable) {
  // The motivating observation of §III-B2: buyer 2 could join seller a.
  const auto market = toy_example();
  const auto result = run_deferred_acceptance(market);
  const auto deviation = find_nash_deviation(market, result.matching);
  ASSERT_TRUE(deviation.has_value());
  EXPECT_EQ(deviation->buyer, 1);
  EXPECT_EQ(deviation->target, 0);
  EXPECT_DOUBLE_EQ(deviation->current_utility, 4.0);
  EXPECT_DOUBLE_EQ(deviation->deviation_utility, 6.0);
}

// ---- General properties -----------------------------------------------------

class StageIPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StageIPropertyTest, OutputIsInterferenceFreeAndIndividuallyRational) {
  Rng rng(GetParam());
  workload::WorkloadParams params;
  params.num_sellers = 5;
  params.num_buyers = 14;
  const auto market = workload::generate_market(params, rng);
  const auto result = run_deferred_acceptance(market);
  result.matching.check_consistent();
  EXPECT_TRUE(is_interference_free(market, result.matching));
  EXPECT_TRUE(is_individual_rational(market, result.matching));
}

TEST_P(StageIPropertyTest, RoundBoundOfProposition1) {
  Rng rng(GetParam());
  workload::WorkloadParams params;
  params.num_sellers = 4;
  params.num_buyers = 12;
  const auto market = workload::generate_market(params, rng);
  const auto result = run_deferred_acceptance(market);
  EXPECT_LE(result.rounds, market.num_channels() * market.num_buyers());
  EXPECT_LE(result.total_proposals,
            static_cast<std::int64_t>(market.num_channels()) *
                market.num_buyers());
}

TEST_P(StageIPropertyTest, DeterministicAcrossRuns) {
  Rng rng(GetParam());
  workload::WorkloadParams params;
  params.num_sellers = 3;
  params.num_buyers = 10;
  const auto market = workload::generate_market(params, rng);
  const auto a = run_deferred_acceptance(market);
  const auto b = run_deferred_acceptance(market);
  EXPECT_EQ(a.matching, b.matching);
  EXPECT_EQ(a.rounds, b.rounds);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StageIPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 11u, 23u,
                                           101u));

TEST(StageITest, CompleteGraphReducesToOneToOneMatching) {
  // Proposition 1's worst case: every channel's graph complete -> each
  // seller keeps exactly one buyer, the highest bidder she ever saw.
  const int M = 3, N = 6;
  std::vector<double> prices;
  Rng rng(5);
  for (int i = 0; i < M * N; ++i) prices.push_back(rng.uniform(0.1, 1.0));
  std::vector<graph::InterferenceGraph> graphs;
  for (int i = 0; i < M; ++i)
    graphs.push_back(graph::complete(static_cast<std::size_t>(N)));
  const market::SpectrumMarket market(M, N, std::move(prices),
                                      std::move(graphs));
  const auto result = run_deferred_acceptance(market);
  for (ChannelId i = 0; i < M; ++i)
    EXPECT_LE(result.matching.members_of(i).count(), 1u);
  EXPECT_LE(result.matching.num_matched(), M);
}

TEST(StageITest, EmptyGraphsGiveEveryoneTheirFavourite) {
  const int M = 3, N = 5;
  std::vector<double> prices;
  Rng rng(6);
  for (int i = 0; i < M * N; ++i) prices.push_back(rng.uniform(0.1, 1.0));
  std::vector<graph::InterferenceGraph> graphs(
      static_cast<std::size_t>(M),
      graph::InterferenceGraph(static_cast<std::size_t>(N)));
  const market::SpectrumMarket market(M, N, std::move(prices),
                                      std::move(graphs));
  const auto result = run_deferred_acceptance(market);
  EXPECT_EQ(result.rounds, 1);
  for (BuyerId j = 0; j < N; ++j) {
    EXPECT_EQ(result.matching.seller_of(j),
              market.buyer_preference_order(j).front());
  }
}

TEST(StageITest, GuardComparesTheWholeCoalitionAcrossComponents) {
  // Algorithm 1 has one guard per coalition, even when the channel's graph
  // has several components. Buyers a1=0, a2=1, a3=2, b1=3, c=4. Channel 0
  // has two components, {a1, a2, a3} with edges a1-a2 and a1-a3, and
  // everyone else isolated. Channel 1 is complete and c's favourite, so
  // a1 and b1 (who prefer channel 1) are rejected there in round 1 and
  // propose to channel 0 in round 2, where a2 and a3 (6 each) already wait.
  // GWMIN picks b1 (5) then a1 (10): worse than {a2, a3} in the first
  // component (10 < 12), better in the second (5 > 0), and 15 > 12 in
  // total, so the seller adopts the whole selection {a1, b1}.
  const int M = 2, N = 5;
  std::vector<double> prices = {10.0, 6.0, 6.0, 5.0, 1.0,
                                20.0, 1.0, 1.0, 20.0, 100.0};
  graph::InterferenceGraph fractured(static_cast<std::size_t>(N));
  fractured.add_edge(0, 1);
  fractured.add_edge(0, 2);
  std::vector<graph::InterferenceGraph> graphs;
  graphs.push_back(std::move(fractured));
  graphs.push_back(graph::complete(static_cast<std::size_t>(N)));
  const market::SpectrumMarket market(M, N, std::move(prices),
                                      std::move(graphs));
  const auto result = run_deferred_acceptance(market, traced());
  ASSERT_GE(result.trace.size(), 2u);
  EXPECT_EQ(result.trace[0].waiting_lists[0], (std::vector<BuyerId>{1, 2}));
  EXPECT_EQ(result.trace[1].waiting_lists[0], (std::vector<BuyerId>{0, 3}));
  EXPECT_EQ(members(result.matching, 0), (std::vector<BuyerId>{0, 3}));
  EXPECT_EQ(members(result.matching, 1), (std::vector<BuyerId>{4}));
}

TEST(StageITest, ExactCoalitionPolicyNeverWorseOnToyExample) {
  const auto market = toy_example();
  StageIConfig exact;
  exact.coalition_policy = graph::MwisAlgorithm::kExact;
  const auto greedy = run_deferred_acceptance(market);
  const auto precise = run_deferred_acceptance(market, exact);
  EXPECT_GE(precise.matching.social_welfare(market) + 1e-9,
            greedy.matching.social_welfare(market) * 0.9);
}

}  // namespace
}  // namespace specmatch::matching
