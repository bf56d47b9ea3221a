#include "matching/transfer_invitation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "matching/deferred_acceptance.hpp"
#include "matching/paper_examples.hpp"
#include "matching/stability.hpp"
#include "matching/workspace.hpp"
#include "test_util.hpp"
#include "workload/generator.hpp"

namespace specmatch::matching {
namespace {

using testutil::make_matching;
using testutil::members;

// ---- The paper's toy example, Fig. 2 ---------------------------------------

TEST(ToyExampleStageII, ReproducesFinalMatchingAndWelfare) {
  const auto market = toy_example();
  const auto stage1 = run_deferred_acceptance(market);
  const auto result = run_transfer_invitation(market, stage1.matching);
  // Fig. 2(d): a:{2,4}, b:{3}, c:{1,5} in paper numbering.
  EXPECT_EQ(members(result.matching, 0), (std::vector<BuyerId>{1, 3}));
  EXPECT_EQ(members(result.matching, 1), (std::vector<BuyerId>{2}));
  EXPECT_EQ(members(result.matching, 2), (std::vector<BuyerId>{0, 4}));
  EXPECT_DOUBLE_EQ(result.matching.social_welfare(market), 30.0);
}

TEST(ToyExampleStageII, Phase1TransfersBuyer2ToSellerA) {
  const auto market = toy_example();
  const auto stage1 = run_deferred_acceptance(market);
  const auto result = run_transfer_invitation(market, stage1.matching);
  // After Phase 1 (Fig. 2b): a:{2,4}, b:{3,5}, c:{1}.
  EXPECT_EQ(members(result.after_phase1, 0), (std::vector<BuyerId>{1, 3}));
  EXPECT_EQ(members(result.after_phase1, 1), (std::vector<BuyerId>{2, 4}));
  EXPECT_EQ(members(result.after_phase1, 2), (std::vector<BuyerId>{0}));
  EXPECT_EQ(result.transfers_accepted, 1);
  EXPECT_EQ(result.phase1_rounds, 2);
}

TEST(ToyExampleStageII, Phase2InvitesBuyer5ToSellerC) {
  const auto market = toy_example();
  const auto stage1 = run_deferred_acceptance(market);
  const auto result = run_transfer_invitation(market, stage1.matching);
  EXPECT_EQ(result.invitations_sent, 1);
  EXPECT_EQ(result.invitations_accepted, 1);
  EXPECT_EQ(result.phase2_rounds, 1);
  // The invitation moved buyer 5 from b to c.
  EXPECT_EQ(result.matching.seller_of(4), 2);
}

TEST(ToyExampleStageII, WelfareAccumulatesAcrossPhases) {
  const auto market = toy_example();
  const auto stage1 = run_deferred_acceptance(market);
  const auto result = run_transfer_invitation(market, stage1.matching);
  const double w1 = stage1.matching.social_welfare(market);
  const double w2 = result.after_phase1.social_welfare(market);
  const double w3 = result.matching.social_welfare(market);
  EXPECT_DOUBLE_EQ(w1, 27.0);
  EXPECT_DOUBLE_EQ(w2, 29.0);
  EXPECT_DOUBLE_EQ(w3, 30.0);
}

TEST(ToyExampleStageII, FinalResultIsNashStable) {
  const auto market = toy_example();
  const auto stage1 = run_deferred_acceptance(market);
  const auto result = run_transfer_invitation(market, stage1.matching);
  EXPECT_TRUE(is_nash_stable(market, result.matching));
  EXPECT_TRUE(is_individual_rational(market, result.matching));
}

// ---- Input validation -------------------------------------------------------

TEST(StageIITest, RejectsInterferingInputMatching) {
  const auto market = toy_example();
  // Buyers 0 and 1 interfere on channel a.
  const auto bad = make_matching(3, 5, {{0, 1}, {}, {}});
  EXPECT_THROW((void)run_transfer_invitation(market, bad), CheckError);
}

TEST(StageIITest, EmptyMatchingIsValidInput) {
  const auto market = toy_example();
  const Matching empty(3, 5);
  const auto result = run_transfer_invitation(market, empty);
  // Everyone applies from scratch; the result must be feasible and IR.
  EXPECT_TRUE(is_interference_free(market, result.matching));
  EXPECT_TRUE(is_individual_rational(market, result.matching));
  EXPECT_GT(result.matching.social_welfare(market), 0.0);
}

// ---- Phase 2 rate limit ------------------------------------------------------

TEST(StageIITest, Phase2SendsOneInvitationPerSellerPerRound) {
  // Algorithm 2 Phase 2: each seller invites one listed buyer per round,
  // even when her list spans several components of her graph. Buyers
  // m1=0, p=1, m2=2, q=3. Channel 0 has two components, {m1, p} and
  // {m2, q}; channel 1 has no edges and only m1 and m2 can buy it. Starting
  // from channel 0 = {m1, m2}, Phase 1 moves m1 and m2 to channel 1 (10 > 5)
  // in the round that rejects p and q from channel 0 (they interfere with
  // the members still there). Channel 0's screened list is then {p, q}: it
  // invites p (8) in round 1 and q (7) in round 2.
  const int M = 2, N = 4;
  std::vector<double> prices = {5.0, 8.0, 5.0, 7.0,  //
                                10.0, 0.0, 10.0, 0.0};
  graph::InterferenceGraph fractured(static_cast<std::size_t>(N));
  fractured.add_edge(0, 1);
  fractured.add_edge(2, 3);
  std::vector<graph::InterferenceGraph> graphs;
  graphs.push_back(std::move(fractured));
  graphs.push_back(graph::InterferenceGraph(static_cast<std::size_t>(N)));
  const market::SpectrumMarket market(M, N, std::move(prices),
                                      std::move(graphs));
  const auto result =
      run_transfer_invitation(market, make_matching(M, N, {{0, 2}, {}}));
  EXPECT_EQ(result.phase1_rounds, 1);
  EXPECT_EQ(members(result.after_phase1, 0), (std::vector<BuyerId>{}));
  EXPECT_EQ(members(result.after_phase1, 1), (std::vector<BuyerId>{0, 2}));
  EXPECT_EQ(result.phase2_rounds, 2);
  EXPECT_EQ(result.invitations_sent, 2);
  EXPECT_EQ(result.invitations_accepted, 2);
  EXPECT_EQ(members(result.matching, 0), (std::vector<BuyerId>{1, 3}));
}

// ---- Transfer pruning (EXPERIMENTS.md known deviation 2) --------------------

TEST(StageIITest, TransferListIsPrunedAfterATransfer) {
  // One buyer, sellers a=0, b=1, c=2, no interference. Stage I left her on
  // c; she prefers a (10) over b (8) over c (5), so T = [a, b]. She applies
  // to a in round 1 and transfers. The paper initialises T once, so it
  // would still list b and she would apply to b in round 2 and move down to
  // 8. Pruned to sellers strictly better than a, T is empty: one
  // application, one round, and she stays on a.
  const int M = 3, N = 1;
  std::vector<graph::InterferenceGraph> graphs;
  for (int i = 0; i < M; ++i)
    graphs.push_back(graph::InterferenceGraph(static_cast<std::size_t>(N)));
  const market::SpectrumMarket market(M, N, {10.0, 8.0, 5.0},
                                      std::move(graphs));
  const auto result =
      run_transfer_invitation(market, make_matching(M, N, {{}, {}, {0}}));
  EXPECT_EQ(result.transfer_applications, 1);
  EXPECT_EQ(result.transfers_accepted, 1);
  EXPECT_EQ(result.phase1_rounds, 1);
  EXPECT_EQ(result.matching.seller_of(0), 0);
  EXPECT_EQ(result.invitations_sent, 0);
}

// ---- Blocker rows (MatchWorkspace::blockers) --------------------------------

using testutil::ScopedThreads;

/// Runs Stage II on `ws` and checks every blocker row it built against a
/// recount from the final matching. Returns the run's result.
StageIIResult run_and_recount(const market::SpectrumMarket& market,
                              const Matching& input,
                              const StageIIConfig& config,
                              MatchWorkspace& ws) {
  const StageIIResult result =
      run_transfer_invitation(market, input, config, ws);
  const auto nu = static_cast<std::size_t>(market.num_buyers());
  std::int64_t built = 0;
  for (ChannelId i = 0; i < market.num_channels(); ++i) {
    const auto iu = static_cast<std::size_t>(i);
    if (!ws.blocker_built[iu]) continue;
    ++built;
    std::vector<std::uint32_t> recount(nu, 0);
    result.matching.members_of(i).for_each_set([&](std::size_t m) {
      market.graph(i).for_each_neighbor(static_cast<BuyerId>(m),
                                        [&](std::size_t u) { ++recount[u]; });
    });
    const std::vector<std::uint32_t> row(
        ws.blockers.begin() + static_cast<std::ptrdiff_t>(iu * nu),
        ws.blockers.begin() + static_cast<std::ptrdiff_t>((iu + 1) * nu));
    EXPECT_EQ(row, recount) << "channel " << i;
  }
  EXPECT_EQ(result.blocker_rows, built);
  return result;
}

TEST(StageIITest, BlockerRowsTrackTheMatching) {
  // A contract leg (blocker rows exact at any lane count): a second lane is
  // forced even on a 1-core host.
  const int host = testutil::contract_lanes();
  // A buyer leaves a built channel. Buyers a=0, b=1; a and b interfere on
  // channel 0 only. From channel 0 = {a}, round 1 has a applying to channel
  // 1 (10 > 5) and b to channel 0 (8 > 0), so both rows are built; b is
  // rejected (a is still there) and a transfers, which must decrement b's
  // count on channel 0. Phase 2 then finds b admissible and invites her.
  {
    std::vector<graph::InterferenceGraph> graphs;
    graphs.emplace_back(2);
    graphs[0].add_edge(0, 1);
    graphs.emplace_back(2);
    const market::SpectrumMarket market(2, 2, {5.0, 8.0, 10.0, 0.0},
                                        std::move(graphs));
    MatchWorkspace ws;
    const auto result = run_and_recount(
        market, make_matching(2, 2, {{0}, {}}), {}, ws);
    EXPECT_EQ(result.blocker_rows, 2);
    EXPECT_EQ(result.transfers_accepted, 1);
    EXPECT_EQ(result.invitations_accepted, 1);
    EXPECT_EQ(members(result.matching, 0), (std::vector<BuyerId>{1}));
    EXPECT_EQ(members(result.matching, 1), (std::vector<BuyerId>{0}));
  }
  // Random markets, dense and forced CSR, restricted and unrestricted, with
  // and without re-screening, at one lane and at every host lane. Each run
  // starts from the Stage I matching and from a random interference-free
  // one (which makes Stage II move many buyers, from built channels too).
  // One workspace serves every run, so stale rows would show as well.
  std::int64_t rows_built = 0;
  for (std::uint64_t seed : {3u, 8u, 21u}) {
    workload::WorkloadParams params;
    params.num_sellers = 6;
    params.num_buyers = 60;
    Rng rng(seed);
    const auto generated = workload::generate_market(params, rng);
    const int M = generated.num_channels();
    const int N = generated.num_buyers();
    DynamicBitset participants(static_cast<std::size_t>(N));
    for (std::size_t j = 0; j < participants.size(); ++j)
      if (rng.uniform() < 0.3) participants.set(j);
    Matching scattered(M, N);
    for (BuyerId j = 0; j < N; ++j) {
      const auto i = static_cast<ChannelId>(rng.uniform_int(0, M - 1));
      if (generated.utility(i, j) > 0.0 &&
          generated.graph(i).is_compatible(j, scattered.members_of(i)))
        scattered.match(j, i);
    }
    for (graph::GraphRep rep :
         {graph::GraphRep::kDense, graph::GraphRep::kCsr}) {
      const auto market = market::with_graph_representation(generated, rep);
      const auto stage1 = run_deferred_acceptance(market);
      for (const int lanes : {1, host}) {
        ScopedThreads threads(lanes);
        MatchWorkspace ws;
        for (const Matching* input :
             {&stage1.matching, static_cast<const Matching*>(&scattered)}) {
          for (const bool restricted : {false, true}) {
            for (const bool rescreen : {false, true}) {
              SCOPED_TRACE(testing::Message()
                           << "seed=" << seed
                           << " rep=" << static_cast<int>(rep)
                           << " lanes=" << lanes
                           << " scattered=" << (input == &scattered)
                           << " restricted=" << restricted
                           << " rescreen=" << rescreen);
              StageIIConfig config;
              config.rescreen_on_departure = rescreen;
              if (restricted) config.participants = &participants;
              rows_built +=
                  run_and_recount(market, *input, config, ws).blocker_rows;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(rows_built, 0);
}

// ---- Properties on random markets ------------------------------------------

class StageIIPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StageIIPropertyTest, NoBuyerEverLosesUtility) {
  Rng rng(GetParam());
  workload::WorkloadParams params;
  params.num_sellers = 5;
  params.num_buyers = 15;
  const auto market = workload::generate_market(params, rng);
  const auto stage1 = run_deferred_acceptance(market);
  const auto result = run_transfer_invitation(market, stage1.matching);
  for (BuyerId j = 0; j < market.num_buyers(); ++j) {
    EXPECT_GE(result.matching.buyer_utility(market, j) + 1e-12,
              stage1.matching.buyer_utility(market, j))
        << "buyer " << j << " got worse in Stage II";
  }
}

TEST_P(StageIIPropertyTest, WelfareNeverDecreasesAcrossPhases) {
  Rng rng(GetParam());
  workload::WorkloadParams params;
  params.num_sellers = 6;
  params.num_buyers = 18;
  const auto market = workload::generate_market(params, rng);
  const auto stage1 = run_deferred_acceptance(market);
  const auto result = run_transfer_invitation(market, stage1.matching);
  const double w1 = stage1.matching.social_welfare(market);
  const double w2 = result.after_phase1.social_welfare(market);
  const double w3 = result.matching.social_welfare(market);
  EXPECT_GE(w2 + 1e-12, w1);
  EXPECT_GE(w3 + 1e-12, w2);
}

TEST_P(StageIIPropertyTest, OutputIsNashStableAndFeasible) {
  Rng rng(GetParam());
  workload::WorkloadParams params;
  params.num_sellers = 4;
  params.num_buyers = 12;
  const auto market = workload::generate_market(params, rng);
  const auto stage1 = run_deferred_acceptance(market);
  const auto result = run_transfer_invitation(market, stage1.matching);
  result.matching.check_consistent();
  EXPECT_TRUE(is_interference_free(market, result.matching));
  EXPECT_TRUE(is_individual_rational(market, result.matching));
  EXPECT_TRUE(is_nash_stable(market, result.matching))
      << "Proposition 4 violated";
}

TEST_P(StageIIPropertyTest, Phase1RoundsBoundedByM) {
  Rng rng(GetParam());
  workload::WorkloadParams params;
  params.num_sellers = 6;
  params.num_buyers = 20;
  const auto market = workload::generate_market(params, rng);
  const auto stage1 = run_deferred_acceptance(market);
  const auto result = run_transfer_invitation(market, stage1.matching);
  // Proposition 2: each buyer applies to at most M sellers, one per round.
  EXPECT_LE(result.phase1_rounds, market.num_channels());
  EXPECT_LE(result.phase2_rounds, market.num_buyers());
}

TEST_P(StageIIPropertyTest, RescreenExtensionNeverHurtsWelfare) {
  Rng rng(GetParam());
  workload::WorkloadParams params;
  params.num_sellers = 5;
  params.num_buyers = 16;
  const auto market = workload::generate_market(params, rng);
  const auto stage1 = run_deferred_acceptance(market);
  const auto faithful = run_transfer_invitation(market, stage1.matching);
  StageIIConfig rescreen_config;
  rescreen_config.rescreen_on_departure = true;
  const auto rescreen =
      run_transfer_invitation(market, stage1.matching, rescreen_config);
  EXPECT_GE(rescreen.matching.social_welfare(market) + 1e-9,
            faithful.matching.social_welfare(market));
  EXPECT_TRUE(is_interference_free(market, rescreen.matching));
}

INSTANTIATE_TEST_SUITE_P(Seeds, StageIIPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 7u, 13u, 42u, 99u,
                                           1234u));

}  // namespace
}  // namespace specmatch::matching
