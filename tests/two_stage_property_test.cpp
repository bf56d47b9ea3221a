// End-to-end properties of the full two-stage algorithm on randomly generated
// paper-style markets (Propositions 1-4 plus welfare sanity).
#include "matching/two_stage.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "common/simd.hpp"
#include "common/stats.hpp"
#include "matching/stability.hpp"
#include "matching/swap_resolution.hpp"
#include "optimal/exact.hpp"
#include "optimal/greedy.hpp"
#include "optimal/random_matcher.hpp"
#include "serve/server.hpp"
#include "test_util.hpp"
#include "workload/generator.hpp"

namespace specmatch::matching {
namespace {

market::SpectrumMarket random_market(std::uint64_t seed, int sellers,
                                     int buyers) {
  Rng rng(seed);
  workload::WorkloadParams params;
  params.num_sellers = sellers;
  params.num_buyers = buyers;
  return workload::generate_market(params, rng);
}

class TwoStageInvariantTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int, int>> {};

TEST_P(TwoStageInvariantTest, SatisfiesPropositions3And4) {
  const auto [seed, M, N] = GetParam();
  const auto market = random_market(seed, M, N);
  const auto result = run_two_stage(market);
  result.final_matching().check_consistent();
  EXPECT_TRUE(is_interference_free(market, result.final_matching()));
  EXPECT_TRUE(is_individual_rational(market, result.final_matching()))
      << "Proposition 3 violated (seed " << seed << ")";
  EXPECT_TRUE(is_nash_stable(market, result.final_matching()))
      << "Proposition 4 violated (seed " << seed << ")";
}

TEST_P(TwoStageInvariantTest, WelfareSeriesIsMonotone) {
  const auto [seed, M, N] = GetParam();
  const auto market = random_market(seed, M, N);
  const auto result = run_two_stage(market);
  EXPECT_GE(result.welfare_phase1 + 1e-12, result.welfare_stage1);
  EXPECT_GE(result.welfare_final + 1e-12, result.welfare_phase1);
  EXPECT_GT(result.welfare_final, 0.0);
}

TEST_P(TwoStageInvariantTest, BeatsRandomSerialDictatorshipOnAverage) {
  const auto [seed, M, N] = GetParam();
  const auto market = random_market(seed, M, N);
  const auto result = run_two_stage(market);
  Rng rng(seed ^ 0xabcdef);
  Summary random_welfare;
  for (int r = 0; r < 20; ++r) {
    const auto random_matching = optimal::solve_random_serial(market, rng);
    random_welfare.add(random_matching.social_welfare(market));
  }
  EXPECT_GE(result.welfare_final + 1e-9, random_welfare.mean() * 0.95)
      << "two-stage matching fell well below the random baseline";
}

INSTANTIATE_TEST_SUITE_P(
    Markets, TwoStageInvariantTest,
    ::testing::Values(std::make_tuple(1u, 4, 8), std::make_tuple(2u, 4, 8),
                      std::make_tuple(3u, 5, 8), std::make_tuple(4u, 2, 8),
                      std::make_tuple(5u, 6, 10), std::make_tuple(6u, 3, 15),
                      std::make_tuple(7u, 8, 24), std::make_tuple(8u, 10, 40),
                      std::make_tuple(9u, 5, 30),
                      std::make_tuple(10u, 7, 21)));

TEST(TwoStageTest, AchievesMostOfOptimalWelfareOnSmallMarkets) {
  // The paper's headline: > 90% of the optimal social welfare on average.
  Summary ratio;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const auto market = random_market(seed, 4, 8);
    const auto proposed = run_two_stage(market);
    const auto optimal = optimal::solve_optimal(market);
    ASSERT_GT(optimal.welfare, 0.0);
    ratio.add(proposed.welfare_final / optimal.welfare);
    EXPECT_LE(proposed.welfare_final, optimal.welfare + 1e-9);
  }
  EXPECT_GT(ratio.mean(), 0.85) << "well below the paper's ~90% headline";
}

TEST(TwoStageTest, GreedyBaselineIsAlsoBoundedByOptimal) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto market = random_market(seed, 4, 8);
    const auto greedy = optimal::solve_greedy(market);
    const auto optimal = optimal::solve_optimal(market);
    EXPECT_LE(greedy.social_welfare(market), optimal.welfare + 1e-9);
    EXPECT_TRUE(is_interference_free(market, greedy));
  }
}

TEST(TwoStageTest, DeterministicGivenMarket) {
  const auto market = random_market(55, 5, 12);
  const auto a = run_two_stage(market);
  const auto b = run_two_stage(market);
  EXPECT_EQ(a.final_matching(), b.final_matching());
  EXPECT_EQ(a.stage1.rounds, b.stage1.rounds);
  EXPECT_DOUBLE_EQ(a.welfare_final, b.welfare_final);
}

TEST(TwoStageTest, CoalitionPolicySweepKeepsInvariants) {
  for (auto policy :
       {graph::MwisAlgorithm::kGwmin, graph::MwisAlgorithm::kGwmin2,
        graph::MwisAlgorithm::kExact}) {
    const auto market = random_market(77, 5, 12);
    TwoStageConfig config;
    config.coalition_policy = policy;
    const auto result = run_two_stage(market, config);
    EXPECT_TRUE(is_interference_free(market, result.final_matching()));
    EXPECT_TRUE(is_nash_stable(market, result.final_matching()));
    EXPECT_GT(result.welfare_final, 0.0);
  }
}

TEST(TwoStageTest, SingleBuyerGetsHerFavouriteChannel) {
  Rng rng(3);
  workload::WorkloadParams params;
  params.num_sellers = 4;
  params.num_buyers = 1;
  const auto market = workload::generate_market(params, rng);
  const auto result = run_two_stage(market);
  EXPECT_EQ(result.final_matching().seller_of(0),
            market.buyer_preference_order(0).front());
}

TEST(TwoStageTest, SingleChannelKeepsBestIndependentSetApproximately) {
  const auto market = random_market(21, 1, 12);
  const auto result = run_two_stage(market);
  EXPECT_TRUE(is_interference_free(market, result.final_matching()));
  EXPECT_GT(result.welfare_final, 0.0);
}

// ---------------------------------------------------------------------------
// Dense vs CSR: the graph representation must be invisible to the engine.
// Same markets rebuilt under each representation, run at 1 and 4 threads —
// the matchings and welfare series must be bit-for-bit identical.
// ---------------------------------------------------------------------------

using testutil::ScopedThreads;

TEST(GraphRepresentationEquivalenceTest, TwoStageMatchingsBitForBitIdentical) {
  for (auto [seed, M, N] : {std::make_tuple(11u, 4, 20),
                            std::make_tuple(12u, 6, 40),
                            std::make_tuple(13u, 8, 60)}) {
    const auto base = random_market(seed, M, N);
    const auto dense =
        market::with_graph_representation(base, graph::GraphRep::kDense);
    const auto csr =
        market::with_graph_representation(base, graph::GraphRep::kCsr);
    for (ChannelId i = 0; i < M; ++i) {
      ASSERT_EQ(dense.graph(i).representation(), graph::GraphRep::kDense);
      ASSERT_EQ(csr.graph(i).representation(), graph::GraphRep::kCsr);
      ASSERT_EQ(dense.graph(i), csr.graph(i));
    }
    for (auto policy :
         {graph::MwisAlgorithm::kGwmin, graph::MwisAlgorithm::kGwmin2}) {
      TwoStageConfig config;
      config.coalition_policy = policy;
      for (int threads : {1, 4}) {
        ScopedThreads scope(threads);
        const auto from_dense = run_two_stage(dense, config);
        const auto from_csr = run_two_stage(csr, config);
        EXPECT_EQ(from_dense.final_matching(), from_csr.final_matching())
            << "seed " << seed << " threads " << threads;
        EXPECT_EQ(from_dense.stage1.matching, from_csr.stage1.matching);
        EXPECT_EQ(from_dense.stage1.rounds, from_csr.stage1.rounds);
        EXPECT_EQ(from_dense.welfare_stage1, from_csr.welfare_stage1);
        EXPECT_EQ(from_dense.welfare_phase1, from_csr.welfare_phase1);
        EXPECT_EQ(from_dense.welfare_final, from_csr.welfare_final);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Scalar vs dispatched SIMD: the kernel dispatch tier must be as invisible
// as the graph representation. Same markets, scalar-forced vs the highest
// supported tier, at 1 and 4 threads — matchings, rounds, and welfare series
// bit-for-bit identical.
// ---------------------------------------------------------------------------

class ScopedSimdTier {
 public:
  explicit ScopedSimdTier(simd::Tier tier) : saved_(simd::active_tier()) {
    EXPECT_TRUE(simd::force_tier(tier));
  }
  ~ScopedSimdTier() { simd::force_tier(saved_); }

 private:
  simd::Tier saved_;
};

TEST(SimdEquivalenceTest, TwoStageMatchingsBitForBitIdenticalAcrossTiers) {
  const simd::Tier best = simd::active_tier();
  if (best == simd::Tier::kScalar)
    GTEST_SKIP() << "no SIMD tier on this CPU/build; nothing to compare";
  for (auto [seed, M, N] : {std::make_tuple(11u, 4, 20),
                            std::make_tuple(12u, 6, 40),
                            std::make_tuple(13u, 8, 60)}) {
    const auto market = random_market(seed, M, N);
    for (auto policy :
         {graph::MwisAlgorithm::kGwmin, graph::MwisAlgorithm::kGwmin2}) {
      TwoStageConfig config;
      config.coalition_policy = policy;
      for (int threads : {1, 4}) {
        ScopedThreads scope(threads);
        TwoStageResult scalar_result = [&] {
          ScopedSimdTier tier(simd::Tier::kScalar);
          return run_two_stage(market, config);
        }();
        TwoStageResult simd_result = [&] {
          ScopedSimdTier tier(best);
          return run_two_stage(market, config);
        }();
        EXPECT_EQ(scalar_result.final_matching(), simd_result.final_matching())
            << "seed " << seed << " threads " << threads << " tier "
            << to_string(best);
        EXPECT_EQ(scalar_result.stage1.matching, simd_result.stage1.matching);
        EXPECT_EQ(scalar_result.stage1.rounds, simd_result.stage1.rounds);
        EXPECT_EQ(scalar_result.welfare_stage1, simd_result.welfare_stage1);
        EXPECT_EQ(scalar_result.welfare_phase1, simd_result.welfare_phase1);
        EXPECT_EQ(scalar_result.welfare_final, simd_result.welfare_final);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Warm serving: driving a mutation stream through the MatchServer must give
// the same transcript at 1 and 4 engine threads, and every warm solve must
// preserve the two-stage invariants on the mutated market. check_warm makes
// the server CHECK internally that each warm result is interference-free,
// individually rational, and no worse than the carried matching it grew
// from; the shadow market below re-verifies the first two independently.
// ---------------------------------------------------------------------------

TEST(WarmServePropertyTest, TranscriptAndInvariantsStableAcrossThreads) {
  const auto scenario = [] {
    Rng rng(4242);
    workload::WorkloadParams params;
    params.num_sellers = 5;
    params.num_buyers = 18;
    return std::make_shared<const market::Scenario>(
        workload::generate_scenario(params, rng));
  }();
  const int M = scenario->num_channels();
  const int N = scenario->num_virtual_buyers();

  // Shadow state mirroring the server's mutations: base prices + active
  // mask, rebuilt into a market for independent invariant checks.
  std::vector<double> base = scenario->utilities;
  std::vector<bool> active(static_cast<std::size_t>(N), true);

  std::vector<std::vector<std::string>> transcripts;
  std::vector<matching::Matching> finals;
  for (const int threads : {1, 4}) {
    ScopedThreads scope(threads);
    serve::ServeConfig config;
    config.drain_lanes = threads;
    config.check_warm = true;
    serve::MatchServer server(config);
    std::vector<std::string> transcript;

    const auto run = [&server, &transcript](serve::Request request) {
      const serve::Response response = server.handle(std::move(request));
      ASSERT_TRUE(response.ok) << response.text;
      transcript.push_back(response.text);
    };
    serve::Request create;
    create.type = serve::RequestType::kCreate;
    create.market_id = "w";
    create.scenario = scenario;
    run(std::move(create));
    serve::Request cold;
    cold.type = serve::RequestType::kSolve;
    cold.market_id = "w";
    run(std::move(cold));

    // Identical seeded stream per thread count; the shadow state is only
    // maintained on the first pass (the streams are identical, so it
    // describes both).
    Rng rng(31337);
    const bool shadowing = transcripts.empty();
    for (int step = 0; step < 80; ++step) {
      const double kind = rng.uniform();
      const auto buyer = static_cast<BuyerId>(rng.uniform_int(0, N - 1));
      serve::Request request;
      request.market_id = "w";
      if (kind < 0.45) {
        request.type = serve::RequestType::kUpdatePrice;
        request.buyer = buyer;
        request.channel = static_cast<ChannelId>(rng.uniform_int(0, M - 1));
        request.value = rng.uniform(0.0, 1.0);
        if (shadowing)
          base[static_cast<std::size_t>(request.channel) *
                   static_cast<std::size_t>(N) +
               static_cast<std::size_t>(buyer)] = request.value;
      } else if (kind < 0.6) {
        request.type = serve::RequestType::kLeave;
        request.buyer = buyer;
        if (shadowing) active[static_cast<std::size_t>(buyer)] = false;
      } else if (kind < 0.75) {
        request.type = serve::RequestType::kJoin;
        request.buyer = buyer;
        if (shadowing) active[static_cast<std::size_t>(buyer)] = true;
      } else {
        request.type = serve::RequestType::kSolve;
        request.warm = rng.bernoulli(0.8);
      }
      run(std::move(request));
    }
    serve::Request warm;
    warm.type = serve::RequestType::kSolve;
    warm.market_id = "w";
    warm.warm = true;
    run(std::move(warm));
    server.drain();

    ASSERT_NE(server.last_matching("w"), nullptr);
    finals.push_back(*server.last_matching("w"));
    transcripts.push_back(std::move(transcript));
  }

  ASSERT_EQ(transcripts.size(), 2u);
  EXPECT_EQ(transcripts[0], transcripts[1])
      << "serving transcript depends on the thread count";
  EXPECT_EQ(finals[0], finals[1]);

  // Independent invariant check on a shadow rebuild of the mutated market:
  // live prices are the mutated base with inactive columns zeroed.
  market::Scenario mutated = *scenario;
  mutated.utilities = base;
  auto shadow = market::build_market(mutated);
  for (ChannelId i = 0; i < M; ++i)
    for (BuyerId j = 0; j < N; ++j)
      if (!active[static_cast<std::size_t>(j)]) shadow.set_utility(i, j, 0.0);
  EXPECT_TRUE(is_interference_free(shadow, finals[0]));
  EXPECT_TRUE(is_individual_rational(shadow, finals[0]));
  for (BuyerId j = 0; j < N; ++j) {
    if (!active[static_cast<std::size_t>(j)]) {
      EXPECT_EQ(finals[0].seller_of(j), kUnmatched)
          << "departed buyer " << j << " still holds a channel";
    }
  }
}

TEST(GraphRepresentationEquivalenceTest, SwapResolutionIdenticalAcrossReps) {
  const auto base = random_market(29, 6, 30);
  const auto dense =
      market::with_graph_representation(base, graph::GraphRep::kDense);
  const auto csr =
      market::with_graph_representation(base, graph::GraphRep::kCsr);
  const auto from_dense = run_two_stage_with_swaps(dense);
  const auto from_csr = run_two_stage_with_swaps(csr);
  EXPECT_EQ(from_dense.matching, from_csr.matching);
  EXPECT_EQ(from_dense.swaps_applied, from_csr.swaps_applied);
  EXPECT_EQ(from_dense.relocations, from_csr.relocations);
  EXPECT_EQ(from_dense.welfare_after, from_csr.welfare_after);
}

}  // namespace
}  // namespace specmatch::matching
