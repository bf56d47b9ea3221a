// Broad parameter-grid property sweep: every (M, N, similarity, range)
// combination must keep the §III-C guarantees and the cross-implementation
// equivalence. This is the widest net in the suite — cheap per point, many
// points.
#include <gtest/gtest.h>

#include <tuple>

#include "dist/runtime.hpp"
#include "matching/stability.hpp"
#include "matching/two_stage.hpp"
#include "optimal/greedy.hpp"
#include "workload/generator.hpp"

namespace specmatch {
namespace {

using GridParam = std::tuple<int /*M*/, int /*N*/, int /*similarity m*/,
                             double /*max range*/>;

class GridPropertyTest : public ::testing::TestWithParam<GridParam> {
 protected:
  market::SpectrumMarket make_market(std::uint64_t seed) const {
    const auto [M, N, sim, range] = GetParam();
    Rng rng(seed);
    workload::WorkloadParams params;
    params.num_sellers = M;
    params.num_buyers = N;
    params.similarity_permutation = sim > M ? M : sim;
    params.max_range = range;
    return workload::generate_market(params, rng);
  }
};

TEST_P(GridPropertyTest, TwoStageGuaranteesHoldEverywhere) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto market = make_market(seed * 101);
    const auto result = matching::run_two_stage(market);
    result.final_matching().check_consistent();
    EXPECT_TRUE(matching::is_interference_free(market,
                                               result.final_matching()));
    EXPECT_TRUE(matching::is_individual_rational(market,
                                                 result.final_matching()));
    EXPECT_TRUE(matching::is_nash_stable(market, result.final_matching()));
    EXPECT_GE(result.welfare_final + 1e-12, result.welfare_stage1);
    EXPECT_LE(result.stage1.rounds,
              market.num_channels() * market.num_buyers());
    EXPECT_LE(result.stage2.phase1_rounds, market.num_channels());
  }
}

TEST_P(GridPropertyTest, DistributedDefaultRuleMatchesReference) {
  const auto market = make_market(4242);
  const auto reference = matching::run_two_stage(market);
  const auto dist = dist::run_distributed(market);
  EXPECT_EQ(dist.matching, reference.final_matching());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GridPropertyTest,
    ::testing::Combine(::testing::Values(2, 5, 9),       // M
                       ::testing::Values(6, 15, 40),     // N
                       ::testing::Values(-1, 0, 3),      // similarity m
                       ::testing::Values(2.0, 5.0, 9.0)  // max range
                       ),
    [](const auto& info) {
      // (std::get over structured bindings: bracketed commas confuse the
      // INSTANTIATE macro's argument splitting)
      const int M = std::get<0>(info.param);
      const int N = std::get<1>(info.param);
      const int sim = std::get<2>(info.param);
      const int range = static_cast<int>(std::get<3>(info.param));
      return std::string("M")
          .append(std::to_string(M))
          .append("_N")
          .append(std::to_string(N))
          .append("_sim")
          .append(sim < 0 ? std::string("iid") : std::to_string(sim))
          .append("_r")
          .append(std::to_string(range));
    });

}  // namespace
}  // namespace specmatch
