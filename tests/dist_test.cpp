// Tests for the message-passing realisation of the two-stage algorithm (§IV).
#include "dist/runtime.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "common/stats.hpp"
#include "dist/network.hpp"
#include "matching/paper_examples.hpp"
#include "matching/stability.hpp"
#include "matching/two_stage.hpp"
#include "test_util.hpp"
#include "workload/generator.hpp"

namespace specmatch::dist {
namespace {

using testutil::members;

market::SpectrumMarket random_market(
    std::uint64_t seed, int sellers, int buyers,
    double max_range = workload::WorkloadParams{}.max_range) {
  Rng rng(seed);
  workload::WorkloadParams params;
  params.num_sellers = sellers;
  params.num_buyers = buyers;
  params.max_range = max_range;
  return workload::generate_market(params, rng);
}

TEST(NetworkTest, DeliversInOrderAndCounts) {
  Network net(3);
  net.send({MsgType::kPropose, 0, 2, 0.5, {}});
  net.send({MsgType::kReject, 1, 2, 0.0, {}});
  EXPECT_TRUE(net.has_pending());
  const auto inbox = net.drain(2);
  ASSERT_EQ(inbox.size(), 2u);
  EXPECT_EQ(inbox[0].type, MsgType::kPropose);
  EXPECT_EQ(inbox[1].type, MsgType::kReject);
  EXPECT_FALSE(net.has_pending());
  EXPECT_EQ(net.total_messages(), 2);
  EXPECT_EQ(net.messages_of(MsgType::kPropose), 1);
  EXPECT_EQ(net.messages_of(MsgType::kEvict), 0);
}

TEST(NetworkTest, BadRecipientThrows) {
  Network net(2);
  EXPECT_THROW(net.send({MsgType::kPropose, 0, 5, 0.0, {}}), CheckError);
  EXPECT_THROW((void)net.drain(-1), CheckError);
}

// ---- Default rule: exact equivalence with the synchronous reference --------

TEST(DistributedDefaultRule, ToyExampleMatchesReferenceExactly) {
  const auto market = matching::toy_example();
  const auto reference = matching::run_two_stage(market);
  const auto dist = run_distributed(market);
  EXPECT_EQ(dist.matching, reference.final_matching());
  EXPECT_DOUBLE_EQ(dist.matching.social_welfare(market), 30.0);
  EXPECT_FALSE(dist.hit_slot_cap);
}

TEST(DistributedDefaultRule, ToyExampleUsesTheWorstCaseSchedule) {
  // Default rule: Stage I occupies slots 0..MN-1 = 15 slots even though the
  // algorithm converged after 4 — that's the paper's "23 slots" complaint
  // (MN + M + N = 23 is the worst-case schedule; termination detection ends
  // the run once the invitations drain).
  const auto market = matching::toy_example();
  const auto dist = run_distributed(market);
  const int MN = market.num_channels() * market.num_buyers();
  EXPECT_EQ(dist.last_stage1_slot, MN - 1);
  EXPECT_GT(dist.slots, MN);
  EXPECT_LE(dist.slots, MN + market.num_channels() + market.num_buyers());
}

TEST(DistributedDefaultRule, CounterExampleMatchesReferenceExactly) {
  const auto market = matching::counter_example();
  const auto reference = matching::run_two_stage(market);
  const auto dist = run_distributed(market);
  EXPECT_EQ(dist.matching, reference.final_matching());
}

class DistEquivalenceTest
    : public ::testing::TestWithParam<
          std::tuple<int, int, double, std::uint64_t>> {};

TEST_P(DistEquivalenceTest, RandomMarketsMatchReferenceExactly) {
  const auto [sellers, buyers, max_range, seed] = GetParam();
  const auto market = random_market(seed, sellers, buyers, max_range);
  const auto reference = matching::run_two_stage(market);
  const auto dist = run_distributed(market);
  EXPECT_EQ(dist.matching, reference.final_matching())
      << "distributed default-rule run diverged from the reference";
  EXPECT_FALSE(dist.hit_slot_cap);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, DistEquivalenceTest,
    ::testing::Combine(::testing::Values(4), ::testing::Values(12),
                       ::testing::Values(workload::WorkloadParams{}.max_range),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u,
                                         10u, 21u, 22u, 23u, 24u, 25u)));

// Short ranges split the channel graphs into many interference components
// (1.8-112 per channel on average across this grid), the regime where the
// engine restricts warm Stage II runs by component and each coalition solve
// sees many small induced components. The engine and the message-passing
// runtime follow the same per-seller rules; these inputs check that
// fractured graphs keep it that way.
INSTANTIATE_TEST_SUITE_P(
    Sparse, DistEquivalenceTest,
    ::testing::Combine(::testing::Values(4, 6, 8),
                       ::testing::Values(50, 100, 200),
                       ::testing::Values(1.5),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u)));

// ---- Adaptive rules ---------------------------------------------------------

class AdaptiveRuleTest
    : public ::testing::TestWithParam<std::tuple<BuyerRule, SellerRule>> {};

TEST_P(AdaptiveRuleTest, ProducesFeasibleIndividuallyRationalMatchings) {
  const auto [buyer_rule, seller_rule] = GetParam();
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto market = random_market(seed, 4, 12);
    DistConfig config;
    config.buyer_rule = buyer_rule;
    config.seller_rule = seller_rule;
    const auto dist = run_distributed(market, config);
    EXPECT_FALSE(dist.hit_slot_cap);
    EXPECT_TRUE(matching::is_interference_free(market, dist.matching));
    EXPECT_TRUE(matching::is_individual_rational(market, dist.matching));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rules, AdaptiveRuleTest,
    ::testing::Values(std::make_tuple(BuyerRule::kRuleI, SellerRule::kQRule),
                      std::make_tuple(BuyerRule::kRuleII, SellerRule::kQRule),
                      std::make_tuple(BuyerRule::kRuleII,
                                      SellerRule::kDefault),
                      std::make_tuple(BuyerRule::kDefault,
                                      SellerRule::kQRule)));

TEST(AdaptiveRules, QuiescenceFinishesMuchFasterThanDefault) {
  Summary default_slots, quiescence_slots;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto market = random_market(seed, 5, 15);
    const auto d = run_distributed(market);
    const auto q = run_distributed(market, DistConfig::quiescence());
    EXPECT_FALSE(q.hit_slot_cap);
    EXPECT_TRUE(matching::is_interference_free(market, q.matching));
    EXPECT_TRUE(matching::is_individual_rational(market, q.matching));
    default_slots.add(static_cast<double>(d.slots));
    quiescence_slots.add(static_cast<double>(q.slots));
  }
  EXPECT_LT(quiescence_slots.mean(), 0.6 * default_slots.mean())
      << "the activity-timeout extension should beat the MN/M/N schedule";
}

TEST(AdaptiveRules, ThresholdRulesAreConservativeOnUniformPrices) {
  // Reproduction finding (see dist/transition.hpp): with U[0,1] prices the
  // paper's P^k / Q^k estimates stay near 1 until k ~ MN, so the threshold
  // rules transition close to the worst-case deadline. Pin that behaviour.
  const auto market = random_market(1, 5, 15);
  const auto d = run_distributed(market);
  const auto a = run_distributed(market, DistConfig::adaptive());
  EXPECT_GE(a.last_stage1_slot,
            market.num_channels() * market.num_buyers() - 2);
  EXPECT_LE(a.slots, d.slots);
}

TEST(AdaptiveRules, ThresholdRulesFireEarlyWhenPricesSaturateF) {
  // In the toy example prices exceed 1, so F(b) = 1 makes the estimated
  // risks zero and the paper's rules transition as soon as their local
  // conditions allow — the "7 slots instead of 23" behaviour of §IV.
  const auto market = matching::toy_example();
  const auto d = run_distributed(market);
  const auto a = run_distributed(market, DistConfig::adaptive());
  EXPECT_LT(a.slots, d.slots);
  EXPECT_LT(a.last_stage1_slot, market.num_channels() * market.num_buyers());
  EXPECT_TRUE(matching::is_interference_free(market, a.matching));
  EXPECT_TRUE(matching::is_individual_rational(market, a.matching));
}

TEST(AdaptiveRules, QuiescenceWindowTradesSpeedForFidelity) {
  // Larger windows approach the reference matching; window sweep must stay
  // feasible throughout and weakly improve welfare with patience.
  const auto market = random_market(9, 5, 15);
  const auto reference = matching::run_two_stage(market);
  double w_small = 0.0, w_large = 0.0;
  for (int window : {1, 8}) {
    const auto result =
        run_distributed(market, DistConfig::quiescence(window));
    EXPECT_TRUE(matching::is_interference_free(market, result.matching));
    const double welfare = result.matching.social_welfare(market);
    if (window == 1)
      w_small = welfare;
    else
      w_large = welfare;
  }
  EXPECT_GE(w_large + 1e-9, 0.9 * w_small);
  EXPECT_LE(w_large, reference.welfare_final + 1e-9);
}

TEST(AdaptiveRules, WelfareStaysCloseToReference) {
  Summary ratio;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const auto market = random_market(seed, 5, 15);
    const auto reference = matching::run_two_stage(market);
    const auto a = run_distributed(market, DistConfig::adaptive());
    ratio.add(a.matching.social_welfare(market) /
              reference.welfare_final);
  }
  EXPECT_GT(ratio.mean(), 0.9);
}

TEST(DistributedRun, MessageCountsAreReported) {
  const auto market = matching::toy_example();
  const auto dist = run_distributed(market);
  EXPECT_GT(dist.messages, 0);
  EXPECT_EQ(dist.messages, dist.data_messages);  // no broadcasts by default
  EXPECT_EQ(dist.transmissions, dist.messages);  // lossless: 1 frame each
  EXPECT_EQ(dist.losses, 0);
  // The per-type breakdown sums to the total and shows the Stage-I core.
  std::int64_t sum = 0;
  for (std::int64_t n : dist.messages_by_type) sum += n;
  EXPECT_EQ(sum, dist.messages);
  EXPECT_GT(dist.messages_by_type[static_cast<std::size_t>(
                MsgType::kPropose)],
            0);
  EXPECT_GT(dist.messages_by_type[static_cast<std::size_t>(
                MsgType::kInvite)],
            0);

  // Under loss, retransmissions and acks inflate physical transmissions.
  DistConfig lossy;
  lossy.message_loss_prob = 0.2;
  const auto faulty = run_distributed(matching::toy_example(), lossy);
  EXPECT_GT(faulty.transmissions, faulty.messages);
  EXPECT_GT(faulty.losses, 0);

  const auto market2 = matching::toy_example();
  DistConfig config;
  config.buyer_rule = BuyerRule::kRuleI;
  const auto with_reports = run_distributed(market2, config);
  EXPECT_GE(with_reports.messages, with_reports.data_messages);
}

// ---- Message-delay tolerance ------------------------------------------------

TEST(NetworkDelayTest, DelayedMessagesBecomeVisibleLater) {
  NetworkConfig config;
  config.min_delay = 2;
  config.max_delay = 2;
  Network net(2, config);
  net.begin_slot(0);
  net.send({MsgType::kPropose, 0, 1, 0.5, {}});
  EXPECT_TRUE(net.drain(1).empty());
  net.begin_slot(1);
  EXPECT_TRUE(net.drain(1).empty());
  net.begin_slot(2);
  EXPECT_EQ(net.drain(1).size(), 1u);
  EXPECT_FALSE(net.has_pending());
}

TEST(NetworkDelayTest, ChannelsStayFifoUnderRandomDelays) {
  NetworkConfig config;
  config.min_delay = 0;
  config.max_delay = 4;
  config.seed = 9;
  Network net(2, config);
  // Send a numbered stream and check it drains in order.
  for (int t = 0; t < 30; ++t) {
    net.begin_slot(t);
    net.send({MsgType::kPropose, 0, 1, static_cast<double>(t), {}});
  }
  double last = -1.0;
  for (int t = 0; t < 40; ++t) {
    net.begin_slot(t);
    for (const auto& msg : net.drain(1)) {
      EXPECT_GT(msg.price, last);
      last = msg.price;
    }
  }
  EXPECT_DOUBLE_EQ(last, 29.0);
}

class DelayToleranceTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(DelayToleranceTest, ProtocolStaysSoundUnderRandomDelays) {
  const auto [max_delay, seed] = GetParam();
  const auto market = random_market(seed, 4, 12);
  DistConfig config;
  config.max_message_delay = max_delay;
  config.network_seed = seed * 31 + 7;
  const auto result = run_distributed(market, config);
  EXPECT_FALSE(result.hit_slot_cap);
  result.matching.check_consistent();
  EXPECT_TRUE(matching::is_interference_free(market, result.matching));
  EXPECT_TRUE(matching::is_individual_rational(market, result.matching));
  EXPECT_GT(result.matching.social_welfare(market), 0.0);
}

TEST_P(DelayToleranceTest, WelfareStaysNearTheReference) {
  const auto [max_delay, seed] = GetParam();
  const auto market = random_market(seed, 4, 12);
  const auto reference = matching::run_two_stage(market);
  DistConfig config;
  config.max_message_delay = max_delay;
  config.network_seed = seed * 131 + 13;
  const auto result = run_distributed(market, config);
  EXPECT_GT(result.matching.social_welfare(market),
            0.85 * reference.welfare_final)
      << "delayed run lost too much welfare (delay " << max_delay << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Delays, DelayToleranceTest,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u)));

// ---- Message-loss tolerance (reliable-delivery mode) ------------------------

TEST(NetworkLossTest, ReliableModeDeliversExactlyOnceInOrder) {
  NetworkConfig config;
  config.loss_prob = 0.3;
  config.retransmit_every = 1;
  config.seed = 5;
  Network net(2, config);
  const int kMessages = 60;
  for (int t = 0; t < kMessages; ++t) {
    net.begin_slot(t);
    net.send({MsgType::kPropose, 0, 1, static_cast<double>(t), {}});
  }
  std::vector<double> received;
  int slot = kMessages;
  while (net.has_pending() && slot < kMessages + 400) {
    net.begin_slot(slot++);
    for (const auto& msg : net.drain(1)) received.push_back(msg.price);
  }
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kMessages));
  for (int t = 0; t < kMessages; ++t)
    EXPECT_DOUBLE_EQ(received[static_cast<std::size_t>(t)],
                     static_cast<double>(t));
  EXPECT_GT(net.losses(), 0);
  EXPECT_GT(net.transmissions(), 2 * kMessages);  // data + acks + retries
}

class LossToleranceTest
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(LossToleranceTest, ProtocolSurvivesLossyLinks) {
  const auto [loss, seed] = GetParam();
  const auto market = random_market(seed, 4, 12);
  DistConfig config;
  config.message_loss_prob = loss;
  config.network_seed = seed * 11 + 3;
  const auto result = run_distributed(market, config);
  EXPECT_FALSE(result.hit_slot_cap) << "loss " << loss;
  result.matching.check_consistent();
  EXPECT_TRUE(matching::is_interference_free(market, result.matching));
  EXPECT_TRUE(matching::is_individual_rational(market, result.matching));
  const auto reference = matching::run_two_stage(market);
  EXPECT_GT(result.matching.social_welfare(market),
            0.8 * reference.welfare_final);
}

INSTANTIATE_TEST_SUITE_P(
    Losses, LossToleranceTest,
    ::testing::Combine(::testing::Values(0.05, 0.15, 0.3),
                       ::testing::Values(1u, 2u, 3u, 4u)));

TEST(LossToleranceTest, LossCombinesWithDelay) {
  const auto market = random_market(6, 4, 10);
  DistConfig config;
  config.message_loss_prob = 0.2;
  config.max_message_delay = 2;
  const auto result = run_distributed(market, config);
  EXPECT_FALSE(result.hit_slot_cap);
  EXPECT_TRUE(matching::is_interference_free(market, result.matching));
  EXPECT_TRUE(matching::is_individual_rational(market, result.matching));
}

// ---- Buyer crash-fault tolerance --------------------------------------------

class CrashToleranceTest
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(CrashToleranceTest, MarketTerminatesAndStaysSoundDespiteCrashes) {
  const auto [crash_prob, seed] = GetParam();
  const auto market = random_market(seed, 4, 16);
  DistConfig config;
  config.buyer_crash_prob = crash_prob;
  config.network_seed = seed * 71 + 5;
  const auto result = run_distributed(market, config);
  EXPECT_FALSE(result.hit_slot_cap) << "crashes must not stall termination";
  result.matching.check_consistent();
  EXPECT_TRUE(matching::is_interference_free(market, result.matching));
  EXPECT_LE(result.alive_welfare,
            result.matching.social_welfare(market) + 1e-9);
  // Survivors' books agree with the sellers' (checked inside the runtime);
  // crash accounting is self-consistent.
  int flagged = 0;
  for (bool dead : result.crashed)
    if (dead) ++flagged;
  EXPECT_EQ(flagged, result.crashed_buyers);
}

INSTANTIATE_TEST_SUITE_P(
    Crashes, CrashToleranceTest,
    ::testing::Combine(::testing::Values(0.1, 0.3, 0.6),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u)));

TEST(CrashToleranceTest, CrashesCombineWithLossAndDelay) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto market = random_market(seed * 9, 4, 12);
    DistConfig config;
    config.buyer_crash_prob = 0.25;
    config.message_loss_prob = 0.15;
    config.max_message_delay = 1;
    config.network_seed = seed;
    const auto result = run_distributed(market, config);
    EXPECT_FALSE(result.hit_slot_cap);
    EXPECT_TRUE(matching::is_interference_free(market, result.matching));
  }
}

TEST(CrashToleranceTest, NoCrashesMeansNoCrashAccounting) {
  const auto market = random_market(3, 4, 10);
  const auto result = run_distributed(market);
  EXPECT_EQ(result.crashed_buyers, 0);
  EXPECT_EQ(result.stale_conflicts, 0);
  EXPECT_NEAR(result.alive_welfare, result.matching.social_welfare(market),
              1e-12);
}

TEST(CrashToleranceTest, AliveWelfareShrinksWithCrashRate) {
  Summary low, high;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto market = random_market(seed * 5, 5, 20);
    DistConfig few, many;
    few.buyer_crash_prob = 0.05;
    few.network_seed = seed;
    many.buyer_crash_prob = 0.6;
    many.network_seed = seed;
    low.add(run_distributed(market, few).alive_welfare);
    high.add(run_distributed(market, many).alive_welfare);
  }
  EXPECT_GT(low.mean(), high.mean());
}

TEST(DelayToleranceTest, ZeroDelayStillMatchesReferenceExactly) {
  const auto market = random_market(17, 4, 12);
  DistConfig config;
  config.max_message_delay = 0;
  const auto result = run_distributed(market, config);
  EXPECT_EQ(result.matching,
            matching::run_two_stage(market).final_matching());
}

TEST(DistributedRun, ScalesToLargerMarkets) {
  const auto market = random_market(3, 8, 60);
  const auto dist = run_distributed(market, DistConfig::adaptive());
  EXPECT_FALSE(dist.hit_slot_cap);
  EXPECT_TRUE(matching::is_interference_free(market, dist.matching));
  EXPECT_GT(dist.matching.social_welfare(market), 0.0);
}

}  // namespace
}  // namespace specmatch::dist
