// Randomised differential and stress tests across the stack, and seeded
// mutation fuzzing of the parsers that read outside bytes.
#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "dist/runtime.hpp"
#include "matching/stability.hpp"
#include "matching/swap_resolution.hpp"
#include "matching/two_stage.hpp"
#include "optimal/exact.hpp"
#include "serve/protocol.hpp"
#include "workload/generator.hpp"
#include "workload/io.hpp"

namespace specmatch {
namespace {

TEST(MatchingFuzzTest, RandomOpsAgainstReferenceMap) {
  Rng rng(1234);
  const int M = 6, N = 24;
  matching::Matching matching(M, N);
  std::map<BuyerId, SellerId> reference;

  for (int op = 0; op < 5000; ++op) {
    const auto j = static_cast<BuyerId>(rng.uniform_int(0, N - 1));
    const auto i = static_cast<SellerId>(rng.uniform_int(0, M - 1));
    switch (rng.uniform_int(0, 2)) {
      case 0:  // match if unmatched
        if (!reference.contains(j)) {
          matching.match(j, i);
          reference[j] = i;
        }
        break;
      case 1:  // unmatch
        matching.unmatch(j);
        reference.erase(j);
        break;
      case 2:  // rematch
        matching.rematch(j, i);
        reference[j] = i;
        break;
    }
    if (op % 500 == 0) matching.check_consistent();
  }
  matching.check_consistent();
  for (BuyerId j = 0; j < N; ++j) {
    const auto it = reference.find(j);
    EXPECT_EQ(matching.seller_of(j),
              it == reference.end() ? kUnmatched : it->second);
  }
  int total = 0;
  for (SellerId i = 0; i < M; ++i)
    total += static_cast<int>(matching.members_of(i).count());
  EXPECT_EQ(total, static_cast<int>(reference.size()));
}

TEST(OptimalFuzzTest, BranchAndBoundMatchesExhaustiveOnVariedShapes) {
  for (std::uint64_t seed = 100; seed < 130; ++seed) {
    Rng rng(seed);
    workload::WorkloadParams params;
    params.num_sellers = 1 + static_cast<int>(seed % 4);
    params.num_buyers = 4 + static_cast<int>(seed % 5);
    params.min_demand_per_buyer = 1;
    params.max_demand_per_buyer = 2;
    const auto market = workload::generate_market(params, rng);
    if (market.num_buyers() > 11) continue;  // keep exhaustive tractable
    const auto bb = optimal::solve_optimal(market);
    const auto brute = optimal::solve_optimal_exhaustive(market);
    EXPECT_NEAR(bb.welfare, brute.welfare, 1e-9) << "seed " << seed;
  }
}

TEST(TwoStageFuzzTest, ExtremeUtilityPatterns) {
  // All-equal utilities: massive ties everywhere; determinism + invariants.
  {
    const int M = 3, N = 9;
    std::vector<double> prices(static_cast<std::size_t>(M * N), 0.5);
    std::vector<graph::InterferenceGraph> graphs;
    Rng rng(5);
    for (int i = 0; i < M; ++i)
      graphs.push_back(
          graph::erdos_renyi(static_cast<std::size_t>(N), 0.4, rng));
    const market::SpectrumMarket market(M, N, prices, std::move(graphs));
    const auto a = matching::run_two_stage(market);
    const auto b = matching::run_two_stage(market);
    EXPECT_EQ(a.final_matching(), b.final_matching());
    EXPECT_TRUE(matching::is_interference_free(market, a.final_matching()));
    EXPECT_TRUE(matching::is_nash_stable(market, a.final_matching()));
  }
  // All-zero utilities: nobody proposes, empty (but valid) outcome.
  {
    const int M = 2, N = 4;
    std::vector<double> prices(static_cast<std::size_t>(M * N), 0.0);
    std::vector<graph::InterferenceGraph> graphs(
        static_cast<std::size_t>(M),
        graph::InterferenceGraph(static_cast<std::size_t>(N)));
    const market::SpectrumMarket market(M, N, prices, std::move(graphs));
    const auto result = matching::run_two_stage(market);
    EXPECT_EQ(result.final_matching().num_matched(), 0);
    EXPECT_EQ(result.stage1.rounds, 0);
    EXPECT_DOUBLE_EQ(result.welfare_final, 0.0);
    EXPECT_TRUE(matching::is_nash_stable(market, result.final_matching()));
  }
  // One buyer with zero utility on all but one channel.
  {
    const int M = 3, N = 1;
    std::vector<double> prices = {0.0, 0.7, 0.0};
    std::vector<graph::InterferenceGraph> graphs(
        static_cast<std::size_t>(M), graph::InterferenceGraph(1));
    const market::SpectrumMarket market(M, N, prices, std::move(graphs));
    const auto result = matching::run_two_stage(market);
    EXPECT_EQ(result.final_matching().seller_of(0), 1);
  }
}

TEST(DistStressTest, RandomConfigsKeepEveryInvariant) {
  Rng meta(777);
  for (int trial = 0; trial < 40; ++trial) {
    Rng rng(meta.next_u64());
    workload::WorkloadParams params;
    params.num_sellers = 2 + static_cast<int>(meta.uniform_int(0, 5));
    params.num_buyers = 4 + static_cast<int>(meta.uniform_int(0, 20));
    params.min_demand_per_buyer = 1;
    params.max_demand_per_buyer = 1 + static_cast<int>(meta.uniform_int(0, 1));
    const auto market = workload::generate_market(params, rng);

    dist::DistConfig config;
    switch (meta.uniform_int(0, 3)) {
      case 0: break;  // default
      case 1: config = dist::DistConfig::adaptive(); break;
      case 2:
        config = dist::DistConfig::quiescence(
            1 + static_cast<int>(meta.uniform_int(0, 4)));
        break;
      case 3:
        config.buyer_rule = dist::BuyerRule::kRuleI;
        config.seller_rule = dist::SellerRule::kQRule;
        break;
    }
    config.max_message_delay = static_cast<int>(meta.uniform_int(0, 3));
    if (meta.bernoulli(0.4))
      config.message_loss_prob = meta.uniform(0.02, 0.25);
    if (meta.bernoulli(0.3))
      config.buyer_crash_prob = meta.uniform(0.05, 0.4);
    config.network_seed = meta.next_u64();

    const auto result = dist::run_distributed(market, config);
    ASSERT_FALSE(result.hit_slot_cap) << "trial " << trial;
    result.matching.check_consistent();
    EXPECT_TRUE(matching::is_interference_free(market, result.matching))
        << "trial " << trial;
    if (result.crashed_buyers == 0) {
      EXPECT_TRUE(matching::is_individual_rational(market, result.matching))
          << "trial " << trial;
    }
  }
}

TEST(SwapFuzzTest, ResolutionIsAFixedPointOperatorEverywhere) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed * 999);
    workload::WorkloadParams params;
    params.num_sellers = 3 + static_cast<int>(seed % 5);
    params.num_buyers = 8 + static_cast<int>(seed % 12);
    params.min_range = (seed % 2 == 0) ? 2.0 : 0.0;  // mix congestion levels
    const auto market = workload::generate_market(params, rng);
    const auto once = matching::run_two_stage_with_swaps(market);
    const auto twice =
        matching::resolve_blocking_pairs(market, once.matching);
    EXPECT_EQ(twice.swaps_applied, 0) << "seed " << seed;
    EXPECT_GE(once.welfare_after + 1e-12, once.welfare_before);
  }
}

// --- parser mutation fuzzing ------------------------------------------------

/// The scenario the parser fuzzers start from (with the optional reserves
/// section, so its count can be inflated too).
const std::string kSeedScenario =
    "specmatch-scenario v1\n"
    "sellers 2\n1 1\n"
    "buyers 3\n1 1 1\n"
    "locations\n0 0\n1 0\n5 0\n"
    "ranges 2\n2 2\n"
    "reserves 2\n0.1 0.2\n"
    "utilities 2 3\n0.9 0.4 0.7\n0.3 0.8 0.6\n";

/// A valid request stream in the style of the serve_smoke transcript: two
/// creates with embedded scenarios, then every other verb.
const std::string kSeedTranscript =
    "# parser fuzz seed\n"
    "create a\n" + kSeedScenario +
    "solve a cold\nquery a\nstats a\n"
    "create b\n"
    "specmatch-scenario v1\n"
    "sellers 1\n2\n"
    "buyers 2\n1 2\n"
    "locations\n0 0\n0.5 0\n"
    "ranges 2\n1.5 1.5\n"
    "utilities 2 3\n0.5 0.9 0.2\n0.4 0.1 0.8\n"
    "solve b warm\nprice a 1 0 0.95\nleave a 2\njoin a 2\n"
    "solve a warm\nsnapshot a\nrestore a\n";

/// Values a hostile peer puts in a count: the int, uint32 and int64
/// boundaries, and 10^18.
const std::vector<std::string> kInflated = {
    "2147483647",          "2147483648",          "-2147483648",
    "4294967296",          "9223372036854775807", "9223372036854775808",
    "18446744073709551615", "1000000000000000000"};

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  return text;
}

/// [begin, end) of every numeric token of `text`.
std::vector<std::pair<std::size_t, std::size_t>> numeric_tokens(
    const std::string& text) {
  std::vector<std::pair<std::size_t, std::size_t>> tokens;
  const auto space = [&](std::size_t at) {
    return std::isspace(static_cast<unsigned char>(text[at])) != 0;
  };
  for (std::size_t at = 0; at < text.size();) {
    if (space(at)) {
      ++at;
      continue;
    }
    const std::size_t begin = at;
    while (at < text.size() && !space(at)) ++at;
    const char lead = text[begin] == '-' && at - begin > 1 ? text[begin + 1]
                                                           : text[begin];
    if (std::isdigit(static_cast<unsigned char>(lead)) != 0)
      tokens.emplace_back(begin, at);
  }
  return tokens;
}

/// Applies one to three seeded mutations: flip a byte; drop, duplicate or
/// swap lines; inflate a numeric token.
std::string mutate(const std::string& seed, Rng& rng) {
  std::string text = seed;
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const int ops = static_cast<int>(rng.uniform_int(1, 3));
  for (int op = 0; op < ops; ++op) {
    std::vector<std::string> lines = split_lines(text);
    switch (rng.uniform_int(0, 4)) {
      case 0:
        if (!text.empty())
          text[pick(text.size())] ^=
              static_cast<char>(rng.uniform_int(1, 255));
        continue;
      case 1:
        if (lines.empty()) continue;
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(
                                        pick(lines.size())));
        break;
      case 2: {
        if (lines.empty()) continue;
        const std::size_t at = pick(lines.size());
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                     lines[at]);
        break;
      }
      case 3:
        if (lines.empty()) continue;
        std::swap(lines[pick(lines.size())], lines[pick(lines.size())]);
        break;
      default: {
        const auto tokens = numeric_tokens(text);
        if (tokens.empty()) continue;
        const auto [begin, end] = tokens[pick(tokens.size())];
        text.replace(begin, end - begin, kInflated[pick(kInflated.size())]);
        continue;
      }
    }
    text = join_lines(lines);
  }
  return text;
}

/// Feeds `input` to a parser. Passes when it parses or throws one of the
/// parsers' own errors; any other exception fails the test with the input.
/// Returns true iff it parsed.
template <typename Parse>
bool parses_or_fails_loudly(const std::string& input, Parse&& parse) {
  try {
    parse(input);
    return true;
  } catch (const serve::ProtocolError&) {
  } catch (const workload::ScenarioParseError&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << "parser escaped with '" << e.what() << "' on:\n"
                  << input;
  }
  return false;
}

void read_requests(const std::string& text) {
  std::istringstream in(text);
  serve::RequestReader reader(in);
  serve::Request request;
  while (reader.next(request)) {
  }
}

void read_scenario(const std::string& text) {
  std::istringstream in(text);
  (void)workload::load_scenario(in);
}

TEST(ParserFuzzTest, EveryInflatedNumberParsesOrFailsLoudly) {
  // Exhaustive over the seeds: each numeric token in turn, each hostile
  // value. An inflated count (reserves 10^18, a utilities M x N past the
  // address space) must fail as a parse error, never size an allocation.
  for (const auto& [seed, parse] :
       {std::pair{kSeedTranscript, &read_requests},
        std::pair{kSeedScenario, &read_scenario}}) {
    ASSERT_TRUE(parses_or_fails_loudly(seed, parse));
    int rejected = 0;
    const auto tokens = numeric_tokens(seed);
    for (const auto& [begin, end] : tokens) {
      for (const std::string& value : kInflated) {
        std::string mutant = seed;
        mutant.replace(begin, end - begin, value);
        if (!parses_or_fails_loudly(mutant, parse)) ++rejected;
      }
    }
    EXPECT_GT(rejected, 0);
  }
}

TEST(ParserFuzzTest, MutatedTranscriptsParseOrThrowProtocolError) {
  Rng rng(2026);
  int parsed = 0;
  for (int trial = 0; trial < 3000; ++trial)
    if (parses_or_fails_loudly(mutate(kSeedTranscript, rng), read_requests))
      ++parsed;
  // Mutations must reach the parsers' error paths, and some must survive.
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, 3000);
}

TEST(ParserFuzzTest, MutatedScenariosLoadOrThrowScenarioParseError) {
  Rng rng(2027);
  int parsed = 0;
  for (int trial = 0; trial < 3000; ++trial)
    if (parses_or_fails_loudly(mutate(kSeedScenario, rng), read_scenario))
      ++parsed;
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, 3000);
}

}  // namespace
}  // namespace specmatch
