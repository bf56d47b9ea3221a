// §IV ablation (the paper gives no figure for this): compare the stage-
// transition rules of the distributed implementation.
//
//   default     — wait out the worst-case schedule MN / M / N (paper)
//   rule1+q     — buyer rule I + seller Q-rule (paper)
//   rule2+q     — buyer rule II + seller Q-rule (paper)
//   quiescence  — activity timeout on both sides (our extension)
//
// Reported per rule: slots to global termination, messages, welfare relative
// to the synchronous reference, and how often the result stays Nash-stable.
// Finding (see dist/transition.hpp): on U[0,1] prices the paper's
// probability estimates are conservative, so rule1/rule2 only shave the
// schedule when F(b) saturates; the timeout extension delivers the "7 slots
// instead of 23" behaviour the paper describes on its toy example.
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "dist/runtime.hpp"
#include "matching/paper_examples.hpp"
#include "matching/stability.hpp"
#include "matching/two_stage.hpp"

namespace specmatch::bench {
namespace {

const auto kTrials = static_cast<std::uint64_t>(env_trials(40));

struct RuleSetup {
  std::string name;
  dist::DistConfig config;
};

std::vector<RuleSetup> rule_setups() {
  dist::DistConfig rule1;
  rule1.buyer_rule = dist::BuyerRule::kRuleI;
  rule1.seller_rule = dist::SellerRule::kQRule;
  return {
      {"default(MN/M/N)", dist::DistConfig{}},
      {"rule1+q_rule", rule1},
      {"rule2+q_rule", dist::DistConfig::adaptive()},
      {"quiescence(w=3)", dist::DistConfig::quiescence(3)},
      {"quiescence(w=1)", dist::DistConfig::quiescence(1)},
  };
}

void toy_panel() {
  const auto market = matching::toy_example();
  const auto reference = matching::run_two_stage(market);
  Table table({"rule", "slots", "worst-case", "messages", "welfare",
               "ref-welfare", "nash-stable"});
  const int worst_case =
      market.num_channels() * market.num_buyers() + market.num_channels() +
      market.num_buyers();
  for (const auto& setup : rule_setups()) {
    const auto result = dist::run_distributed(market, setup.config);
    table.add_row({setup.name, std::to_string(result.slots),
                   std::to_string(worst_case),
                   std::to_string(result.messages),
                   format_double(result.matching.social_welfare(market), 1),
                   format_double(reference.welfare_final, 1),
                   matching::is_nash_stable(market, result.matching)
                       ? "yes"
                       : "no"});
  }
  print_panel("Toy example (Figs. 1-3): slots to termination per rule "
              "(paper: default needs 23 slots, 7 suffice)",
              table);
}

void random_panel(int sellers, int buyers) {
  Table table({"rule", "slots", "messages", "welfare/ref", "nash-stable%",
               "stage1-span"});
  for (const auto& setup : rule_setups()) {
    Summary slots, messages, ratio, nash, span;
    for (std::uint64_t seed = 1; seed <= kTrials; ++seed) {
      Rng rng(seed * 7919);
      const auto market =
          workload::generate_market(paper_params(sellers, buyers), rng);
      const auto reference = matching::run_two_stage(market);
      const auto result = dist::run_distributed(market, setup.config);
      slots.add(static_cast<double>(result.slots));
      messages.add(static_cast<double>(result.messages));
      ratio.add(result.matching.social_welfare(market) /
                reference.welfare_final);
      nash.add(matching::is_nash_stable(market, result.matching) ? 1.0
                                                                  : 0.0);
      span.add(static_cast<double>(result.last_stage1_slot + 1));
    }
    table.add_row({setup.name, format_double(slots.mean(), 1),
                   format_double(messages.mean(), 0),
                   format_double(ratio.mean(), 4),
                   format_double(100.0 * nash.mean(), 1),
                   format_double(span.mean(), 1)});
  }
  print_panel("Random markets M = " + std::to_string(sellers) +
                  ", N = " + std::to_string(buyers) + " (" +
                  std::to_string(kTrials) + " trials)",
              table);
}

void window_sweep_panel() {
  // How patient must the timeout be? Sweep the quiescence window, with and
  // without message loss (under loss, quiet gaps appear spuriously, so small
  // windows risk premature transitions).
  Table table({"window", "loss", "slots", "welfare/ref", "nash-stable%"});
  for (double loss : {0.0, 0.1}) {
    for (int window : {1, 2, 4, 8}) {
      Summary slots, ratio, nash;
      for (std::uint64_t seed = 1; seed <= kTrials; ++seed) {
        Rng rng(seed * 4409);
        const auto market =
            workload::generate_market(paper_params(5, 15), rng);
        const auto reference = matching::run_two_stage(market);
        auto config = dist::DistConfig::quiescence(window);
        config.message_loss_prob = loss;
        config.network_seed = seed * 53 + 29;
        const auto result = dist::run_distributed(market, config);
        slots.add(static_cast<double>(result.slots));
        ratio.add(result.matching.social_welfare(market) /
                  reference.welfare_final);
        nash.add(matching::is_nash_stable(market, result.matching) ? 1.0
                                                                    : 0.0);
      }
      table.add_row({std::to_string(window), format_double(loss, 2),
                     format_double(slots.mean(), 1),
                     format_double(ratio.mean(), 4),
                     format_double(100.0 * nash.mean(), 1)});
    }
  }
  print_panel("Quiescence window sweep, M = 5, N = 15 (" +
                  std::to_string(kTrials) + " trials)",
              table);
}

}  // namespace
}  // namespace specmatch::bench

int main() {
  std::cout
      << "Ablation — §IV stage-transition rules in the distributed runtime\n";
  specmatch::bench::toy_panel();
  specmatch::bench::random_panel(5, 15);
  specmatch::bench::random_panel(8, 40);
  specmatch::bench::window_sweep_panel();
  return 0;
}
