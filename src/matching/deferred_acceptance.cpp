#include "matching/deferred_acceptance.hpp"

#include "common/alloc_count.hpp"
#include "common/check.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "graph/mwis.hpp"
#include "matching/workspace.hpp"

namespace specmatch::matching {

StageIResult run_deferred_acceptance(const market::SpectrumMarket& market,
                                     const StageIConfig& config) {
  MatchWorkspace workspace;
  return run_deferred_acceptance(market, config, workspace);
}

StageIResult run_deferred_acceptance(const market::SpectrumMarket& market,
                                     const StageIConfig& config,
                                     MatchWorkspace& workspace) {
  workspace.prepare(market);
  return detail::run_deferred_acceptance_prepared(market, config, workspace);
}

namespace detail {

StageIResult run_deferred_acceptance_prepared(
    const market::SpectrumMarket& market, const StageIConfig& config,
    MatchWorkspace& ws) {
  const int M = market.num_channels();
  const int N = market.num_buyers();

  StageIResult result;
  result.matching = Matching(M, N);
  trace::ScopedSpan stage_span("stage1");

  // Steady-state allocation accounting: rounds after the first run entirely
  // on warm workspace storage, so with the counter enabled their delta is
  // the proof of the zero-allocation property (round 1 may still grow
  // capacities on a cold workspace and is excluded by design). The scope
  // charges this solve only: its own thread and the pool lanes it fans out
  // to, not other threads allocating meanwhile.
  const bool counting = alloc_count::counting();
  const alloc_count::Scope alloc_scope;
  std::int64_t steady_allocs = 0;

  while (true) {
    const std::int64_t round_allocs = counting ? alloc_scope.total() : 0;
    // Proposal phase: every unmatched buyer with a non-empty unproposed list
    // proposes to her most-preferred remaining seller. A_j is the buyer's
    // CSR preference row plus a cursor (proposals never revisit a seller,
    // Algorithm 1 line 9).
    bool any_proposal = false;
    StageIRound round_trace;
    for (BuyerId j = 0; j < N; ++j) {
      const auto ju = static_cast<std::size_t>(j);
      if (result.matching.is_matched(j)) continue;
      const auto prefs = ws.pref_order(j);
      if (ws.next_pref[ju] >= prefs.size()) continue;
      const ChannelId i = prefs[ws.next_pref[ju]++];
      ws.proposers[static_cast<std::size_t>(i)].set(ju);
      ++result.total_proposals;
      any_proposal = true;
      if (config.record_trace) round_trace.proposals.emplace_back(j, i);
    }
    if (!any_proposal) break;
    ++result.rounds;
    trace::ScopedSpan round_span("stage1.round", result.rounds);

    // Selection phase: each seller with proposers forms her most-preferred
    // coalition from waiting list plus proposers. Each seller's decision
    // reads only her own graph, prices, waiting list, and proposer set, so
    // all coalitions are solved concurrently against the pre-selection
    // matching (solve_coalition_round); evictions and admissions are then
    // applied serially in channel order, making the result bit-for-bit
    // identical to the serial loop at any thread count.
    ws.round_channels.clear();
    for (ChannelId i = 0; i < M; ++i)
      if (ws.proposers[static_cast<std::size_t>(i)].any())
        ws.round_channels.push_back(i);
    solve_coalition_round(
        market, config.coalition_policy, ws,
        [&](ChannelId i, DynamicBitset& candidates) {
          candidates.assign_or(result.matching.members_of(i),
                               ws.proposers[static_cast<std::size_t>(i)]);
        },
        [&](ChannelId i, BuyerId v) {
          const auto vu = static_cast<std::size_t>(v);
          return result.matching.members_of(i).test(vu) ||
                 ws.proposers[static_cast<std::size_t>(i)].test(vu);
        });
    for (std::size_t k = 0; k < ws.round_channels.size(); ++k) {
      const ChannelId i = ws.round_channels[k];
      const auto iu = static_cast<std::size_t>(i);
      // A greedy MWIS can return a coalition *worse* than the current
      // waiting list; adopting it would let a seller's value oscillate.
      // Only switch when the seller strictly prefers the new coalition
      // (eq. 6), otherwise keep the waiting list and reject all proposers.
      // Both sets are independent by construction, so her preference is
      // the price-sum comparison alone.
      const auto prices = market.channel_prices(i);
      if (graph::set_weight(prices, ws.coalitions[k]) <=
          graph::set_weight(prices, result.matching.members_of(i)))
        ws.coalitions[k] = result.matching.members_of(i);
      const DynamicBitset& chosen = ws.coalitions[k];
      // Evict waiting-list buyers not selected, then admit new members.
      ws.apply_set.assign_difference(result.matching.members_of(i), chosen);
      ws.apply_set.for_each_set([&](std::size_t j) {
        result.matching.unmatch(static_cast<BuyerId>(j));
        ++result.total_evictions;
      });
      ws.apply_set.assign_difference(chosen, result.matching.members_of(i));
      ws.apply_set.for_each_set([&](std::size_t j) {
        result.matching.match(static_cast<BuyerId>(j), i);
      });
      if (metrics::enabled()) {
        metrics::observe("stage1.waiting_set_size",
                         static_cast<double>(chosen.count()));
        metrics::count("stage1.rejections",
                       static_cast<std::int64_t>(
                           ws.proposers[iu].difference_count(chosen)));
      }
      // Only active sellers can hold proposers, so this clear loop already
      // skips every inactive seller.
      ws.proposers[iu].clear();
    }

    if (config.record_trace) {
      round_trace.round = result.rounds;
      round_trace.waiting_lists.resize(static_cast<std::size_t>(M));
      for (ChannelId i = 0; i < M; ++i) {
        result.matching.members_of(i).for_each_set([&](std::size_t j) {
          round_trace.waiting_lists[static_cast<std::size_t>(i)].push_back(
              static_cast<BuyerId>(j));
        });
      }
      result.trace.push_back(std::move(round_trace));
    }
    if (counting && result.rounds >= 2)
      steady_allocs += alloc_scope.total() - round_allocs;
  }

  result.matching.check_consistent();
  if (counting) result.steady_allocs = steady_allocs;
  // One flush per run: counter totals mirror the StageIResult fields, so the
  // registry view of a run matches what the caller already gets returned
  // (asserted by metrics_test).
  if (metrics::enabled()) {
    metrics::count("stage1.runs");
    metrics::count("stage1.rounds", result.rounds);
    metrics::count("stage1.proposals", result.total_proposals);
    metrics::count("stage1.evictions", result.total_evictions);
  }
  return result;
}

}  // namespace detail

}  // namespace specmatch::matching
