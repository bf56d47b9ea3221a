#include "matching/transfer_invitation.hpp"

#include <algorithm>
#include <utility>

#include "common/alloc_count.hpp"
#include "common/check.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "market/coalition.hpp"
#include "market/preferences.hpp"
#include "matching/workspace.hpp"

namespace specmatch::matching {

namespace {

/// Current utility of buyer j (the matching is interference-free throughout
/// Stage II, so this is b_{µ(j),j} or 0).
double current_utility(const market::SpectrumMarket& market,
                       const Matching& matching, BuyerId j) {
  return matching.buyer_utility(market, j);
}

}  // namespace

StageIIResult run_transfer_invitation(const market::SpectrumMarket& market,
                                      const Matching& stage1,
                                      const StageIIConfig& config) {
  MatchWorkspace workspace;
  return run_transfer_invitation(market, stage1, config, workspace);
}

StageIIResult run_transfer_invitation(const market::SpectrumMarket& market,
                                      const Matching& stage1,
                                      const StageIIConfig& config,
                                      MatchWorkspace& workspace) {
  workspace.prepare(market, config.component_min);
  return detail::run_transfer_invitation_prepared(market, stage1, config,
                                                  workspace);
}

namespace detail {

StageIIResult run_transfer_invitation_prepared(
    const market::SpectrumMarket& market, const Matching& stage1,
    const StageIIConfig& config, MatchWorkspace& ws) {
  const int M = market.num_channels();
  const int N = market.num_buyers();
  const auto nu = static_cast<std::size_t>(N);
  SPECMATCH_CHECK(stage1.num_channels() == M && stage1.num_buyers() == N);
  for (ChannelId i = 0; i < M; ++i)
    SPECMATCH_CHECK_MSG(
        market::interference_free(market, i, stage1.members_of(i)),
        "Stage II requires an interference-free input matching (channel "
            << i << ")");

  StageIIResult result;
  result.matching = stage1;

  // Steady-state allocation accounting; see deferred_acceptance.cpp.
  const bool counting = alloc_count::counting();
  const alloc_count::Scope alloc_scope;
  std::int64_t steady_allocs = 0;

  // Restricted mode: non-participants get an empty better-prefix, so the
  // phase-1 loop skips them in O(1) and their assignment carries over
  // verbatim. Departures re-activate buyers below (the cascade).
  const bool restricted = config.participants != nullptr;
  if (restricted) {
    SPECMATCH_CHECK(config.participants->size() ==
                    static_cast<std::size_t>(N));
    ws.stage2_active = *config.participants;
    if (metrics::enabled()) metrics::count("stage2.restricted_runs");
  }

  /// Computes buyer j's strictly-better prefix length against her current
  /// assignment (the preference CSR rows are descending by utility, so the
  /// strictly-better channels are exactly a prefix). This scan gathers
  /// floating-point utilities through the preference indirection, so it
  /// stays scalar by design — vectorising it would not change results (it
  /// is compare-only) but the gather dominates; the SIMD kernel layer
  /// (common/simd.hpp) instead accelerates the round bitsets below
  /// (applicants/coalitions/invite_list set algebra and iteration).
  auto better_prefix = [&](BuyerId j) {
    const double now = current_utility(market, result.matching, j);
    const auto prefs = ws.pref_order(j);
    std::size_t end = 0;
    while (end < prefs.size() && market.utility(prefs[end], j) > now) ++end;
    return end;
  };

  /// Departure cascade (restricted mode): buyer `departed` just left
  /// `old_channel`, so capacity opened there. The only buyers whose
  /// admissibility that can change are her interference component on that
  /// channel (edges never cross components) — activate any of them not yet
  /// participating, computing the better-prefix lazily now. Sound because an
  /// inactive buyer's own assignment has not changed since entry.
  auto activate_departure = [&](ChannelId old_channel, BuyerId departed) {
    if (!restricted || old_channel == kUnmatched) return;
    const graph::ComponentIndex& index =
        market.graph(old_channel).components();
    const std::uint32_t c = index.component_of(departed);
    for (const BuyerId v : index.vertices(c)) {
      const auto vu = static_cast<std::size_t>(v);
      if (ws.stage2_active.test(vu)) continue;
      ws.stage2_active.set(vu);
      ws.better_end[vu] = better_prefix(v);
      if (metrics::enabled()) metrics::count("component.cascade_activations");
    }
  };

  // ---- Admissibility (Algorithm 2 line 13) --------------------------------
  // v is admissible to seller i when no current member of i interferes with
  // her. A channel with a built blocker row answers in O(1); the others walk
  // v's neighbour row against µ(i). Channel i's row is built the first time
  // the run is about to ask at least |µ(i)| questions about it, so the build
  // is amortised over that round's queries and every later round's (over a
  // whole cold solve it pays for itself on CSR and dense channels alike).
  // Building every row at entry instead would cost restricted warm
  // re-solves, which ask a handful of questions, a walk over every member's
  // row.
  // The rows are Stage II's alone, so they are sized here (grow-only).
  if (ws.blockers.size() < static_cast<std::size_t>(M) * nu)
    ws.blockers.resize(static_cast<std::size_t>(M) * nu);
  ws.blocker_built.assign(static_cast<std::size_t>(M), 0);
  auto blocker_row = [&](ChannelId i) {
    return ws.blockers.data() + static_cast<std::size_t>(i) * nu;
  };
  /// Adds `delta` (1, or ~0u for -1: unsigned wrap) to channel i's row over
  /// buyer j's neighbours, when that row is built.
  auto count_member = [&](ChannelId i, BuyerId j, std::uint32_t delta) {
    if (i == kUnmatched || !ws.blocker_built[static_cast<std::size_t>(i)])
      return;
    std::uint32_t* row = blocker_row(i);
    market.graph(i).for_each_neighbor(j,
                                      [&](std::size_t u) { row[u] += delta; });
  };
  auto build_if_worthwhile = [&](ChannelId i, std::size_t queries) {
    const auto iu = static_cast<std::size_t>(i);
    if (ws.blocker_built[iu] || queries < result.matching.members_of(i).count())
      return;
    std::fill(blocker_row(i), blocker_row(i) + nu, 0u);
    ws.blocker_built[iu] = 1;
    result.matching.members_of(i).for_each_set([&](std::size_t m) {
      count_member(i, static_cast<BuyerId>(m), 1u);
    });
  };
  auto admissible = [&](ChannelId i, BuyerId v) {
    if (ws.blocker_built[static_cast<std::size_t>(i)])
      return blocker_row(i)[static_cast<std::size_t>(v)] == 0;
    return market.graph(i).is_compatible(v, result.matching.members_of(i));
  };
  /// Every Phase-1 move and Phase-2 acceptance: moves buyer j to seller i
  /// and keeps the built rows of her old and new channels current. Returns
  /// her old seller.
  auto rematch = [&](BuyerId j, ChannelId i) {
    const ChannelId old_channel = result.matching.seller_of(j);
    count_member(old_channel, j, ~0u);
    result.matching.rematch(j, i);
    count_member(i, j, 1u);
    return old_channel;
  };

  // ---- Phase 1: Transfer -------------------------------------------------
  trace::ScopedSpan phase1_span("stage2.phase1");
  // T_j: strictly-better sellers, best-first with a cursor; only the prefix
  // length is stored, no per-buyer list. Each buyer's prefix reads only the
  // (frozen) Stage-I matching and her own utility row, so all prefixes are
  // found concurrently.
  parallel_for(0, static_cast<std::size_t>(N), [&](std::size_t ju) {
    if (restricted && !ws.stage2_active.test(ju)) {
      ws.better_end[ju] = 0;
      return;
    }
    ws.better_end[ju] = better_prefix(static_cast<BuyerId>(ju));
  });
  if (metrics::enabled())
    for (std::size_t ju = 0; ju < static_cast<std::size_t>(N); ++ju)
      metrics::observe("stage2.better_list_size",
                       static_cast<double>(ws.better_end[ju]));

  while (true) {
    const std::int64_t round_allocs = counting ? alloc_scope.total() : 0;
    bool any_application = false;
    for (BuyerId j = 0; j < N; ++j) {
      const auto ju = static_cast<std::size_t>(j);
      // Exhausted (or never-active) buyers cost O(1) here — the advance loop
      // below only ever runs while the cursor is inside the prefix.
      if (ws.cursor[ju] >= ws.better_end[ju]) continue;
      const auto prefs = ws.pref_order(j);
      // Applications were queued best-first; once the head is no better than
      // the current match (after a successful transfer), the rest never will
      // be — the buyer is done.
      const double now = current_utility(market, result.matching, j);
      while (ws.cursor[ju] < ws.better_end[ju] &&
             market.utility(prefs[ws.cursor[ju]], j) <= now)
        ++ws.cursor[ju];
      if (ws.cursor[ju] >= ws.better_end[ju]) continue;
      const ChannelId i = prefs[ws.cursor[ju]++];
      ws.applicants[static_cast<std::size_t>(i)].set(ju);
      ++result.transfer_applications;
      any_application = true;
    }
    if (!any_application) break;
    ++result.phase1_rounds;

    // Sellers decide simultaneously against the round's starting matching;
    // moves are applied afterwards. Nothing writes the matching (or the
    // blocker rows) until every decision is made, so the live state is that
    // snapshot. Accepted sets stay feasible because µ(i) can only shrink
    // between decision and application (no eviction in Stage II). The
    // decisions are solved concurrently (solve_coalition_round, the same
    // driver as Stage I) and the moves/rejections collected serially in
    // channel order — identical output at any thread count.
    ws.round_channels.clear();
    for (ChannelId i = 0; i < M; ++i) {
      const DynamicBitset& d = ws.applicants[static_cast<std::size_t>(i)];
      if (!d.any()) continue;
      ws.round_channels.push_back(i);
      build_if_worthwhile(i, d.count());
    }
    solve_coalition_round(
        market, config.coalition_policy, ws,
        [&](ChannelId i, DynamicBitset& candidates) {
          candidates.assign_zero(static_cast<std::size_t>(N));
          ws.applicants[static_cast<std::size_t>(i)].for_each_set(
              [&](std::size_t j) {
                if (admissible(i, static_cast<BuyerId>(j))) candidates.set(j);
              });
        },
        [&](ChannelId i, BuyerId v) {
          return ws.applicants[static_cast<std::size_t>(i)].test(
                     static_cast<std::size_t>(v)) &&
                 admissible(i, v);
        });
    ws.moves.clear();
    for (std::size_t k = 0; k < ws.round_channels.size(); ++k) {
      const ChannelId i = ws.round_channels[k];
      const auto iu = static_cast<std::size_t>(i);
      ws.coalitions[k].for_each_set([&](std::size_t j) {
        ws.moves.emplace_back(static_cast<BuyerId>(j), i);
      });
      ws.apply_set.assign_difference(ws.applicants[iu], ws.coalitions[k]);
      ws.rejected[iu] |= ws.apply_set;
      ws.applicants[iu].clear();
    }
    for (const auto& [j, i] : ws.moves) {
      const ChannelId old_channel = rematch(j, i);
      ++result.transfers_accepted;
      activate_departure(old_channel, j);
    }
    if (counting && result.phase1_rounds >= 2)
      steady_allocs += alloc_scope.total() - round_allocs;
  }

  result.after_phase1 = result.matching;
  phase1_span.set_arg(result.phase1_rounds);
  phase1_span.end();

  // ---- Phase 2: Invitation -----------------------------------------------
  trace::ScopedSpan phase2_span("stage2.phase2");
  // Screen invitation lists against the sellers' final Phase-1 members
  // (Algorithm 2 line 20); `lane` indexes the scratch bitset the screening
  // runs on.
  auto screen = [&](ChannelId i, std::size_t lane) {
    const auto iu = static_cast<std::size_t>(i);
    build_if_worthwhile(i, ws.invite_list[iu].count());
    DynamicBitset& screened = ws.lane_set[lane];
    screened.assign_zero(nu);
    ws.invite_list[iu].for_each_set([&](std::size_t j) {
      const auto buyer = static_cast<BuyerId>(j);
      if (result.matching.seller_of(buyer) == i) return;
      if (admissible(i, buyer)) screened.set(j);
    });
    ws.invite_list[iu] = screened;
  };
  // Screening a list touches only that seller's slot and blocker row
  // (against the now-stable Phase-1 matching), so all sellers screen
  // concurrently.
  parallel_for_lanes(0, static_cast<std::size_t>(M),
                     [&](std::size_t lane, std::size_t iu) {
                       const auto i = static_cast<ChannelId>(iu);
                       ws.invite_list[iu] = ws.rejected[iu];
                       screen(i, lane);
                     });

  while (true) {
    const std::int64_t round_allocs = counting ? alloc_scope.total() : 0;
    bool any_invitation = false;
    for (ChannelId i = 0; i < M; ++i) {
      const auto iu = static_cast<std::size_t>(i);
      if (!ws.invite_list[iu].any()) continue;

      // Invite the listed buyer with the highest offered price (ties go to
      // the lowest id — ascending scan with strict >): one invitation per
      // seller per round.
      BuyerId best = kUnmatched;
      double best_price = -1.0;
      ws.invite_list[iu].for_each_set([&](std::size_t j) {
        const double price = market.utility(i, static_cast<BuyerId>(j));
        if (price > best_price) {
          best_price = price;
          best = static_cast<BuyerId>(j);
        }
      });
      SPECMATCH_DCHECK(best != kUnmatched);
      ++result.invitations_sent;
      any_invitation = true;
      if (admissible(i, best) &&
          best_price > current_utility(market, result.matching, best)) {
        const SellerId old_seller = rematch(best, i);
        ++result.invitations_accepted;
        // Drop the new member's interfering neighbours (line 29).
        market.graph(i).remove_neighbors_from(best, ws.invite_list[iu]);
        if (config.rescreen_on_departure && old_seller != kUnmatched) {
          // Extension: a departure may unblock buyers the one-shot
          // screening removed; rebuild the old seller's list from everyone
          // she ever rejected and screen again.
          ws.invite_list[static_cast<std::size_t>(old_seller)] |=
              ws.rejected[static_cast<std::size_t>(old_seller)];
          screen(old_seller, 0);
        }
      }
      ws.invite_list[iu].reset(static_cast<std::size_t>(best));
      // An invitation is never repeated (line 31).
      ws.rejected[iu].reset(static_cast<std::size_t>(best));
    }
    if (!any_invitation) break;
    ++result.phase2_rounds;
    if (counting && result.phase2_rounds >= 2)
      steady_allocs += alloc_scope.total() - round_allocs;
  }
  phase2_span.set_arg(result.phase2_rounds);

  result.matching.check_consistent();
  if (counting) result.steady_allocs = steady_allocs;
  result.blocker_rows =
      std::count(ws.blocker_built.begin(), ws.blocker_built.begin() + M, 1);
  // One flush per run, mirroring the StageIIResult fields (see the matching
  // note in deferred_acceptance.cpp).
  if (metrics::enabled()) {
    metrics::count("stage2.runs");
    metrics::count("stage2.phase1_rounds", result.phase1_rounds);
    metrics::count("stage2.transfer_applications",
                   result.transfer_applications);
    metrics::count("stage2.transfers_accepted", result.transfers_accepted);
    metrics::count("stage2.phase2_rounds", result.phase2_rounds);
    metrics::count("stage2.invitations_sent", result.invitations_sent);
    metrics::count("stage2.invitations_accepted",
                   result.invitations_accepted);
    metrics::count("stage2.blocker_rows", result.blocker_rows);
  }
  return result;
}

}  // namespace detail

}  // namespace specmatch::matching
