// MatchWorkspace: all per-run scratch state of the matching engine in one
// reusable object.
//
// Every round of Stage I deferred acceptance, Stage II transfer/invitation,
// and Stage III swap resolution used to heap-allocate fresh bitsets, seller
// slots, and per-buyer preference lists; at the ROADMAP's production scale
// that allocator traffic, not the matching arithmetic, bounds throughput. A
// MatchWorkspace owns all of it — the flattened CSR preference orders, the
// per-seller proposer/applicant/rejected/invitation bitsets, the coalition
// slots both stages' rounds share, the per-lane MWIS scratch (induced
// adjacency, scores and indexed heaps), and Stage II's per-channel blocker
// counts — sized once (by prepare(), and the blocker rows at Stage II entry)
// and reinitialised (never reallocated) by each run, so steady-state Stage
// I/II rounds perform zero heap allocations on the serial path (threads = 1;
// the thread pool's dispatch itself allocates). The engine samples the
// SPECMATCH_COUNT_ALLOCS counter around steady rounds to prove it
// (StageIResult::steady_allocs, StageIIResult::steady_allocs,
// workspace_test, bench/large_market).
//
// Reuse contract: results never depend on prior workspace contents — every
// run_* entry point taking a workspace calls prepare(), which re-derives all
// market-dependent state (the CSR) and zeroes all round state (Stage II
// marks every blocker row unbuilt at entry; a build zeroes its own row), so
// one workspace may serve any sequence of markets of any shapes (asserted by
// workspace_test). The workspace is not thread-safe; per-lane members are
// indexed by the pool lane the engine hands each task.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/bitset.hpp"
#include "common/ids.hpp"
#include "common/thread_pool.hpp"
#include "graph/mwis.hpp"
#include "market/market.hpp"
#include "matching/matching.hpp"

namespace specmatch::matching {

struct MatchWorkspace {
  /// Sizes every container for `market` and rebuilds the market-derived
  /// tables (the CSR preference orders), and forces every channel graph's
  /// component index on this serial path, since the restricted Stage II
  /// departure cascade and the serve registry's mark_dirty read it.
  /// Grow-only for capacities: repeated runs over same-shaped (or
  /// smaller) markets never allocate here beyond the first call. Called by
  /// every workspace-taking run_* entry point.
  ///
  /// `component_min` is read by nothing. It stays only so that
  /// perfbench/twin.cpp's two-argument prepare calls keep compiling; delete
  /// it with them.
  void prepare(const market::SpectrumMarket& market, int component_min = 0);

  /// Buyer j's admissible channels, best-first (the CSR row built from
  /// SpectrumMarket::append_buyer_preference_order).
  std::span<const ChannelId> pref_order(BuyerId j) const {
    const auto ju = static_cast<std::size_t>(j);
    return {pref_channels.data() + pref_offsets[ju],
            pref_offsets[ju + 1] - pref_offsets[ju]};
  }

  // --- flattened preference orders (offsets + channels CSR) ---------------
  std::vector<std::size_t> pref_offsets;  ///< N + 1 row starts
  std::vector<ChannelId> pref_channels;   ///< concatenated descending orders

  // --- Stage I round state ------------------------------------------------
  std::vector<std::size_t> next_pref;     ///< per-buyer proposal cursor
  std::vector<DynamicBitset> proposers;   ///< P_i per seller

  // --- Stage II round state -----------------------------------------------
  // The per-seller bitsets below are the Stage II hot state: their set
  // algebra (assign_difference, |=, any, for_each_set) runs on the runtime-
  // dispatched SIMD kernels of common/simd.hpp. The better_end/cursor prefix
  // scans stay scalar — they gather FP utilities through the preference CSR.
  std::vector<std::size_t> better_end;  ///< per-buyer better-list prefix len
  std::vector<std::size_t> cursor;      ///< per-buyer transfer cursor
  std::vector<DynamicBitset> applicants;   ///< D_i per seller
  std::vector<DynamicBitset> rejected;     ///< rejected-ever per seller
  std::vector<DynamicBitset> invite_list;  ///< R_i per seller
  std::vector<std::pair<BuyerId, ChannelId>> moves;  ///< round's transfers
  /// Blocker counts, one row of N per channel: blockers[i·N + v] is the
  /// number of µ(i) members adjacent to v on channel i, so v is admissible
  /// to seller i (Algorithm 2 line 13) exactly when it is 0. Only Stage II
  /// uses them: it sizes them at entry (grow-only; the first growth zeroes
  /// them, later runs do not), builds a channel's row the first time it is
  /// about to make at least |µ(i)| admissibility queries there, and keeps
  /// built rows current across every transfer; other channels answer with
  /// an is_compatible row walk.
  std::vector<std::uint32_t> blockers;
  std::vector<std::uint8_t> blocker_built;  ///< per channel: row is current

  // --- coalition rounds (solve_coalition_round) ---------------------------
  // Stage I selection and Stage II decision rounds never run at the same
  // time on one workspace, so they share these slots.
  std::vector<ChannelId> round_channels;  ///< the round's sellers, slot order
  std::vector<DynamicBitset> coalitions;  ///< per-slot chosen coalition

  // --- shared round temporaries -------------------------------------------
  DynamicBitset apply_set;  ///< serial-phase temp (evicted/admitted/rejected)

  // --- per-lane solver scratch (indexed by pool lane; grow-only) ----------
  std::vector<DynamicBitset> lane_set;            ///< candidate/admissible set
  std::vector<graph::MwisScratch> lane_scratch;   ///< MWIS induced graphs

  // Stage II restricted mode: the active participant set (config copy plus
  /// buyers activated by departure cascades).
  DynamicBitset stage2_active;

  // --- Stage III scratch --------------------------------------------------
  Matching scratch_matching;      ///< simulation copy per candidate swap
  std::vector<BuyerId> displaced;  ///< dropped buyers, best-first
  DynamicBitset swap_dropped;  ///< members interfering with a candidate joiner
};

/// One coalition round of Stage I (Algorithm 1 line 12) or Stage II
/// (Algorithm 2 line 13): every seller in ws.round_channels takes a
/// maximum-weight independent set of her candidates on her own channel
/// graph, and slot k of ws.coalitions receives the choice of
/// ws.round_channels[k]. `fill(i, set)` writes channel i's candidate set
/// into `set`. Each seller is one whole-graph solve_mwis task (the solver
/// works on the candidate-induced subgraph, so a fractured channel costs
/// only its candidates' rows); the tasks run in parallel_for_lanes lanes on
/// per-lane scratch and each writes only its own slot, so the result is
/// bit-for-bit the serial one at any thread count.
template <typename FillFn>
void solve_coalition_round(const market::SpectrumMarket& market,
                           graph::MwisAlgorithm policy, MatchWorkspace& ws,
                           FillFn&& fill) {
  parallel_for_lanes(
      0, ws.round_channels.size(), [&](std::size_t lane, std::size_t k) {
        const ChannelId i = ws.round_channels[k];
        DynamicBitset& candidates = ws.lane_set[lane];
        fill(i, candidates);
        ws.coalitions[k] = graph::solve_mwis(market.graph(i),
                                             market.channel_prices(i),
                                             candidates, policy,
                                             ws.lane_scratch[lane]);
      });
}

}  // namespace specmatch::matching
