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
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "graph/mwis.hpp"
#include "market/market.hpp"
#include "matching/component_solve.hpp"
#include "matching/matching.hpp"

namespace specmatch::matching {

struct MatchWorkspace {
  /// Sizes every container for `market` and rebuilds the market-derived
  /// tables (the CSR preference orders and the per-channel component shard
  /// plans). Grow-only for capacities: repeated runs over same-shaped (or
  /// smaller) markets never allocate here beyond the first call. Called by
  /// every workspace-taking run_* entry point.
  ///
  /// `component_min` controls connected-component sharding of the coalition
  /// solves: 0 resolves SPECMATCH_COMPONENT_MIN (default 64), >= 1 is an
  /// explicit minimum shard vertex count, < 0 disables sharding (every
  /// channel solves whole-graph — the unsharded reference path).
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

  // --- component sharding (read only by solve_coalition_round) ------------
  /// Per-channel shard plan: component-id offsets from graph::build_shards.
  /// sharded() false (0 or 1 shards) means the channel solves whole-graph —
  /// single-component channels, sharding disabled, or a kExact run.
  struct ShardPlan {
    std::vector<std::uint32_t> shard_comps;  ///< num_shards + 1 offsets
    std::size_t num_shards() const {
      return shard_comps.empty() ? 0 : shard_comps.size() - 1;
    }
    bool sharded() const { return num_shards() >= 2; }
  };
  std::vector<ShardPlan> shard_plans;    ///< per channel
  std::vector<CoalitionTask> coal_tasks; ///< the round's solve tasks
  std::vector<BuyerId> coal_out;         ///< flat chosen-id slices per task

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
/// ws.round_channels[k]. The stage supplies the candidates twice over:
/// `fill(i, set)` writes channel i's candidate set into `set` (whole-graph
/// solves), and `is_candidate(i, v)` answers per vertex (sharded channels).
///
/// The driver owns the sharding decision. A fractured channel is solved as
/// one task per component shard (solve_shard: the channel graph, with the
/// shard's candidates set in the lane's N-bit set), each writing a disjoint
/// slice of ws.coal_out that is merged serially in fixed task order; every
/// other channel, and every channel under kExact (its tie-breaking is not
/// component-local), is one whole-graph task. Tasks run in
/// parallel_for_lanes lanes on per-lane scratch, so the result is
/// bit-for-bit the serial whole-graph one at any thread count (see
/// matching/component_solve.hpp).
template <typename FillFn, typename CandidateFn>
void solve_coalition_round(const market::SpectrumMarket& market,
                           graph::MwisAlgorithm policy, MatchWorkspace& ws,
                           FillFn&& fill, CandidateFn&& is_candidate) {
  const bool shard_ok = policy != graph::MwisAlgorithm::kExact;
  ws.coal_tasks.clear();
  std::size_t out_cursor = 0;
  for (std::size_t k = 0; k < ws.round_channels.size(); ++k) {
    const ChannelId i = ws.round_channels[k];
    const MatchWorkspace::ShardPlan& plan =
        ws.shard_plans[static_cast<std::size_t>(i)];
    const auto slot = static_cast<std::uint32_t>(k);
    if (!shard_ok || !plan.sharded()) {
      ws.coal_tasks.push_back({i, slot, CoalitionTask::kWholeGraph, 0, 0});
      continue;
    }
    ws.coalitions[k].assign_zero(
        static_cast<std::size_t>(market.num_buyers()));
    const graph::ComponentIndex& index = market.graph(i).components();
    for (std::uint32_t s = 0; s < plan.num_shards(); ++s) {
      ws.coal_tasks.push_back({i, slot, s, out_cursor, 0});
      out_cursor += index.offset(plan.shard_comps[s + 1]) -
                    index.offset(plan.shard_comps[s]);
    }
  }
  parallel_for_lanes(
      0, ws.coal_tasks.size(), [&](std::size_t lane, std::size_t t) {
        CoalitionTask& task = ws.coal_tasks[t];
        const ChannelId i = task.channel;
        if (task.shard == CoalitionTask::kWholeGraph) {
          DynamicBitset& candidates = ws.lane_set[lane];
          fill(i, candidates);
          ws.coalitions[task.slot] = graph::solve_mwis(
              market.graph(i), market.channel_prices(i), candidates, policy,
              ws.lane_scratch[lane]);
          return;
        }
        const MatchWorkspace::ShardPlan& plan =
            ws.shard_plans[static_cast<std::size_t>(i)];
        task.out_count = solve_shard(
            market.graph(i), market.channel_prices(i),
            plan.shard_comps[task.shard], plan.shard_comps[task.shard + 1],
            [&](BuyerId v) { return is_candidate(i, v); }, policy,
            ws.lane_set[lane], ws.lane_scratch[lane],
            ws.coal_out.data() + task.out_begin);
      });
  // Merge the shard slices into their slots (disjoint, so order cannot
  // change the set; fixed task order keeps it obviously deterministic).
  for (const CoalitionTask& task : ws.coal_tasks) {
    if (task.shard == CoalitionTask::kWholeGraph) continue;
    DynamicBitset& coalition = ws.coalitions[task.slot];
    for (std::size_t c = 0; c < task.out_count; ++c)
      coalition.set(static_cast<std::size_t>(ws.coal_out[task.out_begin + c]));
    if (metrics::enabled()) metrics::count("component.shard_solves");
  }
}

}  // namespace specmatch::matching
