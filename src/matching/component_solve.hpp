// Per-component coalition solving (the sharded MWIS driver).
//
// Stage I selection and Stage II decisions both reduce to "solve MWIS over a
// candidate set on one channel's graph". When the channel's graph fractures
// into connected components, the solve is sharded: each ThreadPool lane runs
// the greedy over a shard of consecutive components on that component's
// local-id subgraph (O(n_c + E_c) per component, not O(N)), writes the
// chosen global ids into the shard's disjoint slice of a flat output buffer,
// and the caller merges the slices serially in fixed shard order. Because
// greedy MWIS scores only read within-component state and component-local
// vertex order preserves the ascending global order, the merged result is
// bit-for-bit identical to the whole-graph solve at any thread count (see
// graph/components.hpp and components_test). The exact policy is excluded —
// its cross-component tie-breaking is not separable. The one caller in the
// engine is solve_coalition_round (matching/workspace.hpp), which routes
// kExact through the whole-graph path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bitset.hpp"
#include "common/check.hpp"
#include "common/ids.hpp"
#include "graph/components.hpp"
#include "graph/mwis.hpp"

namespace specmatch::matching {

/// One coalition-solve task of a round: a whole-graph solve (shard ==
/// kWholeGraph) or one shard of a fractured channel. Built serially per
/// round, solved in parallel lanes, merged serially in task order.
struct CoalitionTask {
  static constexpr std::uint32_t kWholeGraph = 0xffffffffu;

  ChannelId channel = kUnmatched;
  std::uint32_t slot = 0;   ///< index into the round's result-slot array
  std::uint32_t shard = 0;  ///< shard ordinal, or kWholeGraph
  std::size_t out_begin = 0;  ///< slice start in the flat output buffer
  std::size_t out_count = 0;  ///< chosen ids written (set by the solving lane)
};

/// Solves MWIS independently over components [comp_begin, comp_end) of
/// `index`, restricted to candidates (`is_candidate(v)` over global ids) with
/// weights `weights` (global, one per graph vertex), and writes the chosen
/// global ids to `out` (ascending within each component, components in
/// order). Returns the number written; never writes more than the shard's
/// vertex total. `local_set`/`local_weights`/`scratch` are caller scratch
/// (per lane) and must hold the largest component (grow-only, reinitialised
/// here). Allocation-free once the scratch capacities are established.
template <typename CandidateFn>
std::size_t solve_components(const graph::ComponentIndex& index,
                             std::span<const double> weights,
                             std::uint32_t comp_begin, std::uint32_t comp_end,
                             CandidateFn&& is_candidate,
                             graph::MwisAlgorithm algorithm,
                             DynamicBitset& local_set,
                             std::vector<double>& local_weights,
                             graph::MwisScratch& scratch, BuyerId* out) {
  std::size_t count = 0;
  for (std::uint32_t c = comp_begin; c < comp_end; ++c) {
    const auto verts = index.vertices(c);
    if (verts.size() == 1) {
      // Singleton component: chosen iff a candidate with positive weight
      // (exactly what every policy, greedy or exact, decides for an
      // isolated vertex).
      const BuyerId v = verts[0];
      if (is_candidate(v) && weights[static_cast<std::size_t>(v)] > 0.0)
        out[count++] = v;
      continue;
    }
    local_set.assign_zero(verts.size());
    bool any = false;
    for (std::size_t l = 0; l < verts.size(); ++l) {
      if (is_candidate(verts[l])) {
        local_set.set(l);
        any = true;
      }
    }
    if (!any) continue;
    SPECMATCH_CHECK_MSG(index.has_subgraph(c),
                        "solve_components on a component without a "
                        "materialized subgraph (dominant components must "
                        "take the whole-graph path)");
    if (local_weights.size() < verts.size()) local_weights.resize(verts.size());
    for (std::size_t l = 0; l < verts.size(); ++l)
      local_weights[l] = weights[static_cast<std::size_t>(verts[l])];
    const DynamicBitset& chosen = graph::solve_mwis(
        index.subgraph(c), {local_weights.data(), verts.size()}, local_set,
        algorithm, scratch);
    chosen.for_each_set(
        [&](std::size_t l) { out[count++] = verts[l]; });
  }
  return count;
}

}  // namespace specmatch::matching
