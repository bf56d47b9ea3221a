// Per-shard coalition solving (the sharded MWIS driver).
//
// Stage I selection and Stage II decisions both reduce to "solve MWIS over a
// candidate set on one channel's graph". When the channel's graph fractures
// into connected components, the solve is sharded: each ThreadPool lane runs
// the greedy over a shard of consecutive components, on the channel graph
// itself with the candidates restricted to the shard's vertices (the solver
// works on the candidate-induced subgraph, so a shard costs its own
// candidates' rows plus a few O(N/64) word passes), writes the chosen ids
// into the shard's disjoint slice of a flat output buffer, and the caller
// merges the slices serially in fixed shard order. Because greedy MWIS
// scores only read within-component state, the merged result is bit-for-bit
// identical to the whole-graph solve at any thread count (see
// graph/components.hpp and components_test). The exact policy is excluded —
// its cross-component tie-breaking is not separable. The one caller in the
// engine is solve_coalition_round (matching/workspace.hpp), which routes
// kExact through the whole-graph path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/bitset.hpp"
#include "common/ids.hpp"
#include "graph/components.hpp"
#include "graph/interference_graph.hpp"
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

/// Solves MWIS on `graph` over the candidates (`is_candidate(v)`) among the
/// vertices of components [comp_begin, comp_end) of its component index,
/// weighted by `weights`, and writes the chosen ids to `out` (ascending
/// within each component, components in order). Returns the number
/// written; never more than the shard's vertex total. `candidates` and
/// `scratch` are per-lane scratch sized for the graph (reinitialised here);
/// allocation-free once the scratch capacities are established.
template <typename CandidateFn>
std::size_t solve_shard(const graph::InterferenceGraph& graph,
                        std::span<const double> weights,
                        std::uint32_t comp_begin, std::uint32_t comp_end,
                        CandidateFn&& is_candidate,
                        graph::MwisAlgorithm algorithm,
                        DynamicBitset& candidates, graph::MwisScratch& scratch,
                        BuyerId* out) {
  const std::span<const BuyerId> verts =
      graph.components().vertices(comp_begin, comp_end);
  candidates.assign_zero(graph.num_vertices());
  for (const BuyerId v : verts)
    if (is_candidate(v)) candidates.set(static_cast<std::size_t>(v));
  const DynamicBitset& chosen =
      graph::solve_mwis(graph, weights, candidates, algorithm, scratch);
  std::size_t count = 0;
  for (const BuyerId v : verts)
    if (chosen.test(static_cast<std::size_t>(v))) out[count++] = v;
  return count;
}

}  // namespace specmatch::matching
