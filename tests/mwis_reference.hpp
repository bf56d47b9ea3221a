// Test/bench-only reference for the greedy MWIS solvers: the textbook GWMIN /
// GWMIN2 loop that rescores every remaining candidate on every pick.
//
// graph::solve_mwis must return exactly this set for kGwmin and kGwmin2 on
// every graph, representation and candidate mask (asserted by
// IncrementalMwisTest and GraphRepresentationTest; timed against it by
// bench/micro_core). It is the oracle, so it shares no code with the
// production loops: only the public graph queries.
#pragma once

#include <cstddef>
#include <limits>
#include <span>

#include "common/bitset.hpp"
#include "common/check.hpp"
#include "common/ids.hpp"
#include "graph/interference_graph.hpp"
#include "graph/mwis.hpp"

namespace specmatch::graph {

/// Repeatedly picks the remaining candidate with the highest score — GWMIN:
/// w(v) / (deg_R(v) + 1); GWMIN2: w(v) / (w(v) + w(N_R(v))), the neighbour
/// weights summed in ascending order — ties to the lowest index, and removes
/// its closed neighbourhood. Candidates with weight <= 0 never enter.
/// Rejects kExact.
inline DynamicBitset solve_mwis_rescan(const InterferenceGraph& graph,
                                       std::span<const double> weights,
                                       const DynamicBitset& candidates,
                                       MwisAlgorithm algorithm) {
  SPECMATCH_CHECK(weights.size() == graph.num_vertices());
  SPECMATCH_CHECK(candidates.size() == graph.num_vertices());
  SPECMATCH_CHECK_MSG(algorithm != MwisAlgorithm::kExact,
                      "the rescan reference only exists for the greedy "
                      "algorithms");
  const auto score = [&](std::size_t v, const DynamicBitset& remaining) {
    if (algorithm == MwisAlgorithm::kGwmin) {
      const double deg = static_cast<double>(
          graph.degree_in(static_cast<BuyerId>(v), remaining));
      return weights[v] / (deg + 1.0);
    }
    double nbr_weight = 0.0;
    graph.for_each_neighbor_in(
        static_cast<BuyerId>(v), remaining,
        [&](std::size_t u) { nbr_weight += weights[u]; });
    return weights[v] / (weights[v] + nbr_weight);
  };

  DynamicBitset remaining = candidates;
  candidates.for_each_set([&](std::size_t v) {
    if (weights[v] <= 0.0) remaining.reset(v);
  });
  DynamicBitset chosen(graph.num_vertices());
  while (remaining.any()) {
    double best_score = -std::numeric_limits<double>::infinity();
    std::size_t best_v = remaining.size();
    remaining.for_each_set([&](std::size_t v) {
      const double s = score(v, remaining);
      if (s > best_score) {  // strict: ties resolve to the lowest index
        best_score = s;
        best_v = v;
      }
    });
    chosen.set(best_v);
    remaining.reset(best_v);
    graph.remove_neighbors_from(static_cast<BuyerId>(best_v), remaining);
  }
  return chosen;
}

}  // namespace specmatch::graph
