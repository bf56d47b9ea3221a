// Maximum-weight independent set (MWIS) solvers.
//
// A seller's "most-preferred coalition" (Algorithm 1, line 12) is the MWIS of
// her candidate buyers on her channel's interference graph, weighted by
// offered prices. The paper adopts the linear-time greedy algorithms of
// Sakai, Togasaki & Yamazaki (Discrete Applied Mathematics 126, 2003); we
// implement GWMIN and GWMIN2 plus an exact branch-and-bound solver used for
// cross-checks and the seller-policy ablation bench. Both greedy algorithms
// run one path on either graph representation: an indexed-heap greedy on the
// subgraph induced by the viable candidates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "common/bitset.hpp"
#include "graph/interference_graph.hpp"

namespace specmatch::graph {

enum class MwisAlgorithm : std::uint8_t {
  kGwmin,   ///< greedily pick argmax w(v) / (deg_R(v) + 1)
  kGwmin2,  ///< greedily pick argmax w(v) / (w(v) + w(N_R(v)))
  kExact,   ///< branch & bound (exponential worst case; ablation only)
};

std::string_view to_string(MwisAlgorithm algorithm);

/// Statistics of one solver invocation (exact solver reports search size).
struct MwisStats {
  std::uint64_t nodes_explored = 0;
};

/// Reusable per-solve scratch for the greedy solvers. Every container is
/// reinitialised at the start of each solve (results never depend on prior
/// contents), so one scratch can serve any sequence of solves; once
/// reserve() has been called with large-enough bounds, a greedy solve
/// performs zero heap allocations. The exact solver is exempt (its
/// branch-and-bound recursion allocates per node; it is ablation-only).
///
/// The incremental greedy works on the subgraph induced by the k viable
/// candidates, renumbered to local ids 0..k-1 in ascending global order.
/// Apart from the global-indexed members (the `viable`/`chosen` bitsets and
/// the `local_of`/`member` maps, written only at candidate positions),
/// per-solve state is sized by k, not by the graph's vertex count.
struct MwisScratch {
  /// Indexed max-heap entry: a local vertex and its current score.
  struct QueueEntry {
    double score;
    std::uint32_t vertex;
  };

  DynamicBitset viable;  ///< candidates with positive weight (global ids)
  DynamicBitset chosen;  ///< the result set (referenced by the return value)
  std::vector<std::uint32_t> local_of;  ///< global -> local id (viable only)
  std::vector<std::uint8_t> member;  ///< 1 on viable (CSR walk), else 0
  std::vector<std::uint32_t> global_of;  ///< local -> global id, ascending
  std::vector<std::uint32_t> row_start;  ///< k + 1 induced-row offsets
  /// Induced rows: each local vertex's viable neighbours as ascending local
  /// ids. Left uninitialised: the worst-case capacity is reserved once, and
  /// a solve writes only the entries it walks past.
  std::unique_ptr<std::uint32_t[]> rows;
  std::size_t rows_capacity = 0;
  std::vector<double> weight;           ///< local weights
  std::vector<std::uint32_t> live_degree;  ///< surviving neighbours
  std::vector<std::uint32_t> slot;  ///< queue position; kGone once removed
  std::vector<QueueEntry> queue;    ///< indexed max-heap of survivors
  std::vector<std::uint32_t> pending;  ///< a pick's removals, then rescores
  std::vector<std::uint8_t> queued;    ///< rescore already queued this pick

  /// Pre-sizes every container for an n-vertex graph whose induced
  /// adjacency holds at most `row_entries` entries. The incremental greedy
  /// needs room for the summed degree of its viable candidates, so
  /// 2 * num_edges of the largest graph solved guarantees allocation-free
  /// solves.
  void reserve(std::size_t n, std::size_t row_entries);
};

/// Scratch-reusing solve_mwis: identical results to the allocating overload
/// below, with all working state (including the returned set, which lives in
/// `scratch.chosen` and is valid until the next solve on that scratch) taken
/// from `scratch`.
const DynamicBitset& solve_mwis(const InterferenceGraph& graph,
                                std::span<const double> weights,
                                const DynamicBitset& candidates,
                                MwisAlgorithm algorithm, MwisScratch& scratch,
                                MwisStats* stats = nullptr);

/// Returns an independent subset of `candidates` (bit j set iff vertex j may
/// be chosen) with large total weight. Ties between equal scores break toward
/// the lowest vertex index, which makes every caller deterministic.
///
/// `weights` must have one entry per graph vertex; non-candidate entries are
/// ignored. Vertices with weight <= 0 are never selected by the greedy
/// algorithms and never improve the exact objective, so they are dropped.
DynamicBitset solve_mwis(const InterferenceGraph& graph,
                         std::span<const double> weights,
                         const DynamicBitset& candidates,
                         MwisAlgorithm algorithm, MwisStats* stats = nullptr);

/// Total weight of the set bits of `members`.
double set_weight(std::span<const double> weights,
                  const DynamicBitset& members);

}  // namespace specmatch::graph
