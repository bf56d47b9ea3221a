// Connected-component index of an interference graph.
//
// Geometric interference graphs at production radii fracture into many
// connected components, and components cannot interact: no edge crosses a
// component boundary, so Stage I selection, Stage II decisions, and MWIS on
// one component are provably independent of every other. A ComponentIndex
// labels the components once per graph and stores them compactly — component
// id per vertex, CSR-style vertex lists per component, per-component
// edge/degree summaries. It holds no adjacency of its own: a shard of
// components is solved on the channel graph itself, with the candidate set
// restricted to the shard's vertices (the MWIS solver already works on the
// candidate-induced subgraph).
//
// Determinism contract: components are numbered by ascending seed vertex
// (the BFS of coloring.cpp's connected_components discovers them in exactly
// this order) and each component's vertex list ascends. Greedy MWIS over a
// candidate set that is a union of whole components' candidates picks, in
// each component, exactly what the whole-graph greedy picks there:
// GWMIN/GWMIN2 scores only read within-component state, the global pick
// sequence restricted to a component is the component's own pick sequence,
// and GWMIN2's neighbour-weight sums run over the same operands in the same
// (ascending) order. The exact solver is exempt — its tie-breaking is not
// component-local — and callers must not shard kExact solves.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.hpp"
#include "graph/interference_graph.hpp"

namespace specmatch::graph {

class ComponentIndex {
 public:
  /// Labels the components of `graph` and builds the per-component
  /// summaries. O(V + E) for CSR graphs, O(V²/64) words for dense ones; the
  /// labelling stops as soon as every vertex has its label.
  explicit ComponentIndex(const InterferenceGraph& graph);

  std::size_t num_components() const { return comp_offsets_.size() - 1; }

  /// Component id of vertex v (ids ascend with the component's seed vertex).
  std::uint32_t component_of(BuyerId v) const {
    return comp_of_[static_cast<std::size_t>(v)];
  }

  /// Vertices of component c, ascending global ids.
  std::span<const BuyerId> vertices(std::size_t c) const {
    return vertices(c, c + 1);
  }

  /// Vertices of components [begin, end): each component's list in turn.
  std::span<const BuyerId> vertices(std::size_t begin, std::size_t end) const {
    return {comp_vertices_.data() + comp_offsets_[begin],
            comp_offsets_[end] - comp_offsets_[begin]};
  }

  /// Start of component c's slice in the concatenated vertex array;
  /// offset(num_components()) is the vertex count. Consecutive components
  /// occupy consecutive slices, which is what lets a shard of components
  /// [b, e) own one contiguous output slice.
  std::size_t offset(std::size_t c) const { return comp_offsets_[c]; }

  std::size_t size(std::size_t c) const {
    return comp_offsets_[c + 1] - comp_offsets_[c];
  }

  /// Edge count of component c (every edge is within one component).
  std::size_t edges(std::size_t c) const { return comp_edges_[c]; }

  /// Largest vertex degree inside component c.
  std::size_t max_degree(std::size_t c) const { return comp_max_degree_[c]; }

  /// Vertex count of the largest component.
  std::size_t largest_component() const { return largest_; }

  /// Heap bytes of the index (labels, lists, summaries) — the serve
  /// registry budgets resident markets with it.
  std::size_t bytes() const;

 private:
  std::vector<std::uint32_t> comp_of_;       ///< per-vertex component id
  std::vector<BuyerId> comp_vertices_;       ///< concatenated vertex lists
  std::vector<std::size_t> comp_offsets_;    ///< num_components + 1 starts
  std::vector<std::size_t> comp_edges_;      ///< per-component edge count
  std::vector<std::size_t> comp_max_degree_; ///< per-component max degree
  std::size_t largest_ = 0;
};

/// Resolved SPECMATCH_COMPONENT_MIN (default 64): the minimum vertex total a
/// shard of consecutive components must reach before it closes, so tiny
/// components batch into one solver lane instead of paying per-lane
/// overhead. Read once per process.
std::size_t component_min_default();

/// Partitions the components of `index` into shards of consecutive
/// components whose vertex totals reach `min_vertices` (the final shard may
/// fall short and is merged into its predecessor). Appends num_shards + 1
/// component-id offsets to `shard_offsets` (cleared first): shard s covers
/// components [shard_offsets[s], shard_offsets[s+1]). With one component —
/// or a min so large only one shard forms — the result is a single shard,
/// which callers treat as "solve whole-graph, skip the index".
void build_shards(const ComponentIndex& index, std::size_t min_vertices,
                  std::vector<std::uint32_t>& shard_offsets);

}  // namespace specmatch::graph
