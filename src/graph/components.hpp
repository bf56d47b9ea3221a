// Connected-component index of an interference graph.
//
// Geometric interference graphs at production radii fracture into many
// connected components, and components cannot interact: no edge crosses a
// component boundary. A ComponentIndex labels the components once per graph
// and stores them compactly — component id per vertex and CSR-style vertex
// lists per component. Two paths read it: the serve registry's mark_dirty
// (a released seat can only newly admit the leaver's component on that
// channel) and the restricted Stage II departure cascade (the same rule
// inside a warm re-solve). It holds no adjacency of its own.
//
// InterferenceGraph::components() builds a graph's index on first use and
// caches it for the graph's lifetime. Graphs are immutable once
// constructed, so a cached index never goes stale; a copy of a graph starts
// without one.
//
// Components are numbered by ascending seed vertex (the BFS of
// coloring.cpp's connected_components discovers them in exactly this order)
// and each component's vertex list ascends.
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
  /// Labels the components of `graph` and builds the per-component vertex
  /// lists. O(V + E) for CSR graphs, O(V²/64) words for dense ones; the
  /// labelling stops as soon as every vertex has its label.
  explicit ComponentIndex(const InterferenceGraph& graph);

  std::size_t num_components() const { return comp_offsets_.size() - 1; }

  /// Component id of vertex v (ids ascend with the component's seed vertex).
  std::uint32_t component_of(BuyerId v) const {
    return comp_of_[static_cast<std::size_t>(v)];
  }

  /// Vertices of component c, ascending global ids.
  std::span<const BuyerId> vertices(std::size_t c) const {
    return {comp_vertices_.data() + comp_offsets_[c], size(c)};
  }

  std::size_t size(std::size_t c) const {
    return comp_offsets_[c + 1] - comp_offsets_[c];
  }

  /// Vertex count of the largest component.
  std::size_t largest_component() const { return largest_; }

  /// Heap bytes of the index (labels and lists) — the serve registry
  /// budgets resident markets with it.
  std::size_t bytes() const;

 private:
  std::vector<std::uint32_t> comp_of_;     ///< per-vertex component id
  std::vector<BuyerId> comp_vertices_;     ///< concatenated vertex lists
  std::vector<std::size_t> comp_offsets_;  ///< num_components + 1 starts
  std::size_t largest_ = 0;
};

}  // namespace specmatch::graph
