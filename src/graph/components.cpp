#include "graph/components.hpp"

#include <algorithm>

namespace specmatch::graph {

ComponentIndex::ComponentIndex(const InterferenceGraph& graph) {
  const std::size_t n = graph.num_vertices();
  comp_of_.assign(n, 0);

  // Pass 1: label every vertex by BFS from ascending seeds, so component ids
  // ascend with their seed vertex (same discovery order as coloring.cpp's
  // connected_components). The BFS walks only the still-unlabeled
  // neighbours: on a dense row that is one word-AND per row word instead of
  // a visit per neighbour bit, on a CSR row one mask test per neighbour.
  // Once the last vertex is labelled the walk stops: the vertices still on
  // the frontier have no unlabeled neighbour left to find.
  DynamicBitset unlabeled(n);
  for (std::size_t v = 0; v < n; ++v) unlabeled.set(v);
  std::size_t left = n;
  std::vector<BuyerId> frontier;
  std::uint32_t num_comps = 0;
  // Every vertex below a seed is labelled, so the next seed is the first
  // unlabeled vertex past it.
  for (std::size_t seed = 0; left > 0; seed = unlabeled.find_next(seed)) {
    const std::uint32_t c = num_comps++;
    comp_of_[seed] = c;
    unlabeled.reset(seed);
    --left;
    frontier.clear();
    frontier.push_back(static_cast<BuyerId>(seed));
    while (!frontier.empty() && left > 0) {
      const BuyerId v = frontier.back();
      frontier.pop_back();
      graph.for_each_neighbor_in(v, unlabeled, [&](std::size_t u) {
        comp_of_[u] = c;
        unlabeled.reset(u);
        --left;
        frontier.push_back(static_cast<BuyerId>(u));
      });
    }
  }

  // Pass 2: counting sort vertices into per-component slices. Scanning v
  // ascending fills each slice ascending.
  comp_offsets_.assign(num_comps + 1, 0);
  for (std::size_t v = 0; v < n; ++v) ++comp_offsets_[comp_of_[v] + 1];
  for (std::size_t c = 0; c < num_comps; ++c) {
    largest_ = std::max(largest_, comp_offsets_[c + 1]);
    comp_offsets_[c + 1] += comp_offsets_[c];
  }
  comp_vertices_.resize(n);
  std::vector<std::size_t> fill(comp_offsets_.begin(),
                                comp_offsets_.end() - (num_comps ? 1 : 0));
  for (std::size_t v = 0; v < n; ++v)
    comp_vertices_[fill[comp_of_[v]]++] = static_cast<BuyerId>(v);
}

std::size_t ComponentIndex::bytes() const {
  return comp_of_.capacity() * sizeof(std::uint32_t) +
         comp_vertices_.capacity() * sizeof(BuyerId) +
         comp_offsets_.capacity() * sizeof(std::size_t);
}

}  // namespace specmatch::graph
