#include "graph/components.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/check.hpp"

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

  // Pass 3: per-component edge/degree summaries (degrees are cached on the
  // graph, so this is O(V); each edge has both endpoints in one component).
  comp_edges_.assign(num_comps, 0);
  comp_max_degree_.assign(num_comps, 0);
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t d = graph.degree(static_cast<BuyerId>(v));
    comp_edges_[comp_of_[v]] += d;
    comp_max_degree_[comp_of_[v]] =
        std::max(comp_max_degree_[comp_of_[v]], d);
  }
  for (auto& e : comp_edges_) e /= 2;
}

std::size_t ComponentIndex::bytes() const {
  return comp_of_.capacity() * sizeof(std::uint32_t) +
         comp_vertices_.capacity() * sizeof(BuyerId) +
         comp_offsets_.capacity() * sizeof(std::size_t) +
         comp_edges_.capacity() * sizeof(std::size_t) +
         comp_max_degree_.capacity() * sizeof(std::size_t);
}

std::size_t component_min_default() {
  static const std::size_t value = [] {
    constexpr std::size_t kDefault = 64;
    const char* env = std::getenv("SPECMATCH_COMPONENT_MIN");
    if (env == nullptr || env[0] == '\0') return kDefault;
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || parsed < 1) return kDefault;
    return static_cast<std::size_t>(parsed);
  }();
  return value;
}

void build_shards(const ComponentIndex& index, std::size_t min_vertices,
                  std::vector<std::uint32_t>& shard_offsets) {
  shard_offsets.clear();
  const std::size_t num_comps = index.num_components();
  shard_offsets.push_back(0);
  std::size_t acc = 0;
  for (std::size_t c = 0; c < num_comps; ++c) {
    acc += index.size(c);
    if (acc >= min_vertices) {
      shard_offsets.push_back(static_cast<std::uint32_t>(c + 1));
      acc = 0;
    }
  }
  if (acc > 0) {
    // Undersized remainder: fold it into the preceding shard rather than
    // paying a lane for it (or make it the only shard when nothing closed).
    if (shard_offsets.size() > 1)
      shard_offsets.back() = static_cast<std::uint32_t>(num_comps);
    else
      shard_offsets.push_back(static_cast<std::uint32_t>(num_comps));
  }
}

}  // namespace specmatch::graph
