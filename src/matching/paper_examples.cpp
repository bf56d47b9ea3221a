#include "matching/paper_examples.hpp"

#include <utility>
#include <vector>

namespace specmatch::matching {

namespace {

market::SpectrumMarket build(
    int M, int N,
    const std::vector<std::vector<double>>& utilities_by_buyer,
    const std::vector<std::vector<std::pair<BuyerId, BuyerId>>>& edges) {
  std::vector<double> prices(static_cast<std::size_t>(M) *
                             static_cast<std::size_t>(N));
  for (int i = 0; i < M; ++i)
    for (int j = 0; j < N; ++j)
      prices[static_cast<std::size_t>(i) * static_cast<std::size_t>(N) +
             static_cast<std::size_t>(j)] =
          utilities_by_buyer[static_cast<std::size_t>(j)]
                            [static_cast<std::size_t>(i)];
  std::vector<graph::InterferenceGraph> graphs;
  graphs.reserve(static_cast<std::size_t>(M));
  for (int i = 0; i < M; ++i)
    graphs.push_back(graph::InterferenceGraph::from_edges(
        static_cast<std::size_t>(N), edges[static_cast<std::size_t>(i)]));
  return market::SpectrumMarket(M, N, std::move(prices), std::move(graphs));
}

}  // namespace

market::SpectrumMarket toy_example() {
  // Buyer utility vectors (b_a, b_b, b_c) from Fig. 3(b).
  const std::vector<std::vector<double>> utilities = {
      {7, 6, 3},  // buyer 1
      {6, 5, 4},  // buyer 2
      {9, 10, 8}, // buyer 3
      {8, 9, 7},  // buyer 4
      {1, 2, 3},  // buyer 5
  };
  // Interference graphs of Fig. 3(a), reconstructed from the Fig. 1 trace.
  const std::vector<std::vector<std::pair<BuyerId, BuyerId>>> edges = {
      {{0, 1}, {0, 3}},          // channel a
      {{0, 2}, {1, 2}, {2, 3}},  // channel b
      {{1, 4}},                  // channel c
  };
  return build(3, 5, utilities, edges);
}

market::SpectrumMarket counter_example() {
  // Buyer utility vectors (b_a, b_b, b_c) from Fig. 4.
  const std::vector<std::vector<double>> utilities = {
      {3, 4, 5},     // buyer 1
      {1, 3, 2},     // buyer 2
      {5, 6, 7},     // buyer 3
      {1, 2, 3},     // buyer 4
      {7, 9, 8},     // buyer 5
      {7, 11, 6.5},  // buyer 6
      {13, 14, 12},  // buyer 7
      {12, 13, 14},  // buyer 8
      {8, 7, 6},     // buyer 9
  };
  // Interference graphs of Fig. 5, reconstructed so that every waiting list
  // in the Fig. 4 trace and both §III-D counter-claims hold.
  const std::vector<std::vector<std::pair<BuyerId, BuyerId>>> edges = {
      // channel a
      {{5, 8}},
      // channel b
      {{4, 6}, {5, 6}, {4, 5}, {0, 1}, {1, 3}, {0, 2}},
      // channel c
      {{0, 7}, {2, 3}, {2, 4}, {1, 4}, {4, 5}, {2, 5}, {1, 3}},
  };
  return build(3, 9, utilities, edges);
}

}  // namespace specmatch::matching
