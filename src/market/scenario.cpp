#include "market/scenario.hpp"

#include <cmath>
#include <numeric>
#include <utility>

#include "common/check.hpp"
#include "common/thread_pool.hpp"

namespace specmatch::market {

namespace {

/// Calls fn(i) for every channel i in [0, num_channels) of a market over
/// `num_buyers` buyers: one channel per engine lane when the market's graphs
/// are CSR, in order on this thread when they are dense. Dense builds stay
/// on one thread because building dense rows on pool workers once left
/// 5-6 MB resident in each worker's malloc arena after the market was freed
/// (spill_churn's peak RSS rose 30%). That was with one allocation per row;
/// a dense graph is now one row block, but per-lane dense builds have not
/// been measured again (ROADMAP.md, "Build dense markets one channel per
/// lane"). `fn` must write only channel i's slot, so results do not depend
/// on the lane count.
template <typename Fn>
void for_each_channel(int num_channels, std::size_t num_buyers, Fn&& fn) {
  const auto m = static_cast<std::size_t>(num_channels);
  if (num_buyers > graph::InterferenceGraph::dense_max()) {
    parallel_for(0, m, fn);
  } else {
    for (std::size_t i = 0; i < m; ++i) fn(i);
  }
}

}  // namespace

int Scenario::num_channels() const {
  return std::accumulate(seller_channel_counts.begin(),
                         seller_channel_counts.end(), 0);
}

int Scenario::num_virtual_buyers() const {
  return std::accumulate(buyer_demands.begin(), buyer_demands.end(), 0);
}

std::vector<int> Scenario::virtual_buyer_parents() const {
  std::vector<int> parents;
  parents.reserve(static_cast<std::size_t>(num_virtual_buyers()));
  for (std::size_t p = 0; p < buyer_demands.size(); ++p)
    for (int d = 0; d < buyer_demands[p]; ++d)
      parents.push_back(static_cast<int>(p));
  return parents;
}

std::vector<int> Scenario::virtual_seller_parents() const {
  std::vector<int> parents;
  parents.reserve(static_cast<std::size_t>(num_channels()));
  for (std::size_t p = 0; p < seller_channel_counts.size(); ++p)
    for (int c = 0; c < seller_channel_counts[p]; ++c)
      parents.push_back(static_cast<int>(p));
  return parents;
}

void Scenario::validate() const {
  SPECMATCH_CHECK_MSG(!seller_channel_counts.empty(), "no sellers");
  SPECMATCH_CHECK_MSG(!buyer_demands.empty(), "no buyers");
  for (int m : seller_channel_counts)
    SPECMATCH_CHECK_MSG(m >= 1, "seller must offer at least one channel");
  for (int n : buyer_demands)
    SPECMATCH_CHECK_MSG(n >= 1, "buyer must demand at least one channel");
  SPECMATCH_CHECK_MSG(buyer_locations.size() == buyer_demands.size(),
                      "one location per parent buyer");
  const auto M = static_cast<std::size_t>(num_channels());
  const auto N = static_cast<std::size_t>(num_virtual_buyers());
  SPECMATCH_CHECK_MSG(channel_ranges.size() == M,
                      "one transmission range per virtual channel");
  SPECMATCH_CHECK_MSG(utilities.size() == M * N,
                      "utility matrix must be M x N = " << M * N
                                                        << " entries, got "
                                                        << utilities.size());
  for (double r : channel_ranges)
    SPECMATCH_CHECK_MSG(r > 0.0 && std::isfinite(r),
                        "transmission range must be positive and finite");
  // Non-finite coordinates, or a span past the largest double, are
  // rejected here rather than deep inside the grid build.
  (void)graph::bounding_box(buyer_locations);
  if (!channel_reserves.empty()) {
    SPECMATCH_CHECK_MSG(channel_reserves.size() == M,
                        "one reserve price per virtual channel");
    for (double r : channel_reserves)
      SPECMATCH_CHECK_MSG(r >= 0.0, "reserve prices must be non-negative");
  }
}

SpectrumMarket build_market(const Scenario& scenario) {
  scenario.validate();
  const int M = scenario.num_channels();
  const int N = scenario.num_virtual_buyers();
  const auto buyer_parents = scenario.virtual_buyer_parents();

  // Every dummy sits at its parent's location.
  std::vector<graph::Point> positions;
  positions.reserve(static_cast<std::size_t>(N));
  for (int j = 0; j < N; ++j)
    positions.push_back(
        scenario.buyer_locations[static_cast<std::size_t>(
            buyer_parents[static_cast<std::size_t>(j)])]);

  // Dummies of the same parent form contiguous runs of virtual_buyer_parents
  // (it emits each parent's dummies back-to-back).
  std::vector<std::pair<int, int>> parent_runs;  // [start, end) per parent
  for (int start = 0; start < N;) {
    int end = start + 1;
    while (end < N && buyer_parents[static_cast<std::size_t>(end)] ==
                          buyer_parents[static_cast<std::size_t>(start)])
      ++end;
    if (end - start > 1) parent_runs.emplace_back(start, end);
    start = end;
  }

  std::vector<graph::InterferenceGraph> graphs(static_cast<std::size_t>(M));
  for_each_channel(M, static_cast<std::size_t>(N), [&](std::size_t i) {
    graphs[i] = graph::geometric(positions, scenario.channel_ranges[i]);
    // Dummies of the same parent must never share a channel (§II-A). They
    // sit at distance zero, so the geometric pass links them on every
    // channel.
    for (const auto& [start, end] : parent_runs)
      for (int a = start; a < end; ++a)
        for (int b = a + 1; b < end; ++b)
          SPECMATCH_CHECK_MSG(graphs[i].has_edge(a, b),
                              "dummies " << a << " and " << b
                                         << " do not interfere on channel "
                                         << i);
  });

  return SpectrumMarket(M, N, scenario.utilities, std::move(graphs),
                        buyer_parents, scenario.virtual_seller_parents(),
                        scenario.channel_reserves);
}

}  // namespace specmatch::market
