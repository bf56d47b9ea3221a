// Shared helpers for the specmatch test suites.
#pragma once

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/bitset.hpp"
#include "common/config.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "graph/interference_graph.hpp"
#include "market/scenario.hpp"
#include "matching/matching.hpp"
#include "workload/generator.hpp"

namespace specmatch::testutil {

/// Bitset of `size` bits with the given indices set.
inline DynamicBitset bits(std::size_t size,
                          std::initializer_list<std::size_t> indices) {
  DynamicBitset b(size);
  for (std::size_t i : indices) b.set(i);
  return b;
}

/// The graph over `num_vertices` buyers with exactly the listed edges,
/// built through InterferenceGraph::from_edges.
inline graph::InterferenceGraph make_graph(
    std::size_t num_vertices,
    std::initializer_list<std::pair<BuyerId, BuyerId>> edges) {
  return graph::InterferenceGraph::from_edges(
      num_vertices, std::span(edges.begin(), edges.size()));
}

/// Builds a Matching from per-seller member lists (one list per channel).
inline matching::Matching make_matching(
    int num_channels, int num_buyers,
    const std::vector<std::vector<BuyerId>>& members_per_seller) {
  matching::Matching m(num_channels, num_buyers);
  for (std::size_t i = 0; i < members_per_seller.size(); ++i)
    for (BuyerId j : members_per_seller[i])
      m.match(j, static_cast<SellerId>(i));
  return m;
}

/// Sets the engine thread count for the duration of a scope and restores
/// the previous value (and pool) on exit.
class ScopedThreads {
 public:
  explicit ScopedThreads(int num_threads)
      : saved_(SpecmatchConfig::global().num_threads) {
    SpecmatchConfig::global().num_threads = num_threads;
    (void)ThreadPool::global();
  }
  ~ScopedThreads() {
    SpecmatchConfig::global().num_threads = saved_;
    (void)ThreadPool::global();
  }

 private:
  int saved_;
};

/// The lane count for a contract leg (bit-identical results, zero steady
/// allocations): this host's hardware threads, and at least 2. On a 1-core
/// host the two lanes time-slice one core, which is still a real second
/// lane for a contract that must hold at any lane count, so such a leg keeps
/// forcing it. A leg that asserts concurrency or speed must not use this: it
/// skips visibly on a 1-core host instead (thread_pool_test).
inline int contract_lanes() {
  return std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
}

/// A scenario shaped like perfbench's workloads: M = 16 channels whose
/// ranges are the midpoints of 16 equal slices of (min_range, 5], in an
/// area of side 10 * sqrt(N / 500). cold_solve is N = 8000 with
/// min_range 1 (CSR), spill_churn N = 2000 with min_range 0 (dense).
inline market::Scenario stratified_scenario(Rng& rng, int buyers,
                                            double min_range) {
  workload::WorkloadParams params;
  params.num_sellers = 16;
  params.num_buyers = buyers;
  params.area_size = 10.0 * std::sqrt(buyers / 500.0);
  params.min_range = min_range;
  market::Scenario scenario = workload::generate_scenario(params, rng);
  const double slices = static_cast<double>(scenario.channel_ranges.size());
  for (std::size_t i = 0; i < scenario.channel_ranges.size(); ++i)
    scenario.channel_ranges[i] =
        min_range + (params.max_range - min_range) *
                        (static_cast<double>(i) + 0.5) / slices;
  return scenario;
}

/// Members of seller i as a sorted vector (bitsets print poorly in gtest).
inline std::vector<BuyerId> members(const matching::Matching& m, SellerId i) {
  std::vector<BuyerId> out;
  m.members_of(i).for_each_set(
      [&](std::size_t j) { out.push_back(static_cast<BuyerId>(j)); });
  return out;
}

}  // namespace specmatch::testutil
