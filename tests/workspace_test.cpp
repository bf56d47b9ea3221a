// Tests for the MatchWorkspace reuse contract (matching/workspace.hpp):
// results never depend on prior workspace contents, the workspace-taking
// entry points are bit-identical to the legacy ones at every thread count,
// and steady-state Stage I/II rounds allocate zero heap memory on the
// serial path (the SPECMATCH_COUNT_ALLOCS counting allocator proves it).
// Also pins the copy-free buyer_utility_in down: membership of j itself
// never counts as interference (neighbour sets are j-exclusive).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/alloc_count.hpp"
#include "common/bitset.hpp"
#include "common/rng.hpp"
#include "graph/mwis.hpp"
#include "market/preferences.hpp"
#include "market/scenario.hpp"
#include "matching/paper_examples.hpp"
#include "matching/swap_resolution.hpp"
#include "matching/two_stage.hpp"
#include "matching/workspace.hpp"
#include "test_util.hpp"
#include "workload/generator.hpp"

namespace specmatch {
namespace {

using testutil::ScopedThreads;

market::SpectrumMarket generated_market(int sellers, int buyers,
                                        std::uint64_t seed) {
  workload::WorkloadParams params;
  params.num_sellers = sellers;
  params.num_buyers = buyers;
  Rng rng(seed);
  return workload::generate_market(params, rng);
}

/// A market shaped like perfbench's workloads (testutil::stratified_scenario).
market::SpectrumMarket stratified_market(Rng& rng, int buyers,
                                         double min_range) {
  return market::build_market(
      testutil::stratified_scenario(rng, buyers, min_range));
}

/// cold_solve's shape: N = 8000 CSR buyers, ranges in (1, 5].
market::SpectrumMarket cold_solve_market(Rng& rng) {
  return stratified_market(rng, 8000, 1.0);
}

/// spill_churn's shape: N = 2000 dense buyers, ranges in (0, 5].
market::SpectrumMarket spill_churn_market(Rng& rng) {
  return stratified_market(rng, 2000, 0.0);
}

void expect_identical(const matching::TwoStageResult& a,
                      const matching::TwoStageResult& b) {
  EXPECT_EQ(a.stage1.matching, b.stage1.matching);
  EXPECT_EQ(a.stage1.rounds, b.stage1.rounds);
  EXPECT_EQ(a.stage1.total_proposals, b.stage1.total_proposals);
  EXPECT_EQ(a.stage1.total_evictions, b.stage1.total_evictions);
  EXPECT_EQ(a.stage2.after_phase1, b.stage2.after_phase1);
  EXPECT_EQ(a.stage2.matching, b.stage2.matching);
  EXPECT_EQ(a.stage2.phase1_rounds, b.stage2.phase1_rounds);
  EXPECT_EQ(a.stage2.phase2_rounds, b.stage2.phase2_rounds);
  EXPECT_EQ(a.stage2.transfers_accepted, b.stage2.transfers_accepted);
  EXPECT_EQ(a.stage2.invitations_accepted, b.stage2.invitations_accepted);
  EXPECT_EQ(a.welfare_stage1, b.welfare_stage1);
  EXPECT_EQ(a.welfare_phase1, b.welfare_phase1);
  EXPECT_EQ(a.welfare_final, b.welfare_final);
}

// The reuse contract: one workspace fed a sequence of markets of different
// shapes (paper toys, then larger generated markets, shrinking and growing
// between runs) must reproduce the fresh-workspace and legacy-entry-point
// results at every step. Stale round state from a previous (larger) market
// is exactly what this guards against.
TEST(WorkspaceTest, ReuseAcrossDifferentScenariosMatchesFreshRuns) {
  std::vector<market::SpectrumMarket> sequence;
  sequence.push_back(matching::toy_example());           // M=3,  N=5
  sequence.push_back(generated_market(8, 60, 11));       // grow both axes
  sequence.push_back(matching::counter_example());       // shrink to M=3, N=9
  sequence.push_back(generated_market(4, 90, 12));       // tall and narrow
  sequence.push_back(generated_market(12, 30, 13));      // wide and short

  matching::MatchWorkspace shared;
  for (std::size_t s = 0; s < sequence.size(); ++s) {
    SCOPED_TRACE(testing::Message() << "scenario index " << s);
    const auto& market = sequence[s];
    const auto reused = matching::run_two_stage(market, {}, shared);

    matching::MatchWorkspace fresh;
    const auto from_fresh = matching::run_two_stage(market, {}, fresh);
    const auto legacy = matching::run_two_stage(market);

    expect_identical(reused, from_fresh);
    expect_identical(reused, legacy);
  }
}

// The swap-resolution pipeline overload shares the same workspace (one
// prepare serves all three stages) and must match the legacy pipeline —
// including back-to-back across differently shaped markets.
TEST(WorkspaceTest, SwapPipelineWithSharedWorkspaceMatchesLegacy) {
  matching::MatchWorkspace shared;
  const market::SpectrumMarket markets[] = {matching::counter_example(),
                                            generated_market(6, 48, 21)};
  for (const auto& market : markets) {
    const auto reused = matching::run_two_stage_with_swaps(market, {}, {}, shared);
    const auto legacy = matching::run_two_stage_with_swaps(market);
    EXPECT_EQ(reused.matching, legacy.matching);
    EXPECT_EQ(reused.swaps_applied, legacy.swaps_applied);
    EXPECT_EQ(reused.relocations, legacy.relocations);
    EXPECT_EQ(reused.dropped_unmatched, legacy.dropped_unmatched);
    EXPECT_EQ(reused.welfare_before, legacy.welfare_before);
    EXPECT_EQ(reused.welfare_after, legacy.welfare_after);
  }
}

// Thread-count invariance holds through the workspace overloads too: a
// workspace reused across runs at 1 and 4 lanes yields bit-identical
// results (the per-lane scratch cannot leak into outputs).
TEST(WorkspaceTest, SharedWorkspaceIsThreadCountInvariant) {
  for (std::uint64_t seed = 31; seed <= 33; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const auto market = generated_market(6, 40, seed);
    matching::TwoStageResult serial, parallel;
    {
      ScopedThreads scope(1);
      matching::MatchWorkspace ws;
      serial = matching::run_two_stage(market, {}, ws);
      serial = matching::run_two_stage(market, {}, ws);  // warm rerun
    }
    {
      ScopedThreads scope(4);
      matching::MatchWorkspace ws;
      parallel = matching::run_two_stage(market, {}, ws);
      parallel = matching::run_two_stage(market, {}, ws);
    }
    expect_identical(serial, parallel);
  }
}

// The acceptance criterion of the workspace refactor: with a warm workspace,
// steady-state rounds (round >= 2) of both stages perform zero heap
// allocations at any lane count — measured by the replaced global operator
// new, not inferred. The first run warms the grow-only capacities; the
// second run is the one held to zero. A second thread allocates throughout:
// the stages' alloc_count scope charges the solve only for its own thread
// and the pool lanes it fans out to.
TEST(WorkspaceTest, SteadyRoundsAllocateNothingWhenWorkspaceIsWarm) {
  const auto market = generated_market(8, 120, 41);
  // A contract leg: zero allocations must hold with a second lane too, even
  // on a 1-core host.
  for (const int lanes : {1, testutil::contract_lanes()}) {
    SCOPED_TRACE(lanes);
    ScopedThreads scope(lanes);
    matching::MatchWorkspace ws;

    std::atomic<bool> stop{false};
    std::atomic<std::int64_t> noise{0};
    alloc_count::set_counting(true);
    std::thread noisy([&] {
      std::vector<int> sink;
      while (!stop.load()) {
        sink = std::vector<int>(8, 1);
        ++noise;
      }
    });
    while (noise.load() == 0) std::this_thread::yield();
    const auto warmup = matching::run_two_stage(market, {}, ws);
    const auto warm = matching::run_two_stage(market, {}, ws);
    stop = true;
    noisy.join();
    alloc_count::set_counting(false);

    // Counting was on, so the fields report real measurements, not -1.
    ASSERT_GE(warmup.stage1.steady_allocs, 0);
    ASSERT_GE(warm.stage1.steady_allocs, 0);
    ASSERT_GE(warm.stage2.steady_allocs, 0);

    // Enough rounds that "steady state" is non-vacuous for Stage I.
    ASSERT_GE(warm.stage1.rounds, 2);

    EXPECT_EQ(warm.stage1.steady_allocs, 0);
    EXPECT_EQ(warm.stage2.steady_allocs, 0);
    expect_identical(warmup, warm);
  }
}

// prepare() reserves the MWIS scratch for the worst case, not for what a
// warm-up happened to touch: on the cold_solve- and spill_churn-shaped
// markets, an all-candidate solve on the channel with the most edges
// allocates nothing on any lane's scratch, fresh from prepare().
TEST(WorkspaceTest, PreparedLaneScratchSolvesWidestChannelWithoutAllocating) {
  ScopedThreads threads(2);
  Rng rng(8);
  // Both representations: the widest cold_solve channel is CSR, the widest
  // spill_churn channel dense with mean degree far above 64.
  struct Shape {
    const char* name;
    market::SpectrumMarket market;
    graph::GraphRep rep;
  };
  const Shape shapes[] = {
      {"cold_solve", cold_solve_market(rng), graph::GraphRep::kCsr},
      {"spill_churn", spill_churn_market(rng), graph::GraphRep::kDense}};
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    const market::SpectrumMarket& market = shape.market;
    matching::MatchWorkspace ws;
    ws.prepare(market);
    ChannelId widest = 0;
    for (ChannelId i = 1; i < market.num_channels(); ++i)
      if (market.graph(i).num_edges() > market.graph(widest).num_edges())
        widest = i;
    const graph::InterferenceGraph& g = market.graph(widest);
    ASSERT_EQ(g.representation(), shape.rep);
    if (shape.rep == graph::GraphRep::kDense) {
      ASSERT_GE(2 * g.num_edges(), 64 * g.num_vertices());
    }
    std::vector<double> weights(g.num_vertices());
    for (double& w : weights) w = rng.uniform(0.01, 1.0);
    DynamicBitset all(g.num_vertices());
    for (std::size_t v = 0; v < all.size(); ++v) all.set(v);

    ASSERT_EQ(ws.lane_scratch.size(), 2u);
    alloc_count::set_counting(true);
    for (graph::MwisScratch& scratch : ws.lane_scratch) {
      for (graph::MwisAlgorithm algorithm :
           {graph::MwisAlgorithm::kGwmin, graph::MwisAlgorithm::kGwmin2}) {
        alloc_count::Scope scope;
        const DynamicBitset& chosen =
            graph::solve_mwis(g, weights, all, algorithm, scratch);
        EXPECT_EQ(scope.total(), 0) << to_string(algorithm);
        EXPECT_TRUE(chosen.any());
      }
    }
    alloc_count::set_counting(false);
  }
}

// Stage II on the cold_solve-shaped market builds blocker rows, and with a
// warm workspace its steady rounds still allocate nothing at any lane count:
// Stage II sizes every row at entry, and a build or a transfer writes in
// place.
TEST(WorkspaceTest, StageIIBlockerRowsAllocateNothingOnColdSolveMarket) {
  Rng rng(8);
  const market::SpectrumMarket market = cold_solve_market(rng);
  // A contract leg (zero allocations, identical results): a second lane is
  // forced even on a 1-core host.
  for (const int lanes : {1, testutil::contract_lanes()}) {
    SCOPED_TRACE(lanes);
    ScopedThreads scope(lanes);
    matching::MatchWorkspace ws;
    alloc_count::set_counting(true);
    const auto warmup = matching::run_two_stage(market, {}, ws);
    const auto warm = matching::run_two_stage(market, {}, ws);
    alloc_count::set_counting(false);

    EXPECT_GT(warm.stage2.blocker_rows, 0);
    ASSERT_GE(warm.stage2.phase1_rounds, 2);
    EXPECT_EQ(warm.stage2.steady_allocs, 0);
    expect_identical(warmup, warm);
  }
}

// Without the knob (or the test override) the counter never advances and
// results report "not measured".
TEST(WorkspaceTest, SteadyAllocsReportNotMeasuredWhenCountingIsOff) {
  const auto market = matching::toy_example();
  const auto result = matching::run_two_stage(market);
  EXPECT_EQ(result.stage1.steady_allocs, -1);
  EXPECT_EQ(result.stage2.steady_allocs, -1);
}

// Regression for the copy-free buyer_utility_in: neighbour sets are
// j-exclusive (no self-loops), so j's own membership must not zero her
// utility — only an *other* interfering member may.
TEST(WorkspaceTest, BuyerUtilityInIgnoresOwnMembership) {
  const auto market = matching::toy_example();
  const int n = market.num_buyers();
  for (ChannelId i = 0; i < market.num_channels(); ++i) {
    for (BuyerId j = 0; j < n; ++j) {
      DynamicBitset members(static_cast<std::size_t>(n));
      members.set(static_cast<std::size_t>(j));
      EXPECT_EQ(market::buyer_utility_in(market, j, i, members),
                market.utility(i, j))
          << "channel " << i << " buyer " << j;
      // Adding any interfering neighbour zeroes the utility as before.
      for (BuyerId k = 0; k < n; ++k) {
        if (k != j && market.interferes(i, j, k)) {
          DynamicBitset with_neighbour = members;
          with_neighbour.set(static_cast<std::size_t>(k));
          EXPECT_EQ(market::buyer_utility_in(market, j, i, with_neighbour),
                    0.0)
              << "channel " << i << " buyer " << j << " neighbour " << k;
        }
      }
    }
  }
}

}  // namespace
}  // namespace specmatch
