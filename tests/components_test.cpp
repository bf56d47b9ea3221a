// Component index structure, shard batching, and the headline equivalence
// property of the sharded coalition solver: two-stage results are bit-for-bit
// identical whether channels are solved whole-graph or per component shard,
// at any thread count and any shard minimum (the determinism contract of
// graph/components.hpp). Also pins the restricted Stage II mode the serve
// warm path runs on.
#include "graph/components.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "graph/coloring.hpp"
#include "matching/component_solve.hpp"
#include "matching/stability.hpp"
#include "matching/transfer_invitation.hpp"
#include "matching/two_stage.hpp"
#include "test_util.hpp"
#include "workload/generator.hpp"

namespace specmatch::graph {
namespace {

market::SpectrumMarket geometric_market(std::uint64_t seed, int sellers,
                                        int buyers, double area,
                                        double max_range) {
  Rng rng(seed);
  workload::WorkloadParams params;
  params.num_sellers = sellers;
  params.num_buyers = buyers;
  params.area_size = area;
  params.max_range = max_range;
  return workload::generate_market(params, rng);
}

using testutil::ScopedThreads;

/// The perfbench market shapes at N = 2000, M = 16: spill_churn's (ranges
/// stratified over (0, 5], so most channels are one component) and a
/// sub-percolation one like warm_serve's (ranges over (0, 0.5], below the
/// percolation radius at this density, so every channel fractures).
market::SpectrumMarket perfbench_shaped_market(bool sub_percolation) {
  Rng rng(sub_percolation ? 12 : 11);
  market::Scenario scenario = testutil::stratified_scenario(rng, 2000, 0.0);
  if (sub_percolation)
    for (double& range : scenario.channel_ranges) range *= 0.1;
  return market::build_market(scenario);
}

// ---------------------------------------------------------------------------
// ComponentIndex structure
// ---------------------------------------------------------------------------

TEST(ComponentIndexTest, LabelsAKnownGraph) {
  // Components: {0,1,2} (path), {3} (isolated), {4,5} (edge). Numbered by
  // ascending seed vertex.
  std::vector<std::pair<BuyerId, BuyerId>> edges = {{0, 1}, {1, 2}, {4, 5}};
  const auto graph = InterferenceGraph::from_edges(6, edges);
  const ComponentIndex index(graph);

  ASSERT_EQ(index.num_components(), 3u);
  EXPECT_EQ(index.component_of(0), 0u);
  EXPECT_EQ(index.component_of(1), 0u);
  EXPECT_EQ(index.component_of(2), 0u);
  EXPECT_EQ(index.component_of(3), 1u);
  EXPECT_EQ(index.component_of(4), 2u);
  EXPECT_EQ(index.component_of(5), 2u);

  EXPECT_EQ(index.size(0), 3u);
  EXPECT_EQ(index.size(1), 1u);
  EXPECT_EQ(index.size(2), 2u);
  EXPECT_EQ(index.edges(0), 2u);
  EXPECT_EQ(index.edges(1), 0u);
  EXPECT_EQ(index.edges(2), 1u);
  EXPECT_EQ(index.max_degree(0), 2u);
  EXPECT_EQ(index.max_degree(2), 1u);
  EXPECT_EQ(index.largest_component(), 3u);

  const auto c0 = index.vertices(0);
  ASSERT_EQ(c0.size(), 3u);
  EXPECT_EQ(c0[0], 0);
  EXPECT_EQ(c0[1], 1);
  EXPECT_EQ(c0[2], 2);
  // A component range is the components' lists back to back.
  const auto c12 = index.vertices(1, 3);
  EXPECT_EQ(std::vector<BuyerId>(c12.begin(), c12.end()),
            (std::vector<BuyerId>{3, 4, 5}));
  EXPECT_GT(index.bytes(), 0u);
}

TEST(ComponentIndexTest, PartitionInvariantsOnRandomGeometricGraphs) {
  for (std::uint64_t seed : {3u, 17u, 99u}) {
    const auto market = geometric_market(seed, 4, 80, 40.0, 2.5);
    for (ChannelId i = 0; i < market.num_channels(); ++i) {
      const InterferenceGraph& graph = market.graph(i);
      const ComponentIndex index(graph);
      const std::size_t n = graph.num_vertices();

      std::size_t total_vertices = 0;
      std::size_t total_edges = 0;
      std::size_t largest = 0;
      for (std::size_t c = 0; c < index.num_components(); ++c) {
        const auto verts = index.vertices(c);
        ASSERT_EQ(index.offset(c + 1) - index.offset(c), verts.size());
        total_vertices += verts.size();
        total_edges += index.edges(c);
        largest = std::max(largest, verts.size());
        for (std::size_t l = 0; l < verts.size(); ++l) {
          EXPECT_EQ(index.component_of(verts[l]), c);
          if (l > 0) {
            EXPECT_LT(verts[l - 1], verts[l]) << "not ascending";
          }
        }
      }
      EXPECT_EQ(total_vertices, n);
      EXPECT_EQ(total_edges, graph.num_edges());
      EXPECT_EQ(index.largest_component(), largest);

      // No edge crosses a component boundary.
      for (BuyerId v = 0; v < static_cast<BuyerId>(n); ++v)
        graph.for_each_neighbor(v, [&](BuyerId u) {
          EXPECT_EQ(index.component_of(v), index.component_of(u));
        });
    }
  }
}

TEST(ComponentIndexTest, DenseAndCsrIndicesAreIdentical) {
  // The masked BFS labels through one word-AND per dense row word and one
  // mask test per CSR neighbour; both must produce the same index.
  for (std::uint64_t seed : {3u, 17u, 99u}) {
    const auto market = geometric_market(seed, 4, 80, 40.0, 2.5);
    for (ChannelId i = 0; i < market.num_channels(); ++i) {
      const InterferenceGraph dense =
          with_representation(market.graph(i), GraphRep::kDense);
      const InterferenceGraph csr =
          with_representation(market.graph(i), GraphRep::kCsr);
      const ComponentIndex a(dense);
      const ComponentIndex b(csr);
      ASSERT_EQ(a.num_components(), b.num_components());
      EXPECT_EQ(a.largest_component(), b.largest_component());
      for (BuyerId v = 0; v < static_cast<BuyerId>(dense.num_vertices());
           ++v) {
        EXPECT_EQ(a.component_of(v), b.component_of(v)) << "vertex " << v;
      }
      for (std::size_t c = 0; c <= a.num_components(); ++c)
        EXPECT_EQ(a.offset(c), b.offset(c)) << "component " << c;
      for (std::size_t c = 0; c < a.num_components(); ++c) {
        const auto va = a.vertices(c);
        const auto vb = b.vertices(c);
        EXPECT_TRUE(std::equal(va.begin(), va.end(), vb.begin(), vb.end()))
            << "component " << c;
        EXPECT_EQ(a.edges(c), b.edges(c)) << "component " << c;
        EXPECT_EQ(a.max_degree(c), b.max_degree(c)) << "component " << c;
      }
    }
  }
}

/// Expects `index` to hold exactly coloring.cpp's connected_components of
/// `graph`: the same components in the same order, the same vertex lists,
/// offsets and per-vertex labels.
void expect_matches_connected_components(const InterferenceGraph& graph,
                                         const ComponentIndex& index) {
  const std::vector<DynamicBitset> want = connected_components(graph);
  ASSERT_EQ(index.num_components(), want.size());
  std::size_t offset = 0;
  for (std::size_t c = 0; c < want.size(); ++c) {
    ASSERT_EQ(index.offset(c), offset) << "component " << c;
    const auto verts = index.vertices(c);
    std::vector<std::size_t> got(verts.begin(), verts.end());
    ASSERT_EQ(got, want[c].to_indices()) << "component " << c;
    for (const std::size_t v : got)
      ASSERT_EQ(index.component_of(static_cast<BuyerId>(v)), c);
    offset += got.size();
  }
  EXPECT_EQ(index.offset(want.size()), graph.num_vertices());
}

TEST(ComponentIndexTest, EarlyExitLabellingMatchesConnectedComponents) {
  // The labelling stops once every vertex has its label, usually with
  // vertices still on the frontier; the index must not notice.
  std::vector<InterferenceGraph> graphs;
  graphs.emplace_back(0);
  graphs.emplace_back(5);  // edgeless
  std::vector<std::pair<BuyerId, BuyerId>> complete;
  for (BuyerId a = 0; a < 40; ++a)
    for (BuyerId b = a + 1; b < 40; ++b) complete.emplace_back(a, b);
  graphs.push_back(InterferenceGraph::from_edges(40, complete));
  for (const bool sub_percolation : {false, true}) {
    const auto market = perfbench_shaped_market(sub_percolation);
    for (ChannelId i = 0; i < market.num_channels(); i += 3)
      graphs.push_back(market.graph(i));
  }
  for (std::size_t k = 0; k < graphs.size(); ++k) {
    for (const GraphRep rep : {GraphRep::kDense, GraphRep::kCsr}) {
      SCOPED_TRACE(testing::Message()
                   << "graph " << k << (rep == GraphRep::kDense ? " dense"
                                                                : " csr"));
      const InterferenceGraph graph = with_representation(graphs[k], rep);
      expect_matches_connected_components(graph, ComponentIndex(graph));
    }
  }
}

TEST(ComponentIndexTest, BuildShardsBatchesToMinimum) {
  // 5 singletons + one pair: min 3 -> shards of >= 3 vertices except that
  // the undersized remainder folds into the last shard.
  std::vector<std::pair<BuyerId, BuyerId>> edges = {{5, 6}};
  const auto graph = InterferenceGraph::from_edges(7, edges);
  const ComponentIndex index(graph);
  ASSERT_EQ(index.num_components(), 6u);

  std::vector<std::uint32_t> shards;
  build_shards(index, 3, shards);
  ASSERT_GE(shards.size(), 2u);
  EXPECT_EQ(shards.front(), 0u);
  EXPECT_EQ(shards.back(), index.num_components());
  for (std::size_t s = 0; s + 1 < shards.size(); ++s) {
    EXPECT_LT(shards[s], shards[s + 1]);
    const std::size_t shard_vertices =
        index.offset(shards[s + 1]) - index.offset(shards[s]);
    EXPECT_GE(shard_vertices, 3u) << "undersized shard " << s;
  }

  // A minimum larger than the graph collapses to one shard (the caller's
  // cue to solve whole-graph).
  build_shards(index, 100, shards);
  EXPECT_EQ(shards.size(), 2u);

  // min 1: every component its own shard.
  build_shards(index, 1, shards);
  EXPECT_EQ(shards.size(), index.num_components() + 1);
}

// ---------------------------------------------------------------------------
// Shard solves on the channel graph: every shard of build_shards solved by
// solve_shard in parallel lanes, merged, equals the whole-graph solve_mwis
// set, on both perfbench shapes, both representations, both greedy policies
// and component minimums {1, 64, N}.
// ---------------------------------------------------------------------------

TEST(ShardSolveTest, ShardSolvesEqualTheWholeGraphSet) {
  ScopedThreads scope(testutil::contract_lanes());
  const std::size_t lanes = ThreadPool::global().num_threads();
  std::vector<DynamicBitset> lane_set(lanes);
  std::vector<MwisScratch> lane_scratch(lanes);
  std::vector<std::uint32_t> shards;
  for (const bool sub_percolation : {false, true}) {
    const auto base = perfbench_shaped_market(sub_percolation);
    const std::size_t n = static_cast<std::size_t>(base.num_buyers());
    Rng rng(sub_percolation ? 5 : 4);
    DynamicBitset candidates(n);
    for (std::size_t v = 0; v < n; ++v)
      if (rng.bernoulli(0.7)) candidates.set(v);
    std::vector<BuyerId> out(n);
    // The shapes hold: the widest spill_churn channel is one component, and
    // every sub-percolation channel fractures into many shards.
    const ComponentIndex& widest =
        base.graph(base.num_channels() - 1).components();
    if (!sub_percolation) {
      ASSERT_EQ(widest.num_components(), 1u);
    }
    if (sub_percolation) {
      build_shards(widest, 64, shards);
      ASSERT_GT(shards.size(), 10u);
    }
    for (const GraphRep rep : {GraphRep::kDense, GraphRep::kCsr}) {
      const auto market = market::with_graph_representation(base, rep);
      for (ChannelId i = 0; i < market.num_channels(); ++i) {
        const InterferenceGraph& graph = market.graph(i);
        const auto weights = market.channel_prices(i);
        for (const auto policy :
             {MwisAlgorithm::kGwmin, MwisAlgorithm::kGwmin2}) {
          const DynamicBitset want =
              solve_mwis(graph, weights, candidates, policy);
          for (const std::size_t min : {std::size_t{1}, std::size_t{64}, n}) {
            SCOPED_TRACE(testing::Message()
                         << (sub_percolation ? "sub-percolation" : "spill")
                         << (rep == GraphRep::kDense ? " dense" : " csr")
                         << " channel " << i << " " << to_string(policy)
                         << " min " << min);
            build_shards(graph.components(), min, shards);
            const ComponentIndex& index = graph.components();
            std::vector<std::size_t> count(shards.size() - 1);
            parallel_for_lanes(
                0, count.size(), [&](std::size_t lane, std::size_t s) {
                  count[s] = matching::solve_shard(
                      graph, weights, shards[s], shards[s + 1],
                      [&](BuyerId v) {
                        return candidates.test(static_cast<std::size_t>(v));
                      },
                      policy, lane_set[lane], lane_scratch[lane],
                      out.data() + index.offset(shards[s]));
                });
            DynamicBitset merged(n);
            for (std::size_t s = 0; s < count.size(); ++s)
              for (std::size_t k = 0; k < count[s]; ++k)
                merged.set(static_cast<std::size_t>(
                    out[index.offset(shards[s]) + k]));
            ASSERT_EQ(merged, want);
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Sharded vs whole-graph equivalence (the tentpole property): identical
// results across thread counts {1, 4} x component_min {-1 (off), 1, 7} x
// greedy policies, on fractured, single-component, and edgeless markets.
// ---------------------------------------------------------------------------

class ShardEquivalenceTest
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, int, int, double, double>> {};

TEST_P(ShardEquivalenceTest, TwoStageBitForBitAcrossShardingAndThreads) {
  const auto [seed, M, N, area, range] = GetParam();
  const auto market = geometric_market(seed, M, N, area, range);
  for (auto policy : {MwisAlgorithm::kGwmin, MwisAlgorithm::kGwmin2}) {
    matching::TwoStageConfig reference_config;
    reference_config.coalition_policy = policy;
    reference_config.component_min = -1;  // sharding off: whole-graph path
    const auto reference = run_two_stage(market, reference_config);
    for (int component_min : {1, 7}) {
      for (int threads : {1, 4}) {
        ScopedThreads scope(threads);
        matching::TwoStageConfig config;
        config.coalition_policy = policy;
        config.component_min = component_min;
        const auto sharded = run_two_stage(market, config);
        EXPECT_EQ(sharded.final_matching(), reference.final_matching())
            << "seed " << seed << " min " << component_min << " threads "
            << threads;
        EXPECT_EQ(sharded.stage1.matching, reference.stage1.matching);
        EXPECT_EQ(sharded.stage1.rounds, reference.stage1.rounds);
        EXPECT_EQ(sharded.stage1.total_evictions,
                  reference.stage1.total_evictions);
        EXPECT_EQ(sharded.stage2.transfers_accepted,
                  reference.stage2.transfers_accepted);
        EXPECT_EQ(sharded.welfare_stage1, reference.welfare_stage1);
        EXPECT_EQ(sharded.welfare_phase1, reference.welfare_phase1);
        EXPECT_EQ(sharded.welfare_final, reference.welfare_final);
      }
    }
  }
}

/// An interference-free matching that leaves Stage II plenty to do: each
/// buyer in turn takes her *least* preferred channel that still admits her.
matching::Matching worst_fit_matching(const market::SpectrumMarket& market) {
  matching::Matching result(market.num_channels(), market.num_buyers());
  for (BuyerId j = 0; j < market.num_buyers(); ++j) {
    for (ChannelId i = 0; i < market.num_channels(); ++i) {
      if (market.utility(i, j) <= 0.0 ||
          !market.graph(i).is_compatible(j, result.members_of(i)))
        continue;
      if (!result.is_matched(j) ||
          market.utility(i, j) < market.utility(result.seller_of(j), j))
        result.rematch(j, i);
    }
  }
  return result;
}

// Stage II alone on the same grid, from a poor input matching and through
// the two paths the full runs above never take: restricted mode (every third
// buyer plus channel 0's largest component participates) and re-screening on
// departure.
TEST_P(ShardEquivalenceTest, StageIIBitForBitAcrossShardingAndThreads) {
  const auto [seed, M, N, area, range] = GetParam();
  const auto market = geometric_market(seed, M, N, area, range);
  const matching::Matching input = worst_fit_matching(market);
  DynamicBitset participants(static_cast<std::size_t>(market.num_buyers()));
  for (std::size_t j = 0; j < participants.size(); j += 3) participants.set(j);
  const ComponentIndex& index = market.graph(0).components();
  std::uint32_t largest = 0;
  for (std::uint32_t c = 0; c < index.num_components(); ++c)
    if (index.vertices(c).size() > index.vertices(largest).size()) largest = c;
  for (const BuyerId v : index.vertices(largest))
    participants.set(static_cast<std::size_t>(v));

  for (auto policy : {MwisAlgorithm::kGwmin, MwisAlgorithm::kGwmin2}) {
    for (const bool restricted : {true, false}) {
      matching::StageIIConfig reference_config;
      reference_config.coalition_policy = policy;
      reference_config.component_min = -1;  // sharding off: whole-graph path
      if (restricted)
        reference_config.participants = &participants;
      else
        reference_config.rescreen_on_departure = true;
      const auto reference =
          run_transfer_invitation(market, input, reference_config);
      for (int component_min : {1, 7}) {
        for (int threads : {1, 4}) {
          ScopedThreads scope(threads);
          matching::StageIIConfig config = reference_config;
          config.component_min = component_min;
          const auto sharded = run_transfer_invitation(market, input, config);
          EXPECT_EQ(sharded.matching, reference.matching)
              << "seed " << seed << " restricted " << restricted << " min "
              << component_min << " threads " << threads;
          EXPECT_EQ(sharded.after_phase1, reference.after_phase1);
          EXPECT_EQ(sharded.transfers_accepted, reference.transfers_accepted);
          EXPECT_EQ(sharded.invitations_accepted,
                    reference.invitations_accepted);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Markets, ShardEquivalenceTest,
    ::testing::Values(
        // Fractured sparse geometric markets (many components per channel).
        std::make_tuple(101u, 4, 60, 40.0, 2.0),
        std::make_tuple(102u, 6, 90, 60.0, 2.5),
        std::make_tuple(103u, 3, 40, 30.0, 1.5),
        // Adversarial single component: everyone interferes with everyone.
        std::make_tuple(104u, 4, 24, 1.0, 5.0),
        // All vertices isolated: ranges ~0 leave the graphs edgeless.
        std::make_tuple(105u, 4, 32, 10.0, 1e-9)));

TEST(ShardEquivalenceTest, EdgelessMarketReallyIsEdgeless) {
  const auto market = geometric_market(105u, 4, 32, 10.0, 1e-9);
  for (ChannelId i = 0; i < market.num_channels(); ++i)
    EXPECT_EQ(market.graph(i).num_edges(), 0u);
}

TEST(ShardEquivalenceTest, ExactPolicyIgnoresShardingSafely) {
  // kExact must never shard (cross-component tie-breaking); forcing a tiny
  // component_min must not change its results.
  const auto market = geometric_market(106u, 3, 14, 20.0, 2.0);
  matching::TwoStageConfig reference_config;
  reference_config.coalition_policy = MwisAlgorithm::kExact;
  reference_config.component_min = -1;
  const auto reference = run_two_stage(market, reference_config);
  matching::TwoStageConfig config;
  config.coalition_policy = MwisAlgorithm::kExact;
  config.component_min = 1;
  const auto sharded = run_two_stage(market, config);
  EXPECT_EQ(sharded.final_matching(), reference.final_matching());
  EXPECT_EQ(sharded.welfare_final, reference.welfare_final);
}

// ---------------------------------------------------------------------------
// Restricted Stage II (the serve warm path): non-participants keep their
// input assignment verbatim, invariants hold, and the boundary participant
// sets behave as documented.
// ---------------------------------------------------------------------------

TEST(RestrictedStageIITest, NonParticipantsCarryOverVerbatim) {
  const auto market = geometric_market(201u, 5, 48, 30.0, 2.5);
  const int N = market.num_buyers();
  const auto stage1 = matching::run_deferred_acceptance(market);

  // Participants: the first component of channel 0 plus buyer N-1.
  DynamicBitset participants;
  participants.assign_zero(static_cast<std::size_t>(N));
  const ComponentIndex index(market.graph(0));
  for (const BuyerId v : index.vertices(0))
    participants.set(static_cast<std::size_t>(v));
  participants.set(static_cast<std::size_t>(N - 1));

  matching::StageIIConfig config;
  config.participants = &participants;
  const auto result =
      matching::run_transfer_invitation(market, stage1.matching, config);

  EXPECT_TRUE(matching::is_interference_free(market, result.matching));
  const double before = stage1.matching.social_welfare(market);
  const double after = result.matching.social_welfare(market);
  EXPECT_GE(after + 1e-9, before) << "restricted Stage II lost welfare";

  // Anyone never activated (participant or departure cascade) must hold
  // exactly her Stage-I assignment. Participants' seats may change; others
  // may only move if a departure cascade activated them, which only starts
  // from participant moves — so buyers whose whole market footprint is
  // disjoint from the participant set are provably untouched. Check the
  // conservative subset: buyers sharing no channel component with any
  // participant.
  for (BuyerId j = 0; j < N; ++j) {
    bool shares = participants.test(static_cast<std::size_t>(j));
    for (ChannelId i = 0; i < market.num_channels() && !shares; ++i) {
      const ComponentIndex channel_index(market.graph(i));
      for (const BuyerId v :
           channel_index.vertices(channel_index.component_of(j))) {
        if (participants.test(static_cast<std::size_t>(v))) {
          shares = true;
          break;
        }
      }
    }
    if (!shares) {
      EXPECT_EQ(result.matching.seller_of(j), stage1.matching.seller_of(j))
          << "untouched buyer " << j << " moved";
    }
  }
}

TEST(RestrictedStageIITest, EmptyParticipantsIsIdentity) {
  const auto market = geometric_market(202u, 4, 30, 25.0, 2.5);
  const auto stage1 = matching::run_deferred_acceptance(market);
  DynamicBitset none;
  none.assign_zero(static_cast<std::size_t>(market.num_buyers()));
  matching::StageIIConfig config;
  config.participants = &none;
  const auto result =
      matching::run_transfer_invitation(market, stage1.matching, config);
  EXPECT_EQ(result.matching, stage1.matching);
  EXPECT_EQ(result.transfers_accepted, 0);
  EXPECT_EQ(result.invitations_sent, 0);
}

TEST(RestrictedStageIITest, FullParticipantsMatchesUnrestricted) {
  const auto market = geometric_market(203u, 5, 40, 30.0, 2.5);
  const auto stage1 = matching::run_deferred_acceptance(market);
  const auto unrestricted =
      matching::run_transfer_invitation(market, stage1.matching, {});
  DynamicBitset all;
  all.assign_zero(static_cast<std::size_t>(market.num_buyers()));
  for (BuyerId j = 0; j < market.num_buyers(); ++j)
    all.set(static_cast<std::size_t>(j));
  matching::StageIIConfig config;
  config.participants = &all;
  const auto restricted =
      matching::run_transfer_invitation(market, stage1.matching, config);
  EXPECT_EQ(restricted.matching, unrestricted.matching);
  EXPECT_EQ(restricted.transfers_accepted, unrestricted.transfers_accepted);
  EXPECT_EQ(restricted.invitations_accepted,
            unrestricted.invitations_accepted);
}

}  // namespace
}  // namespace specmatch::graph
