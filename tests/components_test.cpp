// Component index structure, and the determinism contract of the coalition
// rounds on fractured, single-component and edgeless markets: two-stage and
// Stage II results are bit-for-bit identical at any thread count. Also pins
// the restricted Stage II mode the serve warm path runs on.
#include "graph/components.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/coloring.hpp"
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
  EXPECT_EQ(index.largest_component(), 3u);

  const auto c0 = index.vertices(0);
  ASSERT_EQ(c0.size(), 3u);
  EXPECT_EQ(c0[0], 0);
  EXPECT_EQ(c0[1], 1);
  EXPECT_EQ(c0[2], 2);
  // Consecutive components hold consecutive vertex lists.
  std::vector<BuyerId> c12;
  for (std::size_t c = 1; c < 3; ++c)
    for (const BuyerId v : index.vertices(c)) c12.push_back(v);
  EXPECT_EQ(c12, (std::vector<BuyerId>{3, 4, 5}));
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
      std::size_t largest = 0;
      for (std::size_t c = 0; c < index.num_components(); ++c) {
        const auto verts = index.vertices(c);
        ASSERT_EQ(index.size(c), verts.size());
        total_vertices += verts.size();
        largest = std::max(largest, verts.size());
        for (std::size_t l = 0; l < verts.size(); ++l) {
          EXPECT_EQ(index.component_of(verts[l]), c);
          if (l > 0) {
            EXPECT_LT(verts[l - 1], verts[l]) << "not ascending";
          }
        }
      }
      EXPECT_EQ(total_vertices, n);
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
      for (std::size_t c = 0; c < a.num_components(); ++c) {
        EXPECT_EQ(a.size(c), b.size(c)) << "component " << c;
        const auto va = a.vertices(c);
        const auto vb = b.vertices(c);
        EXPECT_TRUE(std::equal(va.begin(), va.end(), vb.begin(), vb.end()))
            << "component " << c;
      }
    }
  }
}

/// Expects `index` to hold exactly coloring.cpp's connected_components of
/// `graph`: the same components in the same order, the same vertex lists,
/// sizes and per-vertex labels.
void expect_matches_connected_components(const InterferenceGraph& graph,
                                         const ComponentIndex& index) {
  const std::vector<DynamicBitset> want = connected_components(graph);
  ASSERT_EQ(index.num_components(), want.size());
  std::size_t total = 0;
  for (std::size_t c = 0; c < want.size(); ++c) {
    const auto verts = index.vertices(c);
    std::vector<std::size_t> got(verts.begin(), verts.end());
    ASSERT_EQ(got, want[c].to_indices()) << "component " << c;
    ASSERT_EQ(index.size(c), got.size()) << "component " << c;
    for (const std::size_t v : got)
      ASSERT_EQ(index.component_of(static_cast<BuyerId>(v)), c);
    total += got.size();
  }
  EXPECT_EQ(total, graph.num_vertices());
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

// ---------------------------------------------------------------------------
// Coalition rounds across lanes: identical results at threads {1, 4}
// against a 1-thread reference, for both greedy policies, on fractured,
// single-component, and edgeless markets.
// ---------------------------------------------------------------------------

class LaneEquivalenceTest
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, int, int, double, double>> {};

TEST_P(LaneEquivalenceTest, TwoStageBitForBitAcrossThreads) {
  const auto [seed, M, N, area, range] = GetParam();
  const auto market = geometric_market(seed, M, N, area, range);
  for (auto policy : {MwisAlgorithm::kGwmin, MwisAlgorithm::kGwmin2}) {
    matching::TwoStageConfig config;
    config.coalition_policy = policy;
    const auto reference = [&] {
      ScopedThreads scope(1);
      return run_two_stage(market, config);
    }();
    for (int threads : {1, 4}) {
      ScopedThreads scope(threads);
      const auto got = run_two_stage(market, config);
      EXPECT_EQ(got.final_matching(), reference.final_matching())
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(got.stage1.matching, reference.stage1.matching);
      EXPECT_EQ(got.stage1.rounds, reference.stage1.rounds);
      EXPECT_EQ(got.stage1.total_evictions, reference.stage1.total_evictions);
      EXPECT_EQ(got.stage2.transfers_accepted,
                reference.stage2.transfers_accepted);
      EXPECT_EQ(got.welfare_stage1, reference.welfare_stage1);
      EXPECT_EQ(got.welfare_phase1, reference.welfare_phase1);
      EXPECT_EQ(got.welfare_final, reference.welfare_final);
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
TEST_P(LaneEquivalenceTest, StageIIBitForBitAcrossThreads) {
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
      matching::StageIIConfig config;
      config.coalition_policy = policy;
      if (restricted)
        config.participants = &participants;
      else
        config.rescreen_on_departure = true;
      const auto reference = [&] {
        ScopedThreads scope(1);
        return run_transfer_invitation(market, input, config);
      }();
      for (int threads : {1, 4}) {
        ScopedThreads scope(threads);
        const auto got = run_transfer_invitation(market, input, config);
        EXPECT_EQ(got.matching, reference.matching)
            << "seed " << seed << " restricted " << restricted << " threads "
            << threads;
        EXPECT_EQ(got.after_phase1, reference.after_phase1);
        EXPECT_EQ(got.transfers_accepted, reference.transfers_accepted);
        EXPECT_EQ(got.invitations_accepted, reference.invitations_accepted);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Markets, LaneEquivalenceTest,
    ::testing::Values(
        // Fractured sparse geometric markets (many components per channel).
        std::make_tuple(101u, 4, 60, 40.0, 2.0),
        std::make_tuple(102u, 6, 90, 60.0, 2.5),
        std::make_tuple(103u, 3, 40, 30.0, 1.5),
        // Adversarial single component: everyone interferes with everyone.
        std::make_tuple(104u, 4, 24, 1.0, 5.0),
        // All vertices isolated: ranges ~0 leave the graphs edgeless.
        std::make_tuple(105u, 4, 32, 10.0, 1e-9)));

TEST(LaneEquivalenceTest, EdgelessMarketReallyIsEdgeless) {
  const auto market = geometric_market(105u, 4, 32, 10.0, 1e-9);
  for (ChannelId i = 0; i < market.num_channels(); ++i)
    EXPECT_EQ(market.graph(i).num_edges(), 0u);
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
