#include "graph/coloring.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"

namespace specmatch::graph {
namespace {

using testutil::bits;

TEST(PartitionTest, EmptyGraphIsOneClass) {
  const auto g = empty(5);
  const auto classes = greedy_independent_partition(g);
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes[0].count(), 5u);
}

TEST(PartitionTest, CompleteGraphIsSingletons) {
  const auto g = complete(4);
  const auto classes = greedy_independent_partition(g);
  ASSERT_EQ(classes.size(), 4u);
  for (const auto& cls : classes) EXPECT_EQ(cls.count(), 1u);
}

TEST(PartitionTest, EvenCycleSplitsIntoTwoClasses) {
  const auto g = cycle(6);
  const auto classes = greedy_independent_partition(g);
  EXPECT_EQ(classes.size(), 2u);
  EXPECT_EQ(classes[0], bits(6, {0, 2, 4}));
  EXPECT_EQ(classes[1], bits(6, {1, 3, 5}));
}

TEST(PartitionTest, RespectsThePoolMask) {
  const auto g = path(5);
  const auto classes = greedy_independent_partition(g, bits(5, {1, 2}));
  ASSERT_EQ(classes.size(), 2u);
  EXPECT_EQ(classes[0], bits(5, {1}));
  EXPECT_EQ(classes[1], bits(5, {2}));
}

TEST(PartitionTest, ClassesAreIndependentAndPartitionThePool) {
  Rng rng(55);
  for (int trial = 0; trial < 25; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 60));
    Rng graph_rng = rng.fork(static_cast<std::uint64_t>(trial));
    const auto g = erdos_renyi(n, 0.3, graph_rng);
    DynamicBitset pool(n);
    for (std::size_t v = 0; v < n; ++v)
      if (rng.bernoulli(0.8)) pool.set(v);
    const auto classes = greedy_independent_partition(g, pool);
    DynamicBitset covered(n);
    for (const auto& cls : classes) {
      EXPECT_TRUE(cls.any());
      EXPECT_TRUE(g.is_independent(cls));
      EXPECT_FALSE(covered.intersects(cls));  // disjoint
      covered |= cls;
    }
    EXPECT_EQ(covered, pool);
  }
}

TEST(ComponentsTest, EdgelessGraphHasSingletonComponents) {
  const auto g = empty(3);
  const auto comps = connected_components(g);
  ASSERT_EQ(comps.size(), 3u);
  EXPECT_EQ(comps[0], bits(3, {0}));
  EXPECT_EQ(comps[2], bits(3, {2}));
}

TEST(ComponentsTest, FindsDisjointClusters) {
  const auto g = testutil::make_graph(7, {{0, 1}, {1, 2}, {4, 5}});
  const auto comps = connected_components(g);
  ASSERT_EQ(comps.size(), 4u);
  EXPECT_EQ(comps[0], bits(7, {0, 1, 2}));
  EXPECT_EQ(comps[1], bits(7, {3}));
  EXPECT_EQ(comps[2], bits(7, {4, 5}));
  EXPECT_EQ(comps[3], bits(7, {6}));
}

TEST(ComponentsTest, ConnectedGraphIsOneComponent) {
  const auto g = cycle(8);
  const auto comps = connected_components(g);
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_EQ(comps[0].count(), 8u);
}

TEST(ComponentsTest, ComponentsPartitionAllVertices) {
  Rng rng(77);
  const auto g = erdos_renyi(40, 0.05, rng);
  const auto comps = connected_components(g);
  DynamicBitset covered(40);
  for (const auto& comp : comps) {
    EXPECT_FALSE(covered.intersects(comp));
    covered |= comp;
    // No edges leave a component.
    comp.for_each_set([&](std::size_t v) {
      EXPECT_TRUE(
          g.neighbors(static_cast<BuyerId>(v)).is_subset_of(comp));
    });
  }
  EXPECT_EQ(covered.count(), 40u);
}

}  // namespace
}  // namespace specmatch::graph
