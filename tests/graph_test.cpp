#include "graph/interference_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <vector>

#include "common/check.hpp"
#include "graph/generators.hpp"
#include "graph/mwis.hpp"
#include "mwis_reference.hpp"
#include "test_util.hpp"

namespace specmatch::graph {
namespace {

using testutil::bits;

TEST(InterferenceGraphTest, EmptyGraph) {
  InterferenceGraph g(5);
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_EQ(g.degree(0), 0u);
  EXPECT_EQ(g.max_degree(), 0u);
}

TEST(InterferenceGraphTest, FromEdgesFoldsPairsAndRejectsBadIds) {
  // One table over both representations: reversed and duplicate pairs fold
  // into one symmetric edge; self-loops and ids outside [0, 5) throw.
  const struct {
    const char* name;
    std::vector<std::pair<BuyerId, BuyerId>> edges;
    bool rejected;
    std::size_t num_edges;
    std::size_t max_degree;
  } cases[] = {
      {"one edge", {{1, 3}}, false, 1, 1},
      {"reversed pair", {{1, 3}, {3, 1}}, false, 1, 1},
      {"duplicates", {{0, 2}, {0, 2}, {2, 0}, {4, 0}, {0, 4}}, false, 2, 2},
      {"no edges", {}, false, 0, 0},
      {"self-loop", {{0, 2}, {1, 1}}, true, 0, 0},
      {"id past the end", {{0, 5}}, true, 0, 0},
      {"negative id", {{-1, 0}}, true, 0, 0},
  };
  for (const GraphRep rep : {GraphRep::kDense, GraphRep::kCsr}) {
    for (const auto& c : cases) {
      SCOPED_TRACE(testing::Message()
                   << c.name << (rep == GraphRep::kDense ? " dense" : " csr"));
      if (c.rejected) {
        EXPECT_THROW((void)InterferenceGraph::from_edges(5, c.edges, rep),
                     CheckError);
        continue;
      }
      const auto g = InterferenceGraph::from_edges(5, c.edges, rep);
      EXPECT_EQ(g.representation(), rep);
      EXPECT_EQ(g.num_edges(), c.num_edges);
      EXPECT_EQ(g.max_degree(), c.max_degree);
      std::size_t degree_sum = 0;
      for (BuyerId v = 0; v < 5; ++v) degree_sum += g.degree(v);
      EXPECT_EQ(degree_sum, 2 * c.num_edges);
      for (const auto& [a, b] : c.edges) {
        EXPECT_TRUE(g.has_edge(a, b));
        EXPECT_TRUE(g.has_edge(b, a));
      }
      EXPECT_EQ(g, with_representation(g, rep == GraphRep::kDense
                                              ? GraphRep::kCsr
                                              : GraphRep::kDense));
      EXPECT_THROW((void)g.has_edge(0, 5), CheckError);
      EXPECT_THROW((void)g.has_edge(-1, 0), CheckError);
    }
  }
}

TEST(InterferenceGraphTest, EdgelessCsrGraphIsFlat) {
  // An edgeless CSR graph is born in the flat form: n + 1 zero offsets.
  const InterferenceGraph csr(5, GraphRep::kCsr);
  const CsrView view = csr.csr_export();
  EXPECT_EQ(view.num_vertices, 5u);
  EXPECT_EQ(view.num_edges, 0u);
  EXPECT_EQ(view.max_degree, 0u);
  for (std::size_t v = 0; v <= 5; ++v) EXPECT_EQ(view.offsets[v], 0u);
  EXPECT_EQ(csr.adjacency_bytes(), 5 * 4 + 6 * 4u);
  EXPECT_EQ(csr, InterferenceGraph(5, GraphRep::kDense));
  EXPECT_EQ(InterferenceGraph::from_csr_view(view), csr);
  // neighbors() hands out a dense row and is dense-only by contract.
  EXPECT_THROW((void)csr.neighbors(2), CheckError);
}

TEST(InterferenceGraphTest, Neighbors) {
  const auto g = testutil::make_graph(6, {{2, 0}, {2, 4}, {2, 5}});
  EXPECT_EQ(g.neighbors(2), bits(6, {0, 4, 5}));
  EXPECT_EQ(g.degree(2), 3u);
}

TEST(InterferenceGraphTest, IsIndependent) {
  const auto g = testutil::make_graph(5, {{0, 1}, {2, 3}});
  EXPECT_TRUE(g.is_independent(bits(5, {0, 2, 4})));
  EXPECT_TRUE(g.is_independent(bits(5, {})));
  EXPECT_TRUE(g.is_independent(bits(5, {1})));
  EXPECT_FALSE(g.is_independent(bits(5, {0, 1})));
  EXPECT_FALSE(g.is_independent(bits(5, {1, 2, 3})));
}

TEST(InterferenceGraphTest, IsCompatible) {
  const auto g = testutil::make_graph(4, {{0, 1}});
  EXPECT_FALSE(g.is_compatible(0, bits(4, {1, 2})));
  EXPECT_TRUE(g.is_compatible(0, bits(4, {2, 3})));
  // A vertex is always compatible with a set containing only itself.
  EXPECT_TRUE(g.is_compatible(0, bits(4, {0})));
}

TEST(InterferenceGraphTest, EdgesListSortedUnique) {
  const auto g = testutil::make_graph(4, {{2, 1}, {0, 3}, {1, 2}});
  const auto edges = g.edges();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], std::make_pair(BuyerId{0}, BuyerId{3}));
  EXPECT_EQ(edges[1], std::make_pair(BuyerId{1}, BuyerId{2}));
}

TEST(GeneratorsTest, GeometricUsesEuclideanDistance) {
  const std::vector<Point> pts = {{0, 0}, {3, 4}, {0, 1}};
  const auto g = geometric(pts, 5.0);
  EXPECT_TRUE(g.has_edge(0, 1));  // distance exactly 5 <= 5
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(1, 2));  // distance sqrt(9+9) ~ 4.24
  const auto g2 = geometric(pts, 1.0);
  EXPECT_FALSE(g2.has_edge(0, 1));
  EXPECT_TRUE(g2.has_edge(0, 2));
}

TEST(GeneratorsTest, GeometricZeroRangeOnlyLinksCoincidentPoints) {
  const std::vector<Point> pts = {{1, 1}, {1, 1}, {2, 2}};
  const auto g = geometric(pts, 0.0);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(0, 2));
}

/// Requires every neighbour row of `g` to equal a brute-force all-pairs list
/// under distance(a, b) <= range.
void expect_all_pairs_rows(const InterferenceGraph& g,
                           const std::vector<Point>& pts, double range) {
  const std::size_t n = pts.size();
  ASSERT_EQ(g.num_vertices(), n);
  std::size_t degree_sum = 0;
  std::vector<std::size_t> expected;
  std::vector<std::size_t> got;
  for (std::size_t a = 0; a < n; ++a) {
    expected.clear();
    for (std::size_t b = 0; b < n; ++b)
      if (b != a && distance(pts[a], pts[b]) <= range) expected.push_back(b);
    got.clear();
    g.for_each_neighbor(static_cast<BuyerId>(a),
                        [&](std::size_t u) { got.push_back(u); });
    ASSERT_EQ(got, expected) << "vertex " << a;
    ASSERT_EQ(g.degree(static_cast<BuyerId>(a)), expected.size());
    degree_sum += expected.size();
  }
  EXPECT_EQ(2 * g.num_edges(), degree_sum);
}

TEST(GeneratorsTest, GeometricGridPathMatchesAllPairs) {
  // geometric() counting-sorts points into a grid and tests candidates in
  // neighbouring cells on their squared distance, at every n. Its neighbour
  // rows must equal a brute-force all-pairs list under distance(). n = 1500
  // and 8000 are CSR, the rest dense. At 4 points per unit area the ranges
  // span sub-percolating (mean degree ~1) to percolating (~50). Coincident
  // points and pairs offset by exactly `range` sit on cell boundaries.
  Rng rng(1500);
  for (std::size_t n : {2u, 50u, 400u, 1024u, 1500u, 8000u}) {
    const double side = std::sqrt(static_cast<double>(n) / 4.0);
    for (double range : {0.3, 0.6, 1.05, 2.0}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " range=" << range);
      std::vector<Point> pts(n);
      for (std::size_t v = 0; v < n; ++v) {
        if (v % 100 == 1)
          pts[v] = pts[v - 1];
        else if (v % 100 == 2)
          pts[v] = {pts[v - 2].x + range, pts[v - 2].y};
        else
          pts[v] = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
      }
      expect_all_pairs_rows(geometric(pts, range), pts, range);
    }
  }
}

TEST(GeneratorsTest, GeometricMatchesAllPairsAtExtremeScales) {
  // Scales where the cell arithmetic is most fragile: a range far below
  // the point spacing (where dx * dx underflows to 0 for offsets below
  // ~1e-162, so distance() links them), coordinates near the largest
  // double, and a range larger than the whole span.
  Rng rng(77);
  struct Case {
    double scale;
    double range;
  };
  for (const Case c : {Case{10.0, 1e-300}, Case{10.0, 0.0},
                       Case{1e-170, 1e-300}, Case{1e-160, 1e-300},
                       Case{4e307, 1e307},
                       Case{1.0, 1e300}}) {
    SCOPED_TRACE(testing::Message()
                 << "scale=" << c.scale << " range=" << c.range);
    std::vector<Point> pts;
    for (int v = 0; v < 60; ++v) {
      const Point p{rng.uniform(-c.scale, c.scale),
                    rng.uniform(-c.scale, c.scale)};
      pts.push_back(p);
      if (v % 10 == 0) pts.push_back(p);  // coincident
      if (v % 10 == 1) pts.push_back({p.x + 1e-170, p.y});
    }
    expect_all_pairs_rows(geometric(pts, c.range), pts, c.range);
  }
}

TEST(GeneratorsTest, GeometricRejectsHostileInput) {
  const std::vector<Point> wide = {{-1e308, 0.0}, {1e308, 0.0}};
  EXPECT_THROW((void)geometric(wide, 1.0), CheckError);  // span overflows
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)geometric(std::vector<Point>{{inf, 0.0}}, 1.0),
               CheckError);
  EXPECT_THROW((void)geometric(std::vector<Point>{{std::nan(""), 0.0}}, 1.0),
               CheckError);
  const std::vector<Point> two = {{0.0, 0.0}, {1.0, 0.0}};
  EXPECT_THROW((void)geometric(two, -1.0), CheckError);
  EXPECT_THROW((void)geometric(two, inf), CheckError);
  EXPECT_THROW((void)geometric(two, std::nan("")), CheckError);
  EXPECT_EQ(geometric({}, 1.0).num_vertices(), 0u);
}

TEST(GeneratorsTest, SquaredThresholdIsExactlyTheSqrtTest) {
  // d2 <= t must hold exactly when sqrt(d2) <= r: at t itself, at its two
  // neighbouring doubles, and at random d2 around r².
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(4242);
  std::vector<double> ranges = {0.0, 1e-300, 5e-324, 1.0, 2.0, 3.0, 5.0,
                                1e150, 1e300,
                                std::numeric_limits<double>::max()};
  for (int k = 0; k < 2000; ++k)
    ranges.push_back(rng.uniform(0.0, 5.0) *
                     std::pow(10.0, rng.uniform_int(-200, 200)));
  for (double r : ranges) {
    SCOPED_TRACE(testing::Message() << "r=" << r);
    const double t = squared_threshold(r);
    EXPECT_LE(std::sqrt(t), r);
    EXPECT_GT(std::sqrt(std::nextafter(t, inf)), r);
    if (t > 0.0) EXPECT_LE(std::sqrt(std::nextafter(t, -inf)), r);
    for (int k = 0; k < 8; ++k) {
      const double d2 = r * r * rng.uniform(0.999999, 1.000001);
      EXPECT_EQ(d2 <= t, std::sqrt(d2) <= r) << "d2=" << d2;
    }
  }
}

TEST(GeneratorsTest, CompleteAndEmpty) {
  const auto k = complete(6);
  EXPECT_EQ(k.num_edges(), 15u);
  for (BuyerId v = 0; v < 6; ++v) EXPECT_EQ(k.degree(v), 5u);
  const auto e = empty(6);
  EXPECT_EQ(e.num_edges(), 0u);
}

TEST(GeneratorsTest, CycleAndPath) {
  const auto c = cycle(5);
  EXPECT_EQ(c.num_edges(), 5u);
  for (BuyerId v = 0; v < 5; ++v) EXPECT_EQ(c.degree(v), 2u);
  const auto p = path(5);
  EXPECT_EQ(p.num_edges(), 4u);
  EXPECT_EQ(p.degree(0), 1u);
  EXPECT_EQ(p.degree(2), 2u);
  // Degenerate sizes.
  EXPECT_EQ(cycle(2).num_edges(), 1u);
  EXPECT_EQ(cycle(1).num_edges(), 0u);
  EXPECT_EQ(path(1).num_edges(), 0u);
}

TEST(GeneratorsTest, ErdosRenyiDensityMatchesProbability) {
  Rng rng(3);
  const auto g = erdos_renyi(60, 0.3, rng);
  const double max_edges = 60.0 * 59.0 / 2.0;
  const double density = static_cast<double>(g.num_edges()) / max_edges;
  EXPECT_NEAR(density, 0.3, 0.05);
  Rng rng2(4);
  EXPECT_EQ(erdos_renyi(20, 0.0, rng2).num_edges(), 0u);
  EXPECT_EQ(erdos_renyi(20, 1.0, rng2).num_edges(), 190u);
}

TEST(GeneratorsTest, ErdosRenyiEdgeCountsArePinned) {
  // The generator draws one bernoulli per pair (a, b), a < b, in ascending
  // order; these counts pin that draw order for a dense and a CSR graph.
  Rng dense_rng(3);
  const auto dense = erdos_renyi(60, 0.3, dense_rng);
  EXPECT_EQ(dense.representation(), GraphRep::kDense);
  EXPECT_EQ(dense.num_edges(), 505u);
  Rng csr_rng(11);
  const auto csr = erdos_renyi(3000, 0.002, csr_rng);
  if (std::getenv("SPECMATCH_GRAPH_DENSE_MAX") == nullptr) {
    EXPECT_EQ(csr.representation(), GraphRep::kCsr);
  }
  EXPECT_EQ(csr.num_edges(), 9013u);
}

TEST(GeneratorsTest, ErdosRenyiInvalidProbabilityThrows) {
  Rng rng(5);
  EXPECT_THROW((void)erdos_renyi(5, -0.1, rng), CheckError);
  EXPECT_THROW((void)erdos_renyi(5, 1.1, rng), CheckError);
}

TEST(GeneratorsTest, DistanceHelper) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance({1, 1}, {1, 1}), 0.0);
}

// ---------------------------------------------------------------------------
// Dense vs CSR representation equivalence (property tests). One random graph
// is rebuilt under both representations; every query — and the MWIS solvers
// on top of them — must agree exactly.
// ---------------------------------------------------------------------------

DynamicBitset random_mask(std::size_t n, double p, Rng& rng) {
  DynamicBitset mask(n);
  for (std::size_t v = 0; v < n; ++v)
    if (rng.bernoulli(p)) mask.set(v);
  return mask;
}

TEST(GraphRepresentationTest, QueriesAgreeOnRandomGraphs) {
  const struct {
    std::uint64_t seed;
    std::size_t n;
    double p;
  } cases[] = {{1, 24, 0.3}, {2, 40, 0.1}, {3, 120, 0.05}, {4, 300, 0.02}};
  for (const auto& c : cases) {
    Rng rng(c.seed);
    const auto base = erdos_renyi(c.n, c.p, rng);
    const auto dense = with_representation(base, GraphRep::kDense);
    const auto csr = with_representation(base, GraphRep::kCsr);
    ASSERT_EQ(dense.representation(), GraphRep::kDense);
    ASSERT_EQ(csr.representation(), GraphRep::kCsr);

    // Structure: equality is representation-agnostic in both directions.
    EXPECT_EQ(dense, csr);
    EXPECT_EQ(csr, dense);
    EXPECT_EQ(dense.edges(), csr.edges());
    EXPECT_EQ(dense.num_edges(), csr.num_edges());
    EXPECT_EQ(dense.max_degree(), csr.max_degree());

    Rng mask_rng(c.seed ^ 0x5eed);
    for (int trial = 0; trial < 10; ++trial) {
      const double density = mask_rng.uniform();
      const auto mask = random_mask(c.n, density, mask_rng);
      EXPECT_EQ(dense.is_independent(mask), csr.is_independent(mask));
      for (std::size_t v = 0; v < c.n; ++v) {
        const auto id = static_cast<BuyerId>(v);
        EXPECT_EQ(dense.degree(id), csr.degree(id));
        EXPECT_EQ(dense.is_compatible(id, mask), csr.is_compatible(id, mask));
        EXPECT_EQ(dense.degree_in(id, mask), csr.degree_in(id, mask));
        EXPECT_EQ(dense.neighbors_subset_of(id, mask),
                  csr.neighbors_subset_of(id, mask));

        DynamicBitset out_dense(c.n);
        DynamicBitset out_csr(c.n);
        dense.neighbors_in(id, mask, out_dense);
        csr.neighbors_in(id, mask, out_csr);
        EXPECT_EQ(out_dense, out_csr);

        out_dense = mask;
        out_csr = mask;
        dense.add_neighbors_to(id, out_dense);
        csr.add_neighbors_to(id, out_csr);
        EXPECT_EQ(out_dense, out_csr);
        dense.remove_neighbors_from(id, out_dense);
        csr.remove_neighbors_from(id, out_csr);
        EXPECT_EQ(out_dense, out_csr);

        // for_each_neighbor: identical ascending visitation order (the
        // GWMIN2 bit-for-bit contract).
        std::vector<std::size_t> seq_dense;
        std::vector<std::size_t> seq_csr;
        dense.for_each_neighbor(id,
                                [&](std::size_t u) { seq_dense.push_back(u); });
        csr.for_each_neighbor(id, [&](std::size_t u) { seq_csr.push_back(u); });
        EXPECT_EQ(seq_dense, seq_csr);
        EXPECT_TRUE(std::is_sorted(seq_csr.begin(), seq_csr.end()));
      }
    }
  }
}

TEST(GraphRepresentationTest, MwisSelectionsAgreeOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const std::size_t n = 40;
    const auto base = erdos_renyi(n, 0.15, rng);
    const auto dense = with_representation(base, GraphRep::kDense);
    const auto csr = with_representation(base, GraphRep::kCsr);
    std::vector<double> weights(n);
    for (double& w : weights) w = rng.uniform(0.0, 10.0);
    Rng mask_rng(seed ^ 0xfeed);
    for (int trial = 0; trial < 5; ++trial) {
      const auto candidates = random_mask(n, 0.8, mask_rng);
      for (auto algorithm : {MwisAlgorithm::kGwmin, MwisAlgorithm::kGwmin2,
                             MwisAlgorithm::kExact}) {
        const auto from_dense =
            solve_mwis(dense, weights, candidates, algorithm);
        const auto from_csr = solve_mwis(csr, weights, candidates, algorithm);
        EXPECT_EQ(from_dense, from_csr)
            << "algorithm " << to_string(algorithm) << " seed " << seed;
      }
      // The rescan reference is representation-agnostic too.
      EXPECT_EQ(
          solve_mwis_rescan(dense, weights, candidates, MwisAlgorithm::kGwmin2),
          solve_mwis_rescan(csr, weights, candidates, MwisAlgorithm::kGwmin2));
    }
  }
}

TEST(GraphRepresentationTest, AutoSelectionFollowsDenseMaxKnob) {
  if (std::getenv("SPECMATCH_GRAPH_DENSE_MAX") != nullptr)
    GTEST_SKIP() << "SPECMATCH_GRAPH_DENSE_MAX overridden in environment";
  EXPECT_EQ(InterferenceGraph::dense_max(), 2048u);
  EXPECT_EQ(InterferenceGraph(64).representation(), GraphRep::kDense);
  EXPECT_EQ(InterferenceGraph(2049).representation(), GraphRep::kCsr);
}

TEST(GraphRepresentationTest, GeometricEdgesIdenticalUnderBothReps) {
  // Positions dense enough to exercise the grid-bucket path's edge list.
  Rng rng(99);
  std::vector<Point> pts;
  for (int i = 0; i < 400; ++i)
    pts.push_back({rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)});
  const auto g = geometric(pts, 1.5);
  EXPECT_EQ(with_representation(g, GraphRep::kCsr),
            with_representation(g, GraphRep::kDense));
}

}  // namespace
}  // namespace specmatch::graph
