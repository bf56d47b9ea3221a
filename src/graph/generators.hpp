// Interference-graph generators.
//
// The paper's workload (§V-A) uses geometric disk graphs: buyers uniform in a
// 10x10 area, one transmission range per channel drawn from (0, 5]. The other
// generators support tests, property sweeps and the worst-case analysis in
// Proposition 1 (complete graph -> one-to-one matching).
#pragma once

#include <cstddef>
#include <span>

#include "common/rng.hpp"
#include "graph/interference_graph.hpp"

namespace specmatch::graph {

/// A point in the deployment area.
struct Point {
  double x = 0.0;
  double y = 0.0;
};

double distance(const Point& a, const Point& b);

/// Axis-aligned bounds of a point set.
struct Box {
  double min_x = 0.0;
  double max_x = 0.0;
  double min_y = 0.0;
  double max_y = 0.0;
};

/// The bounds of `positions` (all zero when empty). Throws CheckError on a
/// non-finite coordinate or when max - min overflows a double on an axis:
/// such a point set has no finite cell grid.
Box bounding_box(std::span<const Point> positions);

/// The largest squared distance whose square root is at most `range`
/// (finite, >= 0). sqrt is correctly rounded and monotone, so for any
/// squared distance d2, `d2 <= squared_threshold(range)` holds exactly when
/// `sqrt(d2) <= range` does.
double squared_threshold(double range);

/// Unit-disk interference: an edge wherever two buyers are within `range`,
/// i.e. distance(a, b) <= range. Points are counting-sorted into a flat grid
/// of O(n) cells and each candidate pair is tested on its squared distance,
/// so a build costs O(n + candidates) with no pair list. Throws CheckError
/// on a negative or non-finite range, or points bounding_box rejects.
InterferenceGraph geometric(std::span<const Point> positions, double range);

/// G(n, p) random graph.
InterferenceGraph erdos_renyi(std::size_t n, double p, Rng& rng);

/// K_n — every pair interferes (channel degenerates to quota 1).
InterferenceGraph complete(std::size_t n);

/// No edges — unlimited reuse.
InterferenceGraph empty(std::size_t n);

/// Cycle 0-1-...-(n-1)-0; the smallest graphs with odd-cycle structure,
/// useful for exercising MWIS solvers.
InterferenceGraph cycle(std::size_t n);

/// Path 0-1-...-(n-1).
InterferenceGraph path(std::size_t n);

}  // namespace specmatch::graph
