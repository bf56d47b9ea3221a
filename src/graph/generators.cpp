#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace specmatch::graph {

namespace {

/// The edges a-(a+1) of the path over `n` vertices.
std::vector<std::pair<BuyerId, BuyerId>> path_edges(std::size_t n) {
  std::vector<std::pair<BuyerId, BuyerId>> edge_list;
  for (std::size_t a = 0; a + 1 < n; ++a)
    edge_list.emplace_back(static_cast<BuyerId>(a),
                           static_cast<BuyerId>(a + 1));
  return edge_list;
}

/// The one squared-distance expression: distance() takes its root, and the
/// geometric grid compares it against squared_threshold().
double squared_distance(double ax, double ay, double bx, double by) {
  const double dx = ax - bx;
  const double dy = ay - by;
  return dx * dx + dy * dy;
}

/// Points counting-sorted into a flat row-major grid of square cells, with
/// their coordinates in cell order (struct of arrays). A cell's members sit
/// in one contiguous run, ascending by vertex id, and the three cells of a
/// grid row that neighbour a cell form one run too.
struct CellGrid {
  std::size_t cols = 0;
  std::size_t rows = 0;
  std::vector<std::uint32_t> start;  ///< cols * rows + 1 run starts
  std::vector<std::uint32_t> cell;   ///< cell of each vertex
  std::vector<std::uint32_t> ids;    ///< vertex at each position
  std::vector<double> xs;            ///< x at each position
  std::vector<double> ys;            ///< y at each position
};

/// Cells of side at least max(range, 2^-500) · (1 + 2^-20), so any pair the
/// squared test accepts lands in the same or an adjacent cell: the test
/// accepts |dx| up to range·(1 + 3ε), or up to 2^-500 where dx·dx
/// underflows, and the 2^-20 widening absorbs the rounding of
/// (v - min) / side, which is below 2^-35 cells for any n < 2^32. Cells are
/// also at least span / ⌈√n⌉ wide, so there are at most (⌈√n⌉ + 1)² of them
/// at any range, and cell indices never overflow.
CellGrid make_grid(std::span<const Point> positions, double range) {
  const std::size_t n = positions.size();
  const auto [min_x, max_x, min_y, max_y] = bounding_box(positions);
  const double span = std::max(max_x - min_x, max_y - min_y);
  const double divisions = std::ceil(std::sqrt(static_cast<double>(n)));
  const double side =
      std::max({range, 0x1p-500, span / divisions}) * (1.0 + 0x1p-20);
  const auto max_index = static_cast<std::size_t>(divisions);
  const auto index = [&](double v, double lo) {
    return std::min(static_cast<std::size_t>((v - lo) / side), max_index);
  };

  CellGrid grid;
  grid.cols = index(max_x, min_x) + 1;
  grid.rows = index(max_y, min_y) + 1;
  grid.start.assign(grid.cols * grid.rows + 1, 0);
  grid.cell.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    const Point& p = positions[v];
    grid.cell[v] = static_cast<std::uint32_t>(index(p.y, min_y) * grid.cols +
                                              index(p.x, min_x));
    ++grid.start[grid.cell[v] + 1];
  }
  for (std::size_t c = 1; c < grid.start.size(); ++c)
    grid.start[c] += grid.start[c - 1];
  std::vector<std::uint32_t> next(grid.start.begin(), grid.start.end() - 1);
  grid.ids.resize(n);
  grid.xs.resize(n);
  grid.ys.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    const std::uint32_t k = next[grid.cell[v]]++;
    grid.ids[k] = static_cast<std::uint32_t>(v);
    grid.xs[k] = positions[v].x;
    grid.ys[k] = positions[v].y;
  }
  return grid;
}

}  // namespace

double distance(const Point& a, const Point& b) {
  return std::sqrt(squared_distance(a.x, a.y, b.x, b.y));
}

Box bounding_box(std::span<const Point> positions) {
  if (positions.empty()) return {};
  Box box{positions[0].x, positions[0].x, positions[0].y, positions[0].y};
  for (const Point& p : positions) {
    SPECMATCH_CHECK_MSG(std::isfinite(p.x) && std::isfinite(p.y),
                        "non-finite point (" << p.x << ", " << p.y << ")");
    box.min_x = std::min(box.min_x, p.x);
    box.max_x = std::max(box.max_x, p.x);
    box.min_y = std::min(box.min_y, p.y);
    box.max_y = std::max(box.max_y, p.y);
  }
  SPECMATCH_CHECK_MSG(std::isfinite(box.max_x - box.min_x) &&
                          std::isfinite(box.max_y - box.min_y),
                      "point coordinates span more than a double holds");
  return box;
}

double squared_threshold(double range) {
  SPECMATCH_CHECK_MSG(range >= 0.0 && std::isfinite(range),
                      "transmission range " << range);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double t = range * range;
  while (std::sqrt(t) > range) t = std::nextafter(t, 0.0);
  for (double up = std::nextafter(t, kInf); std::sqrt(up) <= range;
       up = std::nextafter(t, kInf))
    t = up;
  return t;
}

InterferenceGraph geometric(std::span<const Point> positions, double range) {
  const double t = squared_threshold(range);
  const std::size_t n = positions.size();
  if (n == 0) return InterferenceGraph(0);
  const CellGrid grid = make_grid(positions, range);
  const std::uint32_t* start = grid.start.data();
  const std::uint32_t* ids = grid.ids.data();
  const double* xs = grid.xs.data();
  const double* ys = grid.ys.data();
  // A visit first compacts a's neighbours into `hits` without a branch per
  // candidate (about a third pass the test, which a predictor cannot
  // learn), then hands them out. At most n - 1 of them, so n slots hold any
  // candidate's write.
  std::vector<std::uint32_t> hits(n);
  return InterferenceGraph::from_neighbors(n, [&](std::size_t a, auto&& emit) {
    const double x = positions[a].x;
    const double y = positions[a].y;
    const std::size_t cx = grid.cell[a] % grid.cols;
    const std::size_t cy = grid.cell[a] / grid.cols;
    const std::size_t x0 = cx > 0 ? cx - 1 : 0;
    const std::size_t x1 = std::min(cx + 1, grid.cols - 1);
    const std::size_t y1 = std::min(cy + 1, grid.rows - 1);
    std::size_t found = 0;
    for (std::size_t row = cy > 0 ? cy - 1 : 0; row <= y1; ++row) {
      const std::size_t end = start[row * grid.cols + x1 + 1];
      for (std::size_t k = start[row * grid.cols + x0]; k < end; ++k) {
        hits[found] = ids[k];
        found += static_cast<std::size_t>(
            (squared_distance(x, y, xs[k], ys[k]) <= t) & (ids[k] != a));
      }
    }
    for (std::size_t h = 0; h < found; ++h)
      emit(static_cast<std::size_t>(hits[h]));
  });
}

InterferenceGraph erdos_renyi(std::size_t n, double p, Rng& rng) {
  SPECMATCH_CHECK_MSG(p >= 0.0 && p <= 1.0, "probability " << p);
  std::vector<std::pair<BuyerId, BuyerId>> edge_list;
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = a + 1; b < n; ++b)
      if (rng.bernoulli(p))
        edge_list.emplace_back(static_cast<BuyerId>(a),
                               static_cast<BuyerId>(b));
  return InterferenceGraph::from_edges(n, edge_list);
}

InterferenceGraph complete(std::size_t n) {
  return InterferenceGraph::from_neighbors(n, [n](std::size_t a, auto&& emit) {
    for (std::size_t b = 0; b < n; ++b)
      if (b != a) emit(b);
  });
}

InterferenceGraph empty(std::size_t n) { return InterferenceGraph(n); }

InterferenceGraph cycle(std::size_t n) {
  auto edge_list = path_edges(n);
  if (n > 2) edge_list.emplace_back(static_cast<BuyerId>(n - 1), 0);
  return InterferenceGraph::from_edges(n, edge_list);
}

InterferenceGraph path(std::size_t n) {
  return InterferenceGraph::from_edges(n, path_edges(n));
}

}  // namespace specmatch::graph
