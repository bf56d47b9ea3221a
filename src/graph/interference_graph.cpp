#include "graph/interference_graph.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"
#include "common/config.hpp"
#include "graph/components.hpp"

namespace specmatch::graph {

InterferenceGraph::InterferenceGraph() = default;
InterferenceGraph::~InterferenceGraph() = default;
InterferenceGraph::InterferenceGraph(InterferenceGraph&& other) noexcept =
    default;
InterferenceGraph& InterferenceGraph::operator=(
    InterferenceGraph&& other) noexcept = default;

InterferenceGraph::InterferenceGraph(const InterferenceGraph& other)
    : rep_(other.rep_),
      narrow_(other.narrow_),
      num_vertices_(other.num_vertices_),
      num_edges_(other.num_edges_),
      max_degree_(other.max_degree_) {
  // A copy owns its adjacency: it must not alias the source's snapshot
  // backing, whose lifetime it does not control. components_ stays null —
  // the copy rebuilds its own index on first use.
  const auto copy = [](auto& into, const auto* from, std::size_t count) {
    into.assign(from, from + count);
  };
  copy(degrees_, other.degrees_data(), num_vertices_);
  if (rep_ == GraphRep::kDense) {
    copy(dense_, other.dense_data(), num_vertices_ * row_words());
    return;
  }
  copy(offsets_, other.offsets_data(), num_vertices_ + 1);
  if (narrow_)
    copy(flat16_, other.flat16_data(), 2 * num_edges_);
  else
    copy(flat32_, other.flat32_data(), 2 * num_edges_);
}

InterferenceGraph& InterferenceGraph::operator=(
    const InterferenceGraph& other) {
  if (this != &other) *this = InterferenceGraph(other);
  return *this;
}

CsrView InterferenceGraph::csr_export() const {
  SPECMATCH_CHECK_MSG(rep_ == GraphRep::kCsr,
                      "csr_export requires a CSR graph (convert dense graphs "
                      "through with_representation first)");
  CsrView view;
  view.num_vertices = num_vertices_;
  view.num_edges = num_edges_;
  view.max_degree = max_degree_;
  view.narrow = narrow_;
  view.offsets = offsets_data();
  view.degrees = degrees_data();
  if (narrow_)
    view.ids16 = flat16_data();
  else
    view.ids32 = flat32_data();
  return view;
}

InterferenceGraph InterferenceGraph::from_csr_view(const CsrView& view) {
  SPECMATCH_CHECK_MSG(view.offsets != nullptr && view.degrees != nullptr,
                      "CSR view missing offsets/degrees arrays");
  SPECMATCH_CHECK_MSG(
      view.offsets[view.num_vertices] == 2 * view.num_edges,
      "CSR view offsets end " << view.offsets[view.num_vertices]
                              << " != 2*num_edges " << 2 * view.num_edges);
  if (view.num_edges > 0)
    SPECMATCH_CHECK_MSG(
        view.narrow ? view.ids16 != nullptr : view.ids32 != nullptr,
        "CSR view missing neighbour-id array");
  InterferenceGraph g;
  g.rep_ = GraphRep::kCsr;
  g.narrow_ = view.narrow;
  g.num_vertices_ = view.num_vertices;
  g.num_edges_ = view.num_edges;
  g.max_degree_ = view.max_degree;
  g.ext_offsets_ = view.offsets;
  g.ext_degrees_ = view.degrees;
  g.ext_ids16_ = view.ids16;
  g.ext_ids32_ = view.ids32;
  return g;
}

std::span<const std::uint64_t> InterferenceGraph::dense_rows() const {
  SPECMATCH_CHECK_MSG(rep_ == GraphRep::kDense,
                      "dense_rows requires a dense graph");
  return {dense_data(), num_vertices_ * row_words()};
}

InterferenceGraph InterferenceGraph::from_dense_view(
    std::size_t num_vertices, std::span<const std::uint64_t> rows,
    std::span<const std::uint32_t> degrees) {
  InterferenceGraph g;
  g.rep_ = GraphRep::kDense;
  g.num_vertices_ = num_vertices;
  g.narrow_ = g.narrow_ids();
  SPECMATCH_CHECK_MSG(rows.size() == num_vertices * g.row_words() &&
                          degrees.size() == num_vertices,
                      "dense rows for " << num_vertices << " vertices need "
                                        << num_vertices * g.row_words()
                                        << " words and as many degrees");
  g.ext_dense_ = rows.data();
  g.ext_degrees_ = degrees.data();
  std::size_t degree_sum = 0;
  for (const std::uint32_t d : degrees) {
    degree_sum += d;
    g.max_degree_ = std::max<std::size_t>(g.max_degree_, d);
  }
  g.num_edges_ = degree_sum / 2;
  return g;
}

const ComponentIndex& InterferenceGraph::components() const {
  if (components_ == nullptr)
    components_ = std::make_unique<ComponentIndex>(*this);
  return *components_;
}

std::size_t InterferenceGraph::component_index_bytes() const {
  return components_ == nullptr ? 0 : components_->bytes();
}

std::size_t InterferenceGraph::dense_max() {
  static const auto value =
      static_cast<std::size_t>(env_count("SPECMATCH_GRAPH_DENSE_MAX", 0, 2048));
  return value;
}

InterferenceGraph::InterferenceGraph(std::size_t num_vertices)
    : InterferenceGraph(num_vertices, num_vertices <= dense_max()
                                          ? GraphRep::kDense
                                          : GraphRep::kCsr) {}

InterferenceGraph::InterferenceGraph(std::size_t num_vertices, GraphRep rep)
    : rep_(rep),
      narrow_(num_vertices <= (std::size_t{1} << 16)),
      num_vertices_(num_vertices),
      degrees_(num_vertices, 0) {
  if (rep_ == GraphRep::kDense)
    dense_.assign(num_vertices * row_words(), 0);
  else
    offsets_.assign(num_vertices + 1, 0);
}

InterferenceGraph InterferenceGraph::from_edges(
    std::size_t num_vertices,
    std::span<const std::pair<BuyerId, BuyerId>> edge_list) {
  return from_edges(num_vertices, edge_list,
                    num_vertices <= dense_max() ? GraphRep::kDense
                                                : GraphRep::kCsr);
}

InterferenceGraph InterferenceGraph::from_edges(
    std::size_t num_vertices,
    std::span<const std::pair<BuyerId, BuyerId>> edge_list, GraphRep rep) {
  InterferenceGraph g(num_vertices, rep);
  for (const auto& [a, b] : edge_list) {
    g.check_vertex(a);
    g.check_vertex(b);
    SPECMATCH_CHECK_MSG(a != b, "self-loop at vertex " << a);
  }
  if (rep == GraphRep::kDense) {
    const std::size_t words = g.row_words();
    for (const auto& [a, b] : edge_list) {
      const auto ua = static_cast<std::size_t>(a);
      const auto ub = static_cast<std::size_t>(b);
      std::uint64_t& word = g.dense_[ua * words + ub / 64];
      const std::uint64_t bit = std::uint64_t{1} << (ub % 64);
      if ((word & bit) != 0) continue;  // a duplicate or reversed pair
      word |= bit;
      g.dense_[ub * words + ua / 64] |= std::uint64_t{1} << (ua % 64);
      ++g.num_edges_;
      g.max_degree_ = std::max<std::size_t>(
          g.max_degree_, std::max(++g.degrees_[ua], ++g.degrees_[ub]));
    }
    return g;
  }

  // CSR: count, prefix-sum, fill, sort, dedup. The only transients beyond
  // the final arrays are the caller's edge list and one cursor vector — no
  // per-vertex row vectors, which matters when a caller builds M large
  // graphs back to back.
  for (const auto& [a, b] : edge_list) {
    ++g.degrees_[static_cast<std::size_t>(a)];  // raw counts incl. duplicates
    ++g.degrees_[static_cast<std::size_t>(b)];
  }
  std::size_t total = 0;
  for (std::size_t v = 0; v < num_vertices; ++v) {
    SPECMATCH_CHECK_MSG(
        total + g.degrees_[v] <= std::numeric_limits<std::uint32_t>::max(),
        "CSR offsets overflow uint32");
    g.offsets_[v] = static_cast<std::uint32_t>(total);
    total += g.degrees_[v];
  }
  g.offsets_[num_vertices] = static_cast<std::uint32_t>(total);

  std::vector<std::uint32_t> cursor(g.offsets_.begin(),
                                    g.offsets_.end() - (num_vertices ? 1 : 0));
  const auto fill = [&](auto& flat) {
    flat.resize(total);
    using Id = typename std::remove_reference_t<decltype(flat)>::value_type;
    for (const auto& [a, b] : edge_list) {
      const auto ua = static_cast<std::size_t>(a);
      const auto ub = static_cast<std::size_t>(b);
      flat[cursor[ua]++] = static_cast<Id>(ub);
      flat[cursor[ub]++] = static_cast<Id>(ua);
    }
    // Sort each row and compact duplicates in place (the write cursor never
    // overtakes the read cursor).
    std::size_t write = 0;
    for (std::size_t v = 0; v < num_vertices; ++v) {
      const std::size_t begin = g.offsets_[v];
      const std::size_t end = cursor[v];
      std::sort(flat.begin() + static_cast<std::ptrdiff_t>(begin),
                flat.begin() + static_cast<std::ptrdiff_t>(end));
      g.offsets_[v] = static_cast<std::uint32_t>(write);
      for (std::size_t k = begin; k < end; ++k)
        if (k == begin || flat[k] != flat[k - 1]) flat[write++] = flat[k];
      g.degrees_[v] = static_cast<std::uint32_t>(write - g.offsets_[v]);
      g.max_degree_ = std::max<std::size_t>(g.max_degree_, g.degrees_[v]);
    }
    g.offsets_[num_vertices] = static_cast<std::uint32_t>(write);
    flat.resize(write);
    flat.shrink_to_fit();
    g.num_edges_ = write / 2;
  };
  if (g.narrow_)
    fill(g.flat16_);
  else
    fill(g.flat32_);
  return g;
}

bool InterferenceGraph::has_edge(BuyerId a, BuyerId b) const {
  check_vertex(a);
  check_vertex(b);
  const auto ua = static_cast<std::size_t>(a);
  const auto ub = static_cast<std::size_t>(b);
  if (rep_ == GraphRep::kDense) return row(a).test(ub);
  const std::uint32_t* offs = offsets_data();
  const std::size_t begin = offs[ua];
  const std::size_t end = offs[ua + 1];
  if (narrow_) {
    const std::uint16_t* ids = flat16_data();
    return std::binary_search(ids + begin, ids + end,
                              static_cast<std::uint16_t>(ub));
  }
  const std::uint32_t* ids = flat32_data();
  return std::binary_search(ids + begin, ids + end,
                            static_cast<std::uint32_t>(ub));
}

BitsetView InterferenceGraph::neighbors(BuyerId v) const {
  check_vertex(v);
  SPECMATCH_CHECK_MSG(rep_ == GraphRep::kDense,
                      "neighbors() hands out a dense adjacency row; CSR "
                      "graphs use the degree-proportional primitives");
  return row(v);
}

bool InterferenceGraph::is_independent(const DynamicBitset& members) const {
  SPECMATCH_CHECK(members.size() == num_vertices_);
  bool independent = true;
  if (rep_ == GraphRep::kDense) {
    members.for_each_set([&](std::size_t v) {
      if (independent && row(static_cast<BuyerId>(v)).intersects(members))
        independent = false;
    });
    return independent;
  }
  // Each edge is examined from one endpoint only (rows are ascending, so the
  // u > v half covers every edge once).
  members.for_each_set([&](std::size_t v) {
    if (!independent) return;
    visit_row(static_cast<BuyerId>(v), [&](std::size_t u) {
      if (u > v && members.test(u)) {
        independent = false;
        return false;
      }
      return true;
    });
  });
  return independent;
}

std::vector<std::pair<BuyerId, BuyerId>> InterferenceGraph::edges() const {
  std::vector<std::pair<BuyerId, BuyerId>> out;
  out.reserve(num_edges_);
  if (rep_ == GraphRep::kDense) {
    for (std::size_t a = 0; a < num_vertices_; ++a) {
      row(static_cast<BuyerId>(a)).for_each_set([&](std::size_t b) {
        if (a < b)
          out.emplace_back(static_cast<BuyerId>(a), static_cast<BuyerId>(b));
      });
    }
    return out;
  }
  for (std::size_t a = 0; a < num_vertices_; ++a) {
    visit_row(static_cast<BuyerId>(a), [&](std::size_t b) {
      if (a < b)
        out.emplace_back(static_cast<BuyerId>(a), static_cast<BuyerId>(b));
      return true;
    });
  }
  return out;
}

std::size_t InterferenceGraph::adjacency_bytes() const {
  // Computed from counts so owned and view-backed graphs report the same
  // footprint.
  std::size_t bytes = num_vertices_ * sizeof(std::uint32_t);  // degrees
  if (rep_ == GraphRep::kDense)
    return bytes + num_vertices_ * row_words() * sizeof(std::uint64_t);
  return bytes + (num_vertices_ + 1) * sizeof(std::uint32_t) +
         2 * num_edges_ *
             (narrow_ ? sizeof(std::uint16_t) : sizeof(std::uint32_t));
}

bool InterferenceGraph::operator==(const InterferenceGraph& other) const {
  if (num_vertices_ != other.num_vertices_ || num_edges_ != other.num_edges_)
    return false;
  for (std::size_t v = 0; v < num_vertices_; ++v)
    if (degree(static_cast<BuyerId>(v)) !=
        other.degree(static_cast<BuyerId>(v)))
      return false;
  if (rep_ == GraphRep::kDense && other.rep_ == GraphRep::kDense) {
    const auto a = dense_rows();
    const auto b = other.dense_rows();
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  return edges() == other.edges();
}

InterferenceGraph with_representation(const InterferenceGraph& graph,
                                      GraphRep rep) {
  const auto edge_list = graph.edges();
  return InterferenceGraph::from_edges(graph.num_vertices(), edge_list, rep);
}

}  // namespace specmatch::graph
