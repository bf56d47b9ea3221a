#include "graph/interference_graph.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "common/check.hpp"
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
      finalized_(other.finalized_),
      narrow_(other.narrow_),
      num_vertices_(other.num_vertices_),
      num_edges_(other.num_edges_),
      max_degree_(other.max_degree_),
      degrees_(other.degrees_),
      dense_(other.dense_),
      rows_(other.rows_),
      offsets_(other.offsets_),
      flat16_(other.flat16_),
      flat32_(other.flat32_),
      ext_dense_(other.ext_dense_),
      ext_offsets_(other.ext_offsets_),
      ext_degrees_(other.ext_degrees_),
      ext_ids16_(other.ext_ids16_),
      ext_ids32_(other.ext_ids32_) {
  // components_ stays null: the copy rebuilds its own index on first use.
  // A copy must not alias the source's snapshot backing, whose lifetime it
  // does not control — deep-copy any borrowed arrays into owned storage.
  materialize();
}

InterferenceGraph& InterferenceGraph::operator=(
    const InterferenceGraph& other) {
  if (this == &other) return *this;
  rep_ = other.rep_;
  finalized_ = other.finalized_;
  narrow_ = other.narrow_;
  num_vertices_ = other.num_vertices_;
  num_edges_ = other.num_edges_;
  max_degree_ = other.max_degree_;
  degrees_ = other.degrees_;
  dense_ = other.dense_;
  rows_ = other.rows_;
  offsets_ = other.offsets_;
  flat16_ = other.flat16_;
  flat32_ = other.flat32_;
  ext_dense_ = other.ext_dense_;
  ext_offsets_ = other.ext_offsets_;
  ext_degrees_ = other.ext_degrees_;
  ext_ids16_ = other.ext_ids16_;
  ext_ids32_ = other.ext_ids32_;
  components_.reset();
  materialize();  // same no-alias rule as the copy constructor
  return *this;
}

void InterferenceGraph::materialize() {
  if (!view_backed()) return;
  degrees_.assign(ext_degrees_, ext_degrees_ + num_vertices_);
  if (ext_dense_ != nullptr)
    dense_.assign(ext_dense_, ext_dense_ + num_vertices_ * row_words());
  if (ext_offsets_ != nullptr)
    offsets_.assign(ext_offsets_, ext_offsets_ + num_vertices_ + 1);
  if (narrow_ && ext_ids16_ != nullptr)
    flat16_.assign(ext_ids16_, ext_ids16_ + 2 * num_edges_);
  else if (!narrow_ && ext_ids32_ != nullptr)
    flat32_.assign(ext_ids32_, ext_ids32_ + 2 * num_edges_);
  ext_dense_ = nullptr;
  ext_offsets_ = nullptr;
  ext_degrees_ = nullptr;
  ext_ids16_ = nullptr;
  ext_ids32_ = nullptr;
}

CsrView InterferenceGraph::csr_export() const {
  SPECMATCH_CHECK_MSG(rep_ == GraphRep::kCsr && finalized_,
                      "csr_export requires a finalized CSR graph (convert "
                      "dense graphs through with_representation first)");
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
  g.finalized_ = true;
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
  static const std::size_t value = [] {
    constexpr std::size_t kDefault = 2048;
    const char* env = std::getenv("SPECMATCH_GRAPH_DENSE_MAX");
    if (env == nullptr || env[0] == '\0') return kDefault;
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || parsed < 0) return kDefault;
    return static_cast<std::size_t>(parsed);
  }();
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
    rows_.resize(num_vertices);
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
  if (rep == GraphRep::kDense) {
    for (const auto& [a, b] : edge_list) g.add_edge(a, b);
    return g;
  }

  // Straight-to-finalized CSR: count, prefix-sum, fill, sort, dedup. The
  // only transients beyond the final arrays are the caller's edge list and
  // one cursor vector — no per-vertex row vectors, which matters when the
  // generator builds M large graphs back to back.
  for (const auto& [a, b] : edge_list) {
    g.check_vertex(a);
    g.check_vertex(b);
    SPECMATCH_CHECK_MSG(a != b, "self-loop at vertex " << a);
    ++g.degrees_[static_cast<std::size_t>(a)];  // raw counts incl. duplicates
    ++g.degrees_[static_cast<std::size_t>(b)];
  }
  g.offsets_.assign(num_vertices + 1, 0);
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

  std::vector<std::vector<std::uint32_t>>().swap(g.rows_);  // build rows unused
  g.finalized_ = true;
  return g;
}

void InterferenceGraph::finalize() {
  if (rep_ == GraphRep::kDense || finalized_) return;
  const std::size_t total = 2 * num_edges_;
  SPECMATCH_CHECK_MSG(total <= std::numeric_limits<std::uint32_t>::max(),
                      "CSR offsets overflow uint32");
  offsets_.assign(num_vertices_ + 1, 0);
  std::size_t running = 0;
  for (std::size_t v = 0; v < num_vertices_; ++v) {
    offsets_[v] = static_cast<std::uint32_t>(running);
    running += rows_[v].size();
  }
  offsets_[num_vertices_] = static_cast<std::uint32_t>(running);
  const auto fill = [&](auto& flat) {
    flat.resize(total);
    using Id = typename std::remove_reference_t<decltype(flat)>::value_type;
    std::size_t write = 0;
    for (std::size_t v = 0; v < num_vertices_; ++v)
      for (std::uint32_t u : rows_[v]) flat[write++] = static_cast<Id>(u);
  };
  if (narrow_)
    fill(flat16_);
  else
    fill(flat32_);
  std::vector<std::vector<std::uint32_t>>().swap(rows_);
  finalized_ = true;
}

void InterferenceGraph::add_edge(BuyerId a, BuyerId b) {
  check_vertex(a);
  check_vertex(b);
  SPECMATCH_CHECK_MSG(a != b, "self-loop at vertex " << a);
  SPECMATCH_CHECK_MSG(rep_ == GraphRep::kDense || !finalized_,
                      "add_edge on a finalized CSR graph; build it from an "
                      "edge list (from_edges) instead");
  components_.reset();  // edge mutations invalidate the component index
  const auto ua = static_cast<std::size_t>(a);
  const auto ub = static_cast<std::size_t>(b);
  if (rep_ == GraphRep::kDense) {
    if (row(a).test(ub)) return;  // already present
    materialize();  // never write through a borrowed (read-only) block
    dense_[ua * row_words() + ub / 64] |= std::uint64_t{1} << (ub % 64);
    dense_[ub * row_words() + ua / 64] |= std::uint64_t{1} << (ua % 64);
  } else {
    auto& row_a = rows_[ua];
    const auto wa = static_cast<std::uint32_t>(ub);
    const auto it_a = std::lower_bound(row_a.begin(), row_a.end(), wa);
    if (it_a != row_a.end() && *it_a == wa) return;  // already present
    row_a.insert(it_a, wa);
    auto& row_b = rows_[ub];
    const auto wb = static_cast<std::uint32_t>(ua);
    row_b.insert(std::lower_bound(row_b.begin(), row_b.end(), wb), wb);
  }
  ++num_edges_;
  max_degree_ = std::max<std::size_t>(
      max_degree_, std::max(++degrees_[ua], ++degrees_[ub]));
}

bool InterferenceGraph::has_edge(BuyerId a, BuyerId b) const {
  check_vertex(a);
  check_vertex(b);
  const auto ua = static_cast<std::size_t>(a);
  const auto ub = static_cast<std::size_t>(b);
  if (rep_ == GraphRep::kDense) return row(a).test(ub);
  if (!finalized_) {
    const auto& row = rows_[ua];
    return std::binary_search(row.begin(), row.end(),
                              static_cast<std::uint32_t>(ub));
  }
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

double InterferenceGraph::average_degree() const {
  if (num_vertices_ == 0) return 0.0;
  return 2.0 * static_cast<double>(num_edges_) /
         static_cast<double>(num_vertices_);
}

std::size_t InterferenceGraph::adjacency_bytes() const {
  // Computed from counts so owned and view-backed graphs report the same
  // footprint.
  std::size_t bytes = num_vertices_ * sizeof(std::uint32_t);  // degrees
  if (rep_ == GraphRep::kDense)
    return bytes + num_vertices_ * row_words() * sizeof(std::uint64_t);
  if (finalized_)
    return bytes + (num_vertices_ + 1) * sizeof(std::uint32_t) +
           2 * num_edges_ *
               (narrow_ ? sizeof(std::uint16_t) : sizeof(std::uint32_t));
  for (const auto& build_row : rows_)
    bytes += build_row.capacity() * sizeof(std::uint32_t);
  return bytes + rows_.capacity() * sizeof(std::vector<std::uint32_t>);
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
