// Per-channel interference graph G_i = (V, E_i) over the virtual buyers.
//
// Vertices are BuyerIds; an edge (j, j') means buyers j and j' may not reuse
// this channel simultaneously (paper §II-A). Two storage representations sit
// behind one API:
//
//  * kDense — one N-bit adjacency row per vertex, all rows in one contiguous
//    word block (row v at word v·⌈N/64⌉), so "does buyer j interfere with
//    anyone in coalition C" is a word-parallel intersection test running on
//    the runtime-dispatched kernels of common/simd.hpp (AVX2/SSE2/scalar,
//    bit-identical across tiers). O(N²) bits per graph: perfect for the
//    paper-sized markets, ruinous at ROADMAP scale (M dense graphs at
//    N = 20000 cost gigabytes).
//  * kCsr — compressed sparse rows: each vertex's neighbour list, ascending,
//    concatenated into one flat array (16-bit ids when N <= 65536, 32-bit
//    above) behind an offsets table. Memory scales with edges, and every
//    neighbourhood operation is O(deg) instead of O(N/64) words.
//
// The representation is chosen per graph at construction: vertex counts at or
// below the SPECMATCH_GRAPH_DENSE_MAX env knob (default 2048) stay dense,
// larger graphs go CSR. All queries are representation-agnostic; only
// neighbors() — which hands out a dense row as a BitsetView — is dense-only,
// and callers on hot paths use the degree-proportional primitives below
// instead.
//
// Either representation's adjacency is owned when the graph is built, or
// borrowed from a mapped snapshot file when a market is faulted in
// (from_dense_view, from_csr_view): the graph then reads the file's pages in
// place. Copying a borrowing graph copies its adjacency into owned storage.
//
// A graph is immutable once constructed, as the paper's graphs are: each is
// fixed by the buyers' locations and the channel's range. It comes from the
// edgeless constructors, from_edges, from_neighbors, or one of the two
// snapshot views, and has no mutator; only assignment replaces it whole.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bitset.hpp"
#include "common/check.hpp"
#include "common/ids.hpp"

namespace specmatch::graph {

class ComponentIndex;

/// Adjacency storage strategy; see the header comment.
enum class GraphRep : std::uint8_t {
  kDense,  ///< one bit row per vertex in one block (word-parallel, O(N²))
  kCsr,    ///< compressed sparse rows (degree-proportional, O(E) ids)
};

/// Borrowed pointers into a CSR adjacency: the exact arrays visit_row
/// walks, suitable for writing to (or mapping from) a snapshot file.
/// `ids16` is populated when `narrow`, `ids32` otherwise; the live one
/// holds 2 * num_edges entries. The pointed-to memory is NOT owned — the
/// producer (an InterferenceGraph, or a mapped snapshot) must outlive every
/// use of the view.
struct CsrView {
  std::size_t num_vertices = 0;
  std::size_t num_edges = 0;
  std::size_t max_degree = 0;
  bool narrow = true;                      ///< 16-bit neighbour ids
  const std::uint32_t* offsets = nullptr;  ///< num_vertices + 1 row starts
  const std::uint32_t* degrees = nullptr;  ///< num_vertices cached degrees
  const std::uint16_t* ids16 = nullptr;
  const std::uint32_t* ids32 = nullptr;
};

class InterferenceGraph {
 public:
  /// The empty graph (zero vertices). Out of line, like the rule of five
  /// below, so a vector of graphs can be sized where ComponentIndex is
  /// incomplete.
  InterferenceGraph();

  /// An edgeless graph over `num_vertices` buyers; representation chosen by
  /// vertex count against dense_max(). An edgeless CSR graph has the flat
  /// form of every CSR graph: num_vertices + 1 zero offsets.
  explicit InterferenceGraph(std::size_t num_vertices);

  /// An edgeless graph with an explicit representation (tests, benches, and
  /// the representation-comparison legs).
  InterferenceGraph(std::size_t num_vertices, GraphRep rep);

  /// Bulk constructor: the graph over `num_vertices` buyers whose edge set is
  /// `edge_list` (unordered pairs; duplicate and reversed pairs fold into one
  /// edge; self-loops and out-of-range ids throw CheckError). The CSR build
  /// goes straight to flat storage — no per-vertex row vectors — which keeps
  /// the transient footprint at one edge list, not a vector-of-vectors.
  static InterferenceGraph from_edges(
      std::size_t num_vertices,
      std::span<const std::pair<BuyerId, BuyerId>> edge_list);
  static InterferenceGraph from_edges(
      std::size_t num_vertices,
      std::span<const std::pair<BuyerId, BuyerId>> edge_list, GraphRep rep);

  /// Builds a graph in place from a neighbour enumeration, with no edge list
  /// and no per-row sort; representation chosen by vertex count against
  /// dense_max(). `visit(a, emit)` must call `emit(b)` once for every
  /// neighbour b != a of a, in any order, and the relation must be symmetric
  /// (a CSR build checks every row's fill against its count: each write in
  /// debug builds, the totals in all builds). It runs for every a
  /// ascending: once for a dense graph, whose bits go straight into the
  /// rows; twice for a CSR graph, a count pass and then a fill pass that
  /// appends a to each neighbour's row, so every row comes out ascending.
  template <typename Visit>
  static InterferenceGraph from_neighbors(std::size_t num_vertices,
                                          Visit&& visit);

  // The lazily built component-index cache makes the graph's copy special
  // (copies share nothing; the cache is rebuilt on demand), so the whole
  // rule of five is spelled out. All five leave the edge set identical to
  // the source.
  ~InterferenceGraph();
  InterferenceGraph(const InterferenceGraph& other);
  InterferenceGraph& operator=(const InterferenceGraph& other);
  InterferenceGraph(InterferenceGraph&& other) noexcept;
  InterferenceGraph& operator=(InterferenceGraph&& other) noexcept;

  /// Largest vertex count stored dense (SPECMATCH_GRAPH_DENSE_MAX, default
  /// 2048); read once per process.
  static std::size_t dense_max();

  GraphRep representation() const { return rep_; }

  std::size_t num_vertices() const { return num_vertices_; }
  std::size_t num_edges() const { return num_edges_; }

  bool has_edge(BuyerId a, BuyerId b) const;

  /// Adjacency row of `v`: bit j set iff (v, j) is an edge, viewed in place
  /// (valid while the graph lives). Dense-only — CSR graphs have no bit row
  /// to hand out; use the degree-proportional primitives below.
  BitsetView neighbors(BuyerId v) const;

  /// Cached degree — O(1), computed at construction (GWMIN scores it in a
  /// loop; recomputing neighbors(v).count() was a word scan per call).
  std::size_t degree(BuyerId v) const {
    check_vertex(v);
    return degrees_data()[static_cast<std::size_t>(v)];
  }

  /// The per-vertex degree cache, valid while the graph lives.
  std::span<const std::uint32_t> degrees() const {
    return {degrees_data(), num_vertices_};
  }

  /// Borrowed view of the CSR arrays, valid while the graph lives. Requires
  /// a kCsr graph (the snapshot writer stores dense graphs as their row
  /// block instead).
  CsrView csr_export() const;

  /// The dense row block: num_vertices rows of ⌈num_vertices/64⌉ words, row
  /// v at word v·⌈num_vertices/64⌉, each in DynamicBitset::words() layout.
  /// Valid while the graph lives. Requires a kDense graph.
  std::span<const std::uint64_t> dense_rows() const;

  /// A dense graph whose adjacency reads THROUGH `rows` (a block in
  /// dense_rows() layout) and whose degree cache is `degrees` — no copy, no
  /// per-edge replay: this is how the snapshot reader restores dense
  /// channels. The caller guarantees the memory (typically an mmap'd
  /// snapshot) outlives the graph, and a valid adjacency: symmetric, no
  /// diagonal or padding bit, degrees[v] equal to row v's popcount (the
  /// reader verifies everything but symmetry, which the file checksum
  /// covers).
  static InterferenceGraph from_dense_view(
      std::size_t num_vertices, std::span<const std::uint64_t> rows,
      std::span<const std::uint32_t> degrees);

  /// A kCsr graph whose adjacency reads THROUGH `view`'s pointers — no
  /// copy. The caller guarantees the pointed-to memory (typically an
  /// mmap'd snapshot) outlives the graph. `view` must be structurally valid
  /// (the snapshot reader checksum- and bounds-verifies before calling).
  static InterferenceGraph from_csr_view(const CsrView& view);

  /// True when the adjacency reads through borrowed memory (from_dense_view
  /// or from_csr_view) rather than owned arrays. Copies never borrow.
  bool view_backed() const { return ext_degrees_ != nullptr; }

  /// Largest vertex degree; 0 for the edgeless graph. O(1).
  std::size_t max_degree() const { return max_degree_; }

  /// True iff no two set bits in `members` are adjacent.
  bool is_independent(const DynamicBitset& members) const;

  /// True iff `v` has no neighbour inside `members` (v itself may be in it).
  /// Dense: one word-parallel intersection; CSR: O(deg(v)) with early exit.
  bool is_compatible(BuyerId v, const DynamicBitset& members) const {
    check_vertex(v);
    SPECMATCH_CHECK(members.size() == num_vertices_);
    if (rep_ == GraphRep::kDense) return !row(v).intersects(members);
    bool compatible = true;
    visit_row(v, [&](std::size_t u) {
      if (members.test(u)) {
        compatible = false;
        return false;
      }
      return true;
    });
    return compatible;
  }

  /// Calls `fn(u)` for every neighbour u of `v`, ascending. The ascending
  /// order is part of the contract: GWMIN2 sums neighbour weights in
  /// iteration order and the two representations must agree bit-for-bit.
  template <typename Fn>
  void for_each_neighbor(BuyerId v, Fn&& fn) const {
    check_vertex(v);
    if (rep_ == GraphRep::kDense) {
      row(v).for_each_set(fn);
      return;
    }
    visit_row(v, [&](std::size_t u) {
      fn(u);
      return true;
    });
  }

  /// Calls `fn(u)` for every neighbour u of `v` with mask.test(u), ascending
  /// (same bit-for-bit contract as for_each_neighbor).
  template <typename Fn>
  void for_each_neighbor_in(BuyerId v, const DynamicBitset& mask,
                            Fn&& fn) const {
    check_vertex(v);
    SPECMATCH_CHECK(mask.size() == num_vertices_);
    if (rep_ == GraphRep::kDense) {
      row(v).for_each_set_and(mask, fn);
      return;
    }
    visit_row(v, [&](std::size_t u) {
      if (mask.test(u)) fn(u);
      return true;
    });
  }

  /// |N(v) ∩ mask| — the degree of `v` inside `mask`. Dense graphs answer
  /// with one fused and-popcount kernel pass over the adjacency row.
  std::size_t degree_in(BuyerId v, const DynamicBitset& mask) const {
    check_vertex(v);
    SPECMATCH_CHECK(mask.size() == num_vertices_);
    if (rep_ == GraphRep::kDense) return row(v).intersection_count(mask);
    std::size_t count = 0;
    visit_row(v, [&](std::size_t u) {
      count += mask.test(u) ? 1 : 0;
      return true;
    });
    return count;
  }

  /// True iff every neighbour of `v` is inside `mask`.
  bool neighbors_subset_of(BuyerId v, const DynamicBitset& mask) const {
    check_vertex(v);
    SPECMATCH_CHECK(mask.size() == num_vertices_);
    if (rep_ == GraphRep::kDense) return row(v).is_subset_of(mask);
    bool subset = true;
    visit_row(v, [&](std::size_t u) {
      if (!mask.test(u)) {
        subset = false;
        return false;
      }
      return true;
    });
    return subset;
  }

  /// out = N(v) ∩ mask (out is resized to the vertex count).
  void neighbors_in(BuyerId v, const DynamicBitset& mask,
                    DynamicBitset& out) const {
    check_vertex(v);
    SPECMATCH_CHECK(mask.size() == num_vertices_);
    if (rep_ == GraphRep::kDense) {
      out.assign_and(row(v), mask);
      return;
    }
    out.assign_zero(num_vertices_);
    visit_row(v, [&](std::size_t u) {
      if (mask.test(u)) out.set(u);
      return true;
    });
  }

  /// set |= N(v).
  void add_neighbors_to(BuyerId v, DynamicBitset& set) const {
    check_vertex(v);
    SPECMATCH_CHECK(set.size() == num_vertices_);
    if (rep_ == GraphRep::kDense) {
      set |= row(v);
      return;
    }
    visit_row(v, [&](std::size_t u) {
      set.set(u);
      return true;
    });
  }

  /// set -= N(v).
  void remove_neighbors_from(BuyerId v, DynamicBitset& set) const {
    check_vertex(v);
    SPECMATCH_CHECK(set.size() == num_vertices_);
    if (rep_ == GraphRep::kDense) {
      set -= row(v);
      return;
    }
    visit_row(v, [&](std::size_t u) {
      set.reset(u);
      return true;
    });
  }

  /// All edges (a < b), ascending — handy for tests and serialisation.
  std::vector<std::pair<BuyerId, BuyerId>> edges() const;

  /// Bytes of the adjacency storage under the current representation (dense
  /// row block, or CSR offsets + flat ids, plus the degree cache), the same
  /// for owned and borrowed storage: mapped pages occupy RSS once touched,
  /// just like owned arrays. The bench's representation-comparison leg
  /// reports this because process RSS cannot attribute memory once the
  /// allocator recycles freed arenas.
  std::size_t adjacency_bytes() const;

  /// Representation-agnostic equality: same vertex count and same edge set
  /// (a dense and a CSR graph over the same edges compare equal).
  bool operator==(const InterferenceGraph& other) const;

  /// The graph's connected-component index, built lazily on first use and
  /// cached for the graph's lifetime (the graph never changes, so nothing
  /// invalidates it). The first call on a given graph must not race other
  /// accesses — the matching engine builds it from the serial prepare path
  /// before any parallel section; thereafter reads are safe.
  const ComponentIndex& components() const;

  /// Heap bytes of the cached component index; 0 when not built.
  std::size_t component_index_bytes() const;

 private:
  void check_vertex(BuyerId v) const {
    SPECMATCH_CHECK_MSG(
        v >= 0 && static_cast<std::size_t>(v) < num_vertices_,
        "vertex " << v << " out of range [0, " << num_vertices_ << ")");
  }

  /// Words per dense row.
  std::size_t row_words() const { return (num_vertices_ + 63) / 64; }

  /// Dense row of `v`, viewed in the row block (owned or borrowed).
  BitsetView row(BuyerId v) const {
    return {dense_data() + static_cast<std::size_t>(v) * row_words(),
            num_vertices_};
  }

  /// CSR row walk, ascending. `fn` returns false to stop early.
  template <typename Fn>
  void visit_row(BuyerId v, Fn&& fn) const {
    const auto vu = static_cast<std::size_t>(v);
    const std::uint32_t* offs = offsets_data();
    const std::size_t begin = offs[vu];
    const std::size_t end = offs[vu + 1];
    if (narrow_) {
      const std::uint16_t* ids = flat16_data();
      for (std::size_t k = begin; k < end; ++k)
        if (!fn(static_cast<std::size_t>(ids[k]))) return;
    } else {
      const std::uint32_t* ids = flat32_data();
      for (std::size_t k = begin; k < end; ++k)
        if (!fn(static_cast<std::size_t>(ids[k]))) return;
    }
  }

  // Row block, CSR array and degree cache access: borrowed snapshot pages
  // when view-backed, the owned vectors otherwise. One predictable branch
  // per row walk.
  const std::uint64_t* dense_data() const {
    return ext_dense_ != nullptr ? ext_dense_ : dense_.data();
  }
  const std::uint32_t* offsets_data() const {
    return ext_offsets_ != nullptr ? ext_offsets_ : offsets_.data();
  }
  const std::uint32_t* degrees_data() const {
    return ext_degrees_ != nullptr ? ext_degrees_ : degrees_.data();
  }
  const std::uint16_t* flat16_data() const {
    return ext_ids16_ != nullptr ? ext_ids16_ : flat16_.data();
  }
  const std::uint32_t* flat32_data() const {
    return ext_ids32_ != nullptr ? ext_ids32_ : flat32_.data();
  }

  /// True when 16-bit neighbour ids cover every vertex.
  bool narrow_ids() const { return num_vertices_ <= (1u << 16); }

  GraphRep rep_ = GraphRep::kDense;
  bool narrow_ = true;  ///< flat arrays use 16-bit ids
  std::size_t num_vertices_ = 0;
  std::size_t num_edges_ = 0;
  std::size_t max_degree_ = 0;
  std::vector<std::uint32_t> degrees_;  ///< cached at construction

  // kDense storage: num_vertices_ rows of row_words() words, row v at word
  // v·row_words().
  std::vector<std::uint64_t> dense_;

  // kCsr storage: ascending rows concatenated behind an offsets table. One
  // of flat16_/flat32_ is populated according to narrow_.
  std::vector<std::uint32_t> offsets_;  ///< num_vertices_ + 1 row starts
  std::vector<std::uint16_t> flat16_;
  std::vector<std::uint32_t> flat32_;

  // from_dense_view / from_csr_view borrowed pointers (mmap'd snapshot
  // pages). When non-null they supersede the owned vectors above; the copy
  // constructor copies them into owned storage. ext_degrees_ is set whenever
  // the graph borrows.
  const std::uint64_t* ext_dense_ = nullptr;
  const std::uint32_t* ext_offsets_ = nullptr;
  const std::uint32_t* ext_degrees_ = nullptr;
  const std::uint16_t* ext_ids16_ = nullptr;
  const std::uint32_t* ext_ids32_ = nullptr;

  /// Lazily built connected-component index (components()); never copied —
  /// a copy rebuilds its own on first use.
  mutable std::unique_ptr<ComponentIndex> components_;
};

template <typename Visit>
InterferenceGraph InterferenceGraph::from_neighbors(std::size_t num_vertices,
                                                    Visit&& visit) {
  InterferenceGraph g(num_vertices, num_vertices <= dense_max()
                                        ? GraphRep::kDense
                                        : GraphRep::kCsr);
  std::uint32_t* degrees = g.degrees_.data();
  if (g.rep_ == GraphRep::kDense) {
    for (std::size_t a = 0; a < num_vertices; ++a) {
      std::uint64_t* row = g.dense_.data() + a * g.row_words();
      visit(a, [&](std::size_t b) {
        row[b / 64] |= std::uint64_t{1} << (b % 64);
        ++degrees[a];
      });
    }
  } else {
    for (std::size_t a = 0; a < num_vertices; ++a)
      visit(a, [&](std::size_t) { ++degrees[a]; });
    std::size_t total = 0;
    for (std::size_t v = 0; v < num_vertices; ++v) {
      g.offsets_[v] = static_cast<std::uint32_t>(total);
      total += degrees[v];
      SPECMATCH_CHECK_MSG(total <= std::numeric_limits<std::uint32_t>::max(),
                          "CSR offsets overflow uint32");
    }
    g.offsets_[num_vertices] = static_cast<std::uint32_t>(total);
    std::vector<std::uint32_t> cursor(g.offsets_.begin(),
                                      g.offsets_.end() - 1);
    const auto fill = [&](auto& flat) {
      using Id = typename std::remove_reference_t<decltype(flat)>::value_type;
      flat.resize(total);
      Id* ids = flat.data();
      for (std::size_t a = 0; a < num_vertices; ++a)
        visit(a, [&](std::size_t b) {
          SPECMATCH_DCHECK(cursor[b] < g.offsets_[b + 1]);
          ids[cursor[b]++] = static_cast<Id>(a);
        });
    };
    if (g.narrow_)
      fill(g.flat16_);
    else
      fill(g.flat32_);
    for (std::size_t v = 0; v < num_vertices; ++v)
      SPECMATCH_CHECK_MSG(cursor[v] == g.offsets_[v + 1],
                          "asymmetric neighbour enumeration at vertex " << v);
  }
  std::size_t degree_sum = 0;
  for (std::size_t v = 0; v < num_vertices; ++v) {
    degree_sum += degrees[v];
    g.max_degree_ = std::max<std::size_t>(g.max_degree_, degrees[v]);
  }
  g.num_edges_ = degree_sum / 2;
  return g;
}

/// Rebuilds `graph` under `rep` (same vertices, same edges). Used by the
/// dense-vs-CSR property tests and the bench comparison leg.
InterferenceGraph with_representation(const InterferenceGraph& graph,
                                      GraphRep rep);

}  // namespace specmatch::graph
