#include "graph/mwis.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/metrics.hpp"

namespace specmatch::graph {

std::string_view to_string(MwisAlgorithm algorithm) {
  switch (algorithm) {
    case MwisAlgorithm::kGwmin:
      return "gwmin";
    case MwisAlgorithm::kGwmin2:
      return "gwmin2";
    case MwisAlgorithm::kExact:
      return "exact";
  }
  return "unknown";
}

double set_weight(std::span<const double> weights,
                  const DynamicBitset& members) {
  double total = 0.0;
  members.for_each_set([&](std::size_t v) { total += weights[v]; });
  return total;
}

void MwisScratch::reserve(std::size_t n, std::size_t row_entries) {
  viable.assign_zero(n);
  chosen.assign_zero(n);
  local_of.reserve(n);
  member.reserve(n);
  global_of.reserve(n);
  row_start.reserve(n + 1);
  if (rows_capacity < row_entries) {
    rows = std::make_unique_for_overwrite<std::uint32_t[]>(row_entries);
    rows_capacity = row_entries;
  }
  weight.reserve(n);
  live_degree.reserve(n);
  slot.reserve(n);
  queue.reserve(n);
  pending.reserve(n);
  queued.reserve(n);
}

namespace {

/// Per-solve work counters, accumulated locally and flushed to the metrics
/// registry once per solve_mwis call.
struct GreedyWork {
  std::uint64_t picks = 0;        ///< vertices chosen into the set
  std::uint64_t row_entries = 0;  ///< induced adjacency entries
};

/// Grow-only sizing for the per-solve arrays: within a reserved capacity it
/// never allocates, and it never shrinks.
template <typename T>
T* grow(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
  return v.data();
}

/// `slot` value of a local vertex that has left the graph.
constexpr std::uint32_t kGone = 0xffffffffu;

/// Indexed binary max-heap over the surviving local vertices, ordered by
/// score with equal scores surfacing the lowest local id — the textbook
/// rescan's strict-greater, lowest-index-first pick, since local ids keep
/// the global order. slot[v] tracks v's position, so removals and rescores
/// reach an entry directly and no entry ever goes stale. The order is a
/// strict total order on the entries, so the pick sequence does not depend
/// on the heap's internal arrangement.
struct IndexedHeap {
  using Entry = MwisScratch::QueueEntry;

  Entry* q;
  std::uint32_t* slot;
  std::size_t size;

  static bool before(const Entry& a, const Entry& b) {
    return a.score > b.score || (a.score == b.score && a.vertex < b.vertex);
  }

  void place(std::size_t i, const Entry& e) {
    q[i] = e;
    slot[e.vertex] = static_cast<std::uint32_t>(i);
  }

  void sift_up(std::size_t i) {
    const Entry e = q[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!before(e, q[parent])) break;
      place(i, q[parent]);
      i = parent;
    }
    place(i, e);
  }

  void sift_down(std::size_t i) {
    const Entry e = q[i];
    while (true) {
      std::size_t child = 2 * i + 1;
      if (child >= size) break;
      if (child + 1 < size && before(q[child + 1], q[child])) ++child;
      if (!before(q[child], e)) break;
      place(i, q[child]);
      i = child;
    }
    place(i, e);
  }

  /// Floyd heapify of q[0, size).
  void build() {
    for (std::size_t i = size / 2; i-- > 0;) sift_down(i);
  }

  /// Removes the queued vertex v and marks it gone.
  void erase(std::uint32_t v) {
    const std::size_t i = slot[v];
    slot[v] = kGone;
    const Entry last = q[--size];
    if (i == size) return;
    place(i, last);
    if (i > 0 && before(last, q[(i - 1) / 2]))
      sift_up(i);
    else
      sift_down(i);
  }
};

/// The candidate-induced subgraph of one solve, in scratch arrays: local
/// vertex l is the l-th viable candidate in ascending global order, and its
/// row lists its viable neighbours as ascending local ids.
struct LocalGraph {
  std::size_t k = 0;                        ///< vertices
  const std::uint32_t* row_start = nullptr;  ///< k + 1 offsets into rows
  const std::uint32_t* rows = nullptr;
  const double* weight = nullptr;
};

/// Builds the LocalGraph of `s.viable`: one row walk per candidate, keeping
/// only the neighbours that are viable candidates themselves. Dense rows
/// visit row ∩ viable word-parallel; CSR rows are walked branch-free, every
/// neighbour stored and the cursor advanced past the viable ones only, with
/// membership read from a byte per vertex (set for this solve's candidates
/// and cleared again before returning).
LocalGraph induce(const InterferenceGraph& graph,
                  std::span<const double> weights, MwisScratch& s) {
  const std::size_t n = graph.num_vertices();
  const bool dense = graph.representation() == GraphRep::kDense;
  std::uint32_t* local_of = grow(s.local_of, n);
  std::uint8_t* member = dense ? nullptr : grow(s.member, n);
  std::uint32_t* global_of = grow(s.global_of, s.viable.count());
  const std::span<const std::uint32_t> degrees = graph.degrees();
  std::uint32_t k = 0;
  std::size_t entries = 0;  // summed degree: every row write stays inside
  s.viable.for_each_set([&](std::size_t v) {
    local_of[v] = k;
    global_of[k++] = static_cast<std::uint32_t>(v);
    entries += degrees[v];
    if (!dense) member[v] = 1;
  });
  if (s.rows_capacity < entries) {
    s.rows = std::make_unique_for_overwrite<std::uint32_t[]>(entries);
    s.rows_capacity = entries;
  }
  std::uint32_t* row_start = grow(s.row_start, std::size_t{k} + 1);
  std::uint32_t* rows = s.rows.get();
  std::size_t len = 0;
  for (std::uint32_t l = 0; l < k; ++l) {
    row_start[l] = static_cast<std::uint32_t>(len);
    const auto v = static_cast<BuyerId>(global_of[l]);
    if (dense) {
      graph.for_each_neighbor_in(v, s.viable, [&](std::size_t u) {
        rows[len++] = static_cast<std::uint32_t>(u);
      });
    } else {
      graph.for_each_neighbor(v, [&](std::size_t u) {
        rows[len] = static_cast<std::uint32_t>(u);
        len += member[u];
      });
    }
  }
  row_start[k] = static_cast<std::uint32_t>(len);
  if (!dense)
    for (std::uint32_t l = 0; l < k; ++l) member[global_of[l]] = 0;
  // Renumbered after the walk, over the few entries it kept.
  for (std::size_t e = 0; e < len; ++e) rows[e] = local_of[rows[e]];
  double* weight = grow(s.weight, k);
  for (std::uint32_t l = 0; l < k; ++l) weight[l] = weights[global_of[l]];
  return {k, row_start, rows, weight};
}

/// GWMIN and GWMIN2 on the candidate-induced subgraph. Pop the best
/// survivor, remove its closed neighbourhood, and rescore only the
/// survivors adjacent to a removed vertex — once each, however many removed
/// neighbours they had. GWMIN keeps deg_R(v) exact as an integer, so a
/// rescore is one division with the operands the rescan would use. GWMIN2's
/// neighbour-weight sum cannot be maintained by floating-point subtraction
/// without drifting off the reference bits, so a touched survivor is
/// re-summed over its surviving neighbours in ascending order — the
/// rescan's exact sequence of additions. Both scores only grow as
/// neighbours leave (a degree drops; a sum loses positive terms, and
/// rounding is monotone), so a rescore is one sift-up. Every step of a pick
/// is O(local degree); nothing per pick touches the whole graph or all k
/// vertices.
void solve_local(const InterferenceGraph& graph,
                 std::span<const double> weights, MwisAlgorithm algorithm,
                 MwisScratch& s, GreedyWork& work) {
  s.chosen.assign_zero(graph.num_vertices());
  const LocalGraph g = induce(graph, weights, s);
  work.row_entries = g.row_start[g.k];
  if (g.k == 0) return;
  IndexedHeap heap{grow(s.queue, g.k), grow(s.slot, g.k), g.k};
  std::uint32_t* live_degree = grow(s.live_degree, g.k);
  std::uint32_t* pending = grow(s.pending, g.k);
  std::uint8_t* queued = grow(s.queued, g.k);
  std::fill_n(queued, g.k, std::uint8_t{0});
  const auto score = [&](std::uint32_t v) {
    if (algorithm == MwisAlgorithm::kGwmin)
      return g.weight[v] / (static_cast<double>(live_degree[v]) + 1.0);
    double nbr_weight = 0.0;
    for (std::uint32_t e = g.row_start[v]; e < g.row_start[v + 1]; ++e)
      if (heap.slot[g.rows[e]] != kGone) nbr_weight += g.weight[g.rows[e]];
    return g.weight[v] / (g.weight[v] + nbr_weight);
  };
  for (std::uint32_t v = 0; v < g.k; ++v) {
    heap.slot[v] = v;
    live_degree[v] = g.row_start[v + 1] - g.row_start[v];
  }
  for (std::uint32_t v = 0; v < g.k; ++v) heap.q[v] = {score(v), v};
  heap.build();

  while (heap.size > 0) {
    const std::uint32_t v = heap.q[0].vertex;
    heap.erase(v);
    s.chosen.set(s.global_of[v]);
    ++work.picks;
    // v's surviving neighbours leave with it; v's row then has no
    // survivors, so only theirs are walked for rescores.
    std::size_t removed = 0;
    for (std::uint32_t e = g.row_start[v]; e < g.row_start[v + 1]; ++e) {
      const std::uint32_t u = g.rows[e];
      if (heap.slot[u] == kGone) continue;
      heap.erase(u);
      pending[removed++] = u;
    }
    std::size_t end = removed;  // touched survivors follow the removed ones
    for (std::size_t r = 0; r < removed; ++r) {
      const std::uint32_t u = pending[r];
      for (std::uint32_t e = g.row_start[u]; e < g.row_start[u + 1]; ++e) {
        const std::uint32_t w = g.rows[e];
        if (heap.slot[w] == kGone) continue;
        --live_degree[w];
        if (queued[w] == 0) {
          queued[w] = 1;
          pending[end++] = w;
        }
      }
    }
    for (std::size_t t = removed; t < end; ++t) {
      const std::uint32_t w = pending[t];
      queued[w] = 0;
      const std::size_t at = heap.slot[w];
      const double rescored = score(w);
      SPECMATCH_DCHECK(rescored >= heap.q[at].score);
      heap.q[at].score = rescored;
      heap.sift_up(at);
    }
  }
}

/// Fills `scratch.viable` with candidates minus non-positive-weight vertices:
/// they can only dilute a coalition.
void viable_candidates(std::span<const double> weights,
                       const DynamicBitset& candidates, MwisScratch& scratch) {
  scratch.viable = candidates;
  candidates.for_each_set([&](std::size_t v) {
    if (weights[v] <= 0.0) scratch.viable.reset(v);
  });
}

void check_inputs(const InterferenceGraph& graph,
                  std::span<const double> weights,
                  const DynamicBitset& candidates) {
  SPECMATCH_CHECK_MSG(weights.size() == graph.num_vertices(),
                      "weights size " << weights.size() << " != vertices "
                                      << graph.num_vertices());
  SPECMATCH_CHECK(candidates.size() == graph.num_vertices());
}

struct ExactSearch {
  const InterferenceGraph& graph;
  std::span<const double> weights;
  std::uint64_t nodes = 0;
  double best_weight = 0.0;
  DynamicBitset best;

  void run(DynamicBitset remaining, DynamicBitset chosen, double weight) {
    ++nodes;
    if (weight > best_weight) {
      best_weight = weight;
      best = chosen;
    }
    // Admissible bound: take every remaining vertex.
    double bound = weight;
    remaining.for_each_set([&](std::size_t v) { bound += weights[v]; });
    if (bound <= best_weight) return;

    // Branch on the remaining vertex with the highest degree inside
    // `remaining` (fail-first: it prunes the most).
    std::size_t pivot = remaining.size();
    std::size_t pivot_degree = 0;
    bool have_pivot = false;
    remaining.for_each_set([&](std::size_t v) {
      const std::size_t d = graph.degree_in(static_cast<BuyerId>(v), remaining);
      if (!have_pivot || d > pivot_degree) {
        have_pivot = true;
        pivot = v;
        pivot_degree = d;
      }
    });
    if (!have_pivot) return;

    // Include pivot.
    {
      DynamicBitset next = remaining;
      next.reset(pivot);
      graph.remove_neighbors_from(static_cast<BuyerId>(pivot), next);
      DynamicBitset with = chosen;
      with.set(pivot);
      run(std::move(next), std::move(with), weight + weights[pivot]);
    }
    // Exclude pivot.
    {
      DynamicBitset next = remaining;
      next.reset(pivot);
      run(std::move(next), std::move(chosen), weight);
    }
  }
};

}  // namespace

const DynamicBitset& solve_mwis(const InterferenceGraph& graph,
                                std::span<const double> weights,
                                const DynamicBitset& candidates,
                                MwisAlgorithm algorithm, MwisScratch& scratch,
                                MwisStats* stats) {
  check_inputs(graph, weights, candidates);
  viable_candidates(weights, candidates, scratch);

  GreedyWork work;
  const bool counting = metrics::enabled();
  bool solved = false;
  switch (algorithm) {
    case MwisAlgorithm::kGwmin:
    case MwisAlgorithm::kGwmin2:
      solve_local(graph, weights, algorithm, scratch, work);
      solved = true;
      break;
    case MwisAlgorithm::kExact: {
      ExactSearch search{graph, weights, 0, 0.0,
                         DynamicBitset(graph.num_vertices())};
      search.run(scratch.viable, DynamicBitset(graph.num_vertices()), 0.0);
      if (stats != nullptr) stats->nodes_explored = search.nodes;
      if (counting)
        metrics::count("mwis.exact_nodes",
                       static_cast<std::int64_t>(search.nodes));
      work.picks = search.best.count();
      scratch.chosen = search.best;
      solved = true;
      break;
    }
  }
  SPECMATCH_CHECK_MSG(solved, "unreachable MWIS algorithm");
  if (counting) {
    metrics::count("mwis.calls");
    metrics::count("mwis.picks", static_cast<std::int64_t>(work.picks));
    if (algorithm != MwisAlgorithm::kExact)
      metrics::count("mwis.induced_edges",
                     static_cast<std::int64_t>(work.row_entries / 2));
  }
  return scratch.chosen;
}

DynamicBitset solve_mwis(const InterferenceGraph& graph,
                         std::span<const double> weights,
                         const DynamicBitset& candidates,
                         MwisAlgorithm algorithm, MwisStats* stats) {
  MwisScratch scratch;
  solve_mwis(graph, weights, candidates, algorithm, scratch, stats);
  return std::move(scratch.chosen);
}

}  // namespace specmatch::graph
