#include "store/market_store.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <utility>

#include "common/check.hpp"
#include "common/config.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "graph/generators.hpp"

namespace specmatch::store {

namespace {

namespace fs = std::filesystem;

bool safe_id_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
}

constexpr char kHexDigits[] = "0123456789ABCDEF";
constexpr const char* kExtension = ".spms";       ///< state file
constexpr const char* kGraphExtension = ".spmg";  ///< graph file

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

/// Accumulates a graph identity: one checksum64 per array, then one over
/// the list, so array boundaries count.
class DigestBuilder {
 public:
  void add_bytes(const void* data, std::size_t bytes) {
    parts_.push_back(checksum64(data, bytes));
  }
  template <typename T>
  void add(std::span<const T> values) {
    add_bytes(values.data(), values.size_bytes());
  }
  void add_word(std::uint64_t word) { parts_.push_back(word); }
  std::uint64_t finish() const {
    return checksum64(parts_.data(), parts_.size() * sizeof(std::uint64_t));
  }

 private:
  std::vector<std::uint64_t> parts_;
};

static_assert(sizeof(int) == sizeof(std::int32_t),
              "scenario counts are written and digested as int32");

/// The section of `kind`, which must hold `count` elements.
const SectionEntry& require_count(const MappedSnapshot& snap, SectionKind kind,
                                  std::size_t count) {
  const SectionEntry& entry = snap.require(kind);
  if (entry.count != count)
    throw SnapshotError("snapshot " + snap.path() + ": section kind " +
                        std::to_string(static_cast<std::uint32_t>(kind)) +
                        " holds " + std::to_string(entry.count) +
                        " elements, expected " + std::to_string(count));
  return entry;
}

std::string hex64(std::uint64_t value) {
  std::string out = "0x";
  for (int shift = 60; shift >= 0; shift -= 4)
    out.push_back(kHexDigits[(value >> shift) & 0xF]);
  return out;
}

/// Rebuilds one channel graph from its snapshot sections, under the
/// representation it spilled with, reading its adjacency in place: dense
/// rows and CSR arrays alike are borrowed from the mapping, never copied.
/// Nothing out of range leaves here: every later consumer indexes bitsets
/// and price rows with these values.
graph::InterferenceGraph load_graph(const MappedSnapshot& snap,
                                    const GraphMetaRecord& meta,
                                    std::size_t num_vertices,
                                    ChannelId channel) {
  const auto fail = [&](const std::string& what) {
    throw SnapshotError("snapshot " + snap.path() + ": channel " +
                        std::to_string(channel) + ": " + what);
  };
  const std::size_t n = num_vertices;
  // A blob sub-array is read in place as a typed array, so it must start on
  // the alignment the writer gives it.
  const auto sub_array = [&](SectionKind kind, std::uint64_t offset,
                             std::uint64_t bytes) {
    if (offset % kSectionAlign != 0)
      fail("sub-array offset " + std::to_string(offset) + " in section kind " +
           std::to_string(static_cast<std::uint32_t>(kind)) +
           " is not " + std::to_string(kSectionAlign) + "-byte aligned");
    return snap.section_bytes(snap.require(kind), offset, bytes);
  };

  const bool dense =
      meta.rep == static_cast<std::uint32_t>(graph::GraphRep::kDense);
  if (!dense && meta.rep != static_cast<std::uint32_t>(graph::GraphRep::kCsr))
    fail("unknown representation " + std::to_string(meta.rep));
  // Bounding the counts first keeps 2 * num_edges and every byte length
  // below from wrapping.
  if (meta.num_edges > n * n) fail("edge count exceeds n²");
  if (meta.max_degree >= std::max<std::size_t>(n, 1))
    fail("max degree " + std::to_string(meta.max_degree) +
         " out of range for " + std::to_string(n) + " vertices");
  const std::size_t total = 2 * static_cast<std::size_t>(meta.num_edges);

  const auto* degrees = reinterpret_cast<const std::uint32_t*>(sub_array(
      SectionKind::kGraphDegrees, meta.degrees_off, n * sizeof(std::uint32_t)));
  std::size_t degree_sum = 0;
  std::size_t max_degree = 0;
  for (std::size_t v = 0; v < n; ++v) {
    degree_sum += degrees[v];
    max_degree = std::max<std::size_t>(max_degree, degrees[v]);
  }
  if (degree_sum != total) fail("cached degrees disagree with the edge count");
  if (max_degree != meta.max_degree)
    fail("max degree disagrees with the cached degrees");

  if (dense) {
    const std::size_t words_per_row = (n + 63) / 64;
    const auto* rows = reinterpret_cast<const std::uint64_t*>(
        sub_array(SectionKind::kGraphRows, meta.rows_off,
                  n * words_per_row * sizeof(std::uint64_t)));
    const std::uint64_t tail_mask =
        n % 64 == 0 ? 0 : ~std::uint64_t{0} << (n % 64);
    for (std::size_t v = 0; v < n; ++v) {
      const std::uint64_t* row = rows + v * words_per_row;
      if ((row[words_per_row - 1] & tail_mask) != 0)
        fail("row " + std::to_string(v) + " sets a padding bit past vertex " +
             std::to_string(n - 1));
      if ((row[v / 64] >> (v % 64)) & 1u)
        fail("row " + std::to_string(v) + " sets its own diagonal bit");
      if (simd::popcount_words(row, words_per_row) != degrees[v])
        fail("cached degree of vertex " + std::to_string(v) +
             " disagrees with its row popcount");
    }
    return graph::InterferenceGraph::from_dense_view(
        n, {rows, n * words_per_row}, {degrees, n});
  }

  const bool narrow = meta.narrow != 0;
  if (narrow != (n <= (std::size_t{1} << 16)))
    fail("neighbour-id width disagrees with the vertex count");
  const auto* offsets = reinterpret_cast<const std::uint32_t*>(
      sub_array(SectionKind::kGraphOffsets, meta.offsets_off,
                (n + 1) * sizeof(std::uint32_t)));
  const std::size_t id_bytes =
      narrow ? sizeof(std::uint16_t) : sizeof(std::uint32_t);
  const std::byte* ids_raw =
      sub_array(SectionKind::kGraphIds, meta.ids_off, total * id_bytes);

  if (offsets[0] != 0 || offsets[n] != total)
    fail("CSR offsets do not cover the neighbour array");
  for (std::size_t v = 0; v < n; ++v) {
    if (offsets[v] > offsets[v + 1]) fail("CSR offsets are not monotone");
    if (degrees[v] != offsets[v + 1] - offsets[v])
      fail("cached degree disagrees with the CSR row length");
  }
  // Rows must ascend strictly (the iteration-order contract, and has_edge's
  // binary search) and never name their own vertex.
  const auto check_ids = [&](const auto* ids) {
    for (std::size_t v = 0; v < n; ++v)
      for (std::size_t k = offsets[v]; k < offsets[v + 1]; ++k) {
        const auto u = static_cast<std::size_t>(ids[k]);
        if (u >= n)
          fail("neighbour id " + std::to_string(u) + " out of range [0, " +
               std::to_string(n) + ")");
        if (u == v) fail("row " + std::to_string(v) + " lists itself");
        if (k > offsets[v] && u <= static_cast<std::size_t>(ids[k - 1]))
          fail("row " + std::to_string(v) + " is not strictly ascending");
      }
  };

  graph::CsrView view;
  view.num_vertices = n;
  view.num_edges = meta.num_edges;
  view.max_degree = meta.max_degree;
  view.narrow = narrow;
  view.offsets = offsets;
  view.degrees = degrees;
  if (narrow) {
    view.ids16 = reinterpret_cast<const std::uint16_t*>(ids_raw);
    check_ids(view.ids16);
  } else {
    view.ids32 = reinterpret_cast<const std::uint32_t*>(ids_raw);
    check_ids(view.ids32);
  }
  return graph::InterferenceGraph::from_csr_view(view);
}

}  // namespace

StoreConfig StoreConfig::from_env() {
  StoreConfig config;
  if (const char* dir = std::getenv("SPECMATCH_STORE_DIR");
      dir != nullptr && dir[0] != '\0')
    config.dir = dir;
  config.sync = env_flag("SPECMATCH_STORE_FSYNC");
  return config;
}

std::string encode_market_id(const std::string& id) {
  std::string out;
  out.reserve(id.size());
  for (const char c : id) {
    if (safe_id_char(c)) {
      out.push_back(c);
    } else {
      const auto b = static_cast<unsigned char>(c);
      out.push_back('%');
      out.push_back(kHexDigits[b >> 4]);
      out.push_back(kHexDigits[b & 0xF]);
    }
  }
  return out;
}

std::string decode_market_id(const std::string& stem) {
  std::string out;
  out.reserve(stem.size());
  for (std::size_t k = 0; k < stem.size(); ++k) {
    if (stem[k] == '%' && k + 2 < stem.size()) {
      const int hi = hex_value(stem[k + 1]);
      const int lo = hex_value(stem[k + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi * 16 + lo));
        k += 2;
        continue;
      }
    }
    out.push_back(stem[k]);
  }
  return out;
}

std::uint64_t graph_digest(const MarketStateView& state) {
  SPECMATCH_CHECK_MSG(state.market != nullptr && state.scenario != nullptr,
                      "snapshot needs a market and its scenario");
  const market::Scenario& scenario = *state.scenario;
  DigestBuilder digest;
  digest.add(std::span<const int>(scenario.seller_channel_counts));
  digest.add(std::span<const int>(scenario.buyer_demands));
  digest.add_bytes(scenario.buyer_locations.data(),
                   scenario.buyer_locations.size() * sizeof(graph::Point));
  digest.add(std::span<const double>(scenario.channel_ranges));
  digest.add(std::span<const double>(scenario.utilities));
  digest.add(std::span<const double>(scenario.channel_reserves));
  for (ChannelId i = 0; i < state.market->num_channels(); ++i) {
    const graph::InterferenceGraph& g = state.market->graph(i);
    digest.add_word(static_cast<std::uint32_t>(g.representation()));
    digest.add_word(g.num_edges());
  }
  return digest.finish();
}

namespace {

SnapshotHeader header_of(FileKind kind, const market::SpectrumMarket& market,
                         std::uint64_t digest) {
  SnapshotHeader header;
  header.kind = static_cast<std::uint32_t>(kind);
  header.num_channels = static_cast<std::uint32_t>(market.num_channels());
  header.num_buyers = static_cast<std::uint32_t>(market.num_buyers());
  header.graph_digest = digest;
  return header;
}

SnapshotImage build_state_image(const MarketStateView& state,
                                std::uint64_t digest) {
  const market::SpectrumMarket& market = *state.market;
  const auto m = static_cast<std::size_t>(market.num_channels());
  const auto n = static_cast<std::size_t>(market.num_buyers());
  SPECMATCH_CHECK(state.base_prices.size() == m * n);
  SPECMATCH_CHECK(state.active.size() == n);
  SPECMATCH_CHECK(state.dirty.size() == n);
  SPECMATCH_CHECK(state.matching.size() == n);

  // Every section borrows its payload: the resident arrays themselves.
  SnapshotBuilder builder;
  builder.add_array<double>(SectionKind::kPrices, market.prices());
  builder.add_array<double>(SectionKind::kBasePrices, state.base_prices);
  builder.add_array<std::uint8_t>(SectionKind::kActive, state.active);
  builder.add_array<std::uint8_t>(SectionKind::kDirty, state.dirty);
  builder.add_array<std::int32_t>(SectionKind::kMatching, state.matching);
  builder.add_section(SectionKind::kCounters, state.counters.data(),
                      state.counters.size() * sizeof(std::int64_t),
                      state.counters.size());

  SnapshotHeader header = header_of(FileKind::kState, market, digest);
  if (state.has_matching) header.flags |= kFlagHasMatching;
  if (state.dirty_valid) header.flags |= kFlagDirtyValid;
  return builder.finish(header);
}

SnapshotImage build_graph_image(const MarketStateView& state,
                                std::uint64_t digest) {
  const market::SpectrumMarket& market = *state.market;
  const auto m = static_cast<std::size_t>(market.num_channels());
  const auto n = static_cast<std::size_t>(market.num_buyers());

  // Every section borrows its payload: the resident arrays themselves, or
  // the small gathered arrays below, which outlive finish().
  SnapshotBuilder builder;
  std::vector<double> reserves(m);
  for (ChannelId i = 0; i < market.num_channels(); ++i)
    reserves[static_cast<std::size_t>(i)] = market.reserve(i);
  builder.add_array<double>(SectionKind::kReserves, reserves);

  std::vector<std::int32_t> buyer_parents(n);
  for (BuyerId j = 0; j < market.num_buyers(); ++j)
    buyer_parents[static_cast<std::size_t>(j)] = market.buyer_parent(j);
  builder.add_array<std::int32_t>(SectionKind::kBuyerParents, buyer_parents);
  std::vector<std::int32_t> seller_parents(m);
  for (ChannelId i = 0; i < market.num_channels(); ++i)
    seller_parents[static_cast<std::size_t>(i)] = market.seller_parent(i);
  builder.add_array<std::int32_t>(SectionKind::kSellerParents, seller_parents);

  const market::Scenario& scenario = *state.scenario;
  builder.add_array<int>(SectionKind::kScenarioSellerCounts,
                         std::span<const int>(scenario.seller_channel_counts));
  builder.add_array<int>(SectionKind::kScenarioBuyerDemands,
                         std::span<const int>(scenario.buyer_demands));
  static_assert(sizeof(graph::Point) == 2 * sizeof(double),
                "locations are written as flat (x, y) pairs");
  builder.add_section(SectionKind::kScenarioLocations,
                      scenario.buyer_locations.data(),
                      scenario.buyer_locations.size() * sizeof(graph::Point),
                      2 * scenario.buyer_locations.size());
  builder.add_array<double>(SectionKind::kScenarioRanges,
                            std::span<const double>(scenario.channel_ranges));
  builder.add_array<double>(SectionKind::kScenarioUtilities,
                            std::span<const double>(scenario.utilities));
  builder.add_array<double>(
      SectionKind::kScenarioReserves,
      std::span<const double>(scenario.channel_reserves));

  // The adjacency: every channel's degree cache, then CSR channels' offsets
  // and ids as they lie in memory, and dense channels' row blocks word for
  // word — each stored under its resident representation, with no
  // conversion. Each
  // channel's sub-array starts kSectionAlign-aligned inside its blob. The
  // meta records are filled in as the pieces land, before finish() copies
  // them.
  std::vector<GraphMetaRecord> meta(m);
  builder.add_section(SectionKind::kGraphMeta, meta.data(),
                      meta.size() * sizeof(GraphMetaRecord), meta.size());
  builder.begin_section(SectionKind::kGraphDegrees);
  for (ChannelId i = 0; i < market.num_channels(); ++i) {
    const graph::InterferenceGraph& g = market.graph(i);
    GraphMetaRecord& record = meta[static_cast<std::size_t>(i)];
    record.rep = static_cast<std::uint32_t>(g.representation());
    record.num_edges = g.num_edges();
    record.max_degree = g.max_degree();
    record.degrees_off =
        builder.add_piece(g.degrees().data(), g.degrees().size_bytes());
  }
  builder.begin_section(SectionKind::kGraphOffsets);
  for (ChannelId i = 0; i < market.num_channels(); ++i) {
    const graph::InterferenceGraph& g = market.graph(i);
    if (g.representation() != graph::GraphRep::kCsr) continue;
    const graph::CsrView view = g.csr_export();
    meta[static_cast<std::size_t>(i)].offsets_off = builder.add_piece(
        view.offsets, (n + 1) * sizeof(std::uint32_t));
  }
  builder.begin_section(SectionKind::kGraphIds);
  for (ChannelId i = 0; i < market.num_channels(); ++i) {
    const graph::InterferenceGraph& g = market.graph(i);
    if (g.representation() != graph::GraphRep::kCsr) continue;
    const graph::CsrView view = g.csr_export();
    GraphMetaRecord& record = meta[static_cast<std::size_t>(i)];
    record.narrow = view.narrow ? 1 : 0;
    const std::size_t total = 2 * view.num_edges;
    record.ids_off =
        view.narrow
            ? builder.add_piece(view.ids16, total * sizeof(std::uint16_t))
            : builder.add_piece(view.ids32, total * sizeof(std::uint32_t));
  }
  builder.begin_section(SectionKind::kGraphRows);
  for (ChannelId i = 0; i < market.num_channels(); ++i) {
    const graph::InterferenceGraph& g = market.graph(i);
    if (g.representation() != graph::GraphRep::kDense) continue;
    const auto rows = g.dense_rows();
    meta[static_cast<std::size_t>(i)].rows_off =
        builder.add_piece(rows.data(), rows.size_bytes());
  }
  return builder.finish(header_of(FileKind::kGraph, market, digest));
}

/// The graph-file half of a load: scenario, parents, reserves and graphs,
/// with the digest in the header checked against the contents.
struct LoadedGraphs {
  std::shared_ptr<const market::Scenario> scenario;
  std::vector<graph::InterferenceGraph> graphs;
  std::vector<int> buyer_parents;
  std::vector<int> seller_parents;
  std::vector<double> reserves;
};

LoadedGraphs load_graph_file(const MappedSnapshot& snap) {
  const auto fail = [&](const std::string& what) {
    throw SnapshotError("snapshot " + snap.path() + ": " + what);
  };
  const SnapshotHeader& header = snap.header();
  const auto m = static_cast<std::size_t>(header.num_channels);
  const auto n = static_cast<std::size_t>(header.num_buyers);
  LoadedGraphs out;

  const auto reserves =
      snap.array<double>(require_count(snap, SectionKind::kReserves, m));
  const auto buyer_parents = snap.array<std::int32_t>(
      require_count(snap, SectionKind::kBuyerParents, n));
  const auto seller_parents = snap.array<std::int32_t>(
      require_count(snap, SectionKind::kSellerParents, m));
  out.reserves.assign(reserves.begin(), reserves.end());
  out.buyer_parents.assign(buyer_parents.begin(), buyer_parents.end());
  out.seller_parents.assign(seller_parents.begin(), seller_parents.end());

  // Scenario (owned copies: its vectors are std:: containers either way).
  const auto counts = snap.array<std::int32_t>(
      snap.require(SectionKind::kScenarioSellerCounts));
  const auto demands = snap.array<std::int32_t>(
      snap.require(SectionKind::kScenarioBuyerDemands));
  const auto locations =
      snap.array<double>(snap.require(SectionKind::kScenarioLocations));
  const auto ranges =
      snap.array<double>(require_count(snap, SectionKind::kScenarioRanges, m));
  const auto utilities = snap.array<double>(
      require_count(snap, SectionKind::kScenarioUtilities, m * n));
  const auto scen_reserves =
      snap.array<double>(snap.require(SectionKind::kScenarioReserves));
  if (locations.size() != 2 * demands.size())
    fail("scenario locations disagree with the parent-buyer count");
  auto scenario = std::make_shared<market::Scenario>();
  scenario->seller_channel_counts.assign(counts.begin(), counts.end());
  scenario->buyer_demands.assign(demands.begin(), demands.end());
  scenario->buyer_locations.resize(demands.size());
  for (std::size_t b = 0; b < demands.size(); ++b)
    scenario->buyer_locations[b] =
        graph::Point{locations[2 * b], locations[2 * b + 1]};
  scenario->channel_ranges.assign(ranges.begin(), ranges.end());
  scenario->utilities.assign(utilities.begin(), utilities.end());
  scenario->channel_reserves.assign(scen_reserves.begin(),
                                    scen_reserves.end());
  try {
    scenario->validate();
    if (scenario->num_channels() != static_cast<int>(m) ||
        scenario->num_virtual_buyers() != static_cast<int>(n))
      fail("scenario dimensions disagree with the header");
  } catch (const CheckError& e) {
    fail(std::string("inconsistent scenario: ") + e.what());
  }
  out.scenario = std::move(scenario);

  // One channel per engine lane: each task checks and points only its own
  // slot. A failing channel records its error instead of throwing, and the
  // lowest channel's error is rethrown, so a file with several defects
  // names the same one at any lane count (the pool itself would rethrow the
  // lowest lane's, which depends on scheduling).
  const auto meta = snap.array<GraphMetaRecord>(
      require_count(snap, SectionKind::kGraphMeta, m));
  out.graphs.resize(m);
  std::vector<std::exception_ptr> errors(m);
  parallel_for(0, m, [&](std::size_t i) {
    try {
      out.graphs[i] = load_graph(snap, meta[i], n, static_cast<ChannelId>(i));
    } catch (...) {
      errors[i] = std::current_exception();
    }
  });
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);

  // The header's digest is outside the checksum: recompute it from the
  // contents, so a graph file only ever answers to its own identity.
  DigestBuilder digest;
  digest.add(counts);
  digest.add(demands);
  digest.add(locations);
  digest.add(ranges);
  digest.add(utilities);
  digest.add(scen_reserves);
  for (const GraphMetaRecord& record : meta) {
    digest.add_word(record.rep);
    digest.add_word(record.num_edges);
  }
  if (digest.finish() != header.graph_digest)
    fail("graph digest " + hex64(header.graph_digest) +
         " in the header disagrees with the contents (" +
         hex64(digest.finish()) + ")");
  return out;
}

}  // namespace

SnapshotImage build_snapshot_image(const MarketStateView& state) {
  return build_state_image(state, graph_digest(state));
}

SnapshotImage build_graph_image(const MarketStateView& state) {
  return build_graph_image(state, graph_digest(state));
}

LoadedMarket load_market(std::shared_ptr<MappedSnapshot> state,
                         std::shared_ptr<MappedSnapshot> graphs) {
  const MappedSnapshot& snap = *state;
  const SnapshotHeader& header = snap.header();
  const SnapshotHeader& graph_header = graphs->header();
  const auto fail_pair = [&](const std::string& what) {
    throw SnapshotError("snapshot pair (state " + snap.path() + ", graph " +
                        graphs->path() + "): " + what);
  };
  if (header.kind != static_cast<std::uint32_t>(FileKind::kState))
    fail_pair(snap.path() + " is a graph file, not a state file");
  if (graph_header.kind != static_cast<std::uint32_t>(FileKind::kGraph))
    fail_pair(graphs->path() + " is a state file, not a graph file");
  if (header.graph_digest != graph_header.graph_digest)
    fail_pair("the state file names graph " + hex64(header.graph_digest) +
              " but the graph file is " + hex64(graph_header.graph_digest) +
              ": they belong to different markets or spills");
  if (header.num_channels != graph_header.num_channels ||
      header.num_buyers != graph_header.num_buyers)
    fail_pair("the files disagree on the market dimensions");
  const auto m = static_cast<std::size_t>(header.num_channels);
  const auto n = static_cast<std::size_t>(header.num_buyers);
  if (m == 0 || n == 0) fail_pair("empty market dimensions");

  LoadedGraphs loaded = load_graph_file(*graphs);

  const auto fail = [&](const std::string& what) {
    throw SnapshotError("snapshot " + snap.path() + ": " + what);
  };
  LoadedMarket out;
  out.has_matching = (header.flags & kFlagHasMatching) != 0;
  out.dirty_valid = (header.flags & kFlagDirtyValid) != 0;
  const auto prices =
      snap.array<double>(require_count(snap, SectionKind::kPrices, m * n));
  const auto base =
      snap.array<double>(require_count(snap, SectionKind::kBasePrices, m * n));
  const auto active =
      snap.array<std::uint8_t>(require_count(snap, SectionKind::kActive, n));
  const auto dirty =
      snap.array<std::uint8_t>(require_count(snap, SectionKind::kDirty, n));
  const auto matching = snap.array<std::int32_t>(
      require_count(snap, SectionKind::kMatching, n));
  const auto counters = snap.array<std::int64_t>(
      require_count(snap, SectionKind::kCounters, kNumCounters));
  for (std::size_t j = 0; j < n; ++j)
    if (matching[j] < -1 || matching[j] >= static_cast<std::int32_t>(m))
      fail("matching assigns buyer " + std::to_string(j) +
           " to out-of-range seller " + std::to_string(matching[j]));

  try {
    out.market = std::make_unique<market::SpectrumMarket>(
        static_cast<int>(m), static_cast<int>(n),
        std::vector<double>(prices.begin(), prices.end()),
        std::move(loaded.graphs), std::move(loaded.buyer_parents),
        std::move(loaded.seller_parents), std::move(loaded.reserves));
  } catch (const CheckError& e) {
    fail_pair(std::string("inconsistent market sections: ") + e.what());
  }
  out.scenario = std::move(loaded.scenario);
  out.base_prices.assign(base.begin(), base.end());
  out.active.assign(active.begin(), active.end());
  out.dirty.assign(dirty.begin(), dirty.end());
  out.matching.assign(matching.begin(), matching.end());
  std::copy(counters.begin(), counters.end(), out.counters.begin());
  // Every graph reads its adjacency through the graph file's mapping.
  out.backing = std::move(graphs);
  return out;
}

MarketStore::MarketStore(StoreConfig config) : config_(std::move(config)) {
  if (!config_.enabled()) return;
  std::error_code ec;
  fs::create_directories(config_.dir, ec);
  if (ec)
    throw SnapshotError("store directory " + config_.dir +
                        ": cannot create: " + ec.message());
  // Markets are listed by state file; a graph file alone is the residue of
  // a spill cut between its two renames, and the id's next write replaces
  // it. Graph digests start unknown, so that write does not trust it. A
  // stem that is not its id's canonical encoding (say "m%2f" for "m/",
  // whose files are "m%2F.*") is no file of this store's: listing it would
  // name an id that loads and removes other paths.
  for (const auto& entry : fs::directory_iterator(config_.dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const fs::path& p = entry.path();
    if (p.extension() != kExtension) continue;
    const std::string stem = p.stem().string();
    const std::string id = decode_market_id(stem);
    if (encode_market_id(id) != stem) continue;
    OnDisk& on_disk = index_[id];
    on_disk.has_state = true;
    on_disk.state_bytes = static_cast<std::uint64_t>(entry.file_size());
    std::error_code graph_ec;
    const auto graph_bytes = fs::file_size(graph_path_for(id), graph_ec);
    if (!graph_ec) on_disk.graph_bytes = static_cast<std::uint64_t>(graph_bytes);
  }
  if (ec)
    throw SnapshotError("store directory " + config_.dir +
                        ": cannot scan: " + ec.message());
}

std::vector<std::string> MarketStore::ids() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  for (const auto& [id, on_disk] : index_)
    if (on_disk.has_state) out.push_back(id);
  return out;
}

bool MarketStore::contains(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(id);
  return it != index_.end() && it->second.has_state;
}

std::string MarketStore::path_for(const std::string& id) const {
  return (fs::path(config_.dir) / (encode_market_id(id) + kExtension))
      .string();
}

std::string MarketStore::graph_path_for(const std::string& id) const {
  return (fs::path(config_.dir) / (encode_market_id(id) + kGraphExtension))
      .string();
}

std::uint64_t MarketStore::write(const std::string& id,
                                 const MarketStateView& state) {
  SPECMATCH_CHECK_MSG(enabled(), "market store has no directory configured");
  const std::uint64_t digest = graph_digest(state);
  bool graphs_on_disk = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(id);
    graphs_on_disk = it != index_.end() && it->second.graph_digest == digest;
  }
  // Graph file first: a state file is never on disk before the graph file
  // it names.
  if (!graphs_on_disk) {
    const std::uint64_t bytes = write_snapshot_file(
        graph_path_for(id), build_graph_image(state, digest), config_.sync);
    std::lock_guard<std::mutex> lock(mutex_);
    OnDisk& on_disk = index_[id];
    on_disk.graph_bytes = bytes;
    on_disk.graph_digest = digest;
  }
  const std::uint64_t bytes = write_snapshot_file(
      path_for(id), build_state_image(state, digest), config_.sync);
  std::lock_guard<std::mutex> lock(mutex_);
  OnDisk& on_disk = index_[id];
  on_disk.has_state = true;
  on_disk.state_bytes = bytes;
  return on_disk.state_bytes + on_disk.graph_bytes;
}

LoadedMarket MarketStore::load(const std::string& id) const {
  SPECMATCH_CHECK_MSG(enabled(), "market store has no directory configured");
  try {
    auto graphs = std::make_shared<MappedSnapshot>(graph_path_for(id));
    const std::uint64_t digest = graphs->header().graph_digest;
    LoadedMarket out = load_market(
        std::make_shared<MappedSnapshot>(path_for(id)), std::move(graphs));
    // The pair verified: the graph file on disk is this market's own, so the
    // next spill of the unchanged market can skip it.
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = index_.find(id); it != index_.end())
      it->second.graph_digest = digest;
    return out;
  } catch (const SnapshotError&) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = index_.find(id); it != index_.end())
      it->second.graph_digest.reset();
    throw;
  }
}

bool MarketStore::remove(const std::string& id) {
  bool listed = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(id);
    if (it != index_.end()) {
      listed = it->second.has_state;
      index_.erase(it);
    }
  }
  std::error_code ec;
  fs::remove(path_for(id), ec);
  fs::remove(graph_path_for(id), ec);
  return listed;
}

std::uint64_t MarketStore::disk_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [id, on_disk] : index_)
    if (on_disk.has_state) total += on_disk.state_bytes + on_disk.graph_bytes;
  return total;
}

std::uint64_t MarketStore::bytes_for(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(id);
  return it == index_.end() || !it->second.has_state
             ? 0
             : it->second.state_bytes + it->second.graph_bytes;
}

}  // namespace specmatch::store
