#include "store/market_store.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/check.hpp"
#include "common/simd.hpp"
#include "graph/generators.hpp"

namespace specmatch::store {

namespace {

namespace fs = std::filesystem;

bool env_flag_default(const char* name, bool fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  return std::string(raw) != "0";
}

bool safe_id_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
}

constexpr char kHexDigits[] = "0123456789ABCDEF";
constexpr const char* kExtension = ".spms";

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

/// Rebuilds one channel graph from its snapshot sections, under the
/// representation it spilled with. CSR channels get a zero-copy view into
/// the mapping; dense channels get their bitset rows copied word for word.
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
    return graph::InterferenceGraph::from_dense_rows(
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
  config.spill = env_flag_default("SPECMATCH_STORE_SPILL", true);
  config.sync = env_flag_default("SPECMATCH_STORE_FSYNC", false);
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

SnapshotImage build_snapshot_image(const MarketStateView& state) {
  SPECMATCH_CHECK_MSG(state.market != nullptr && state.scenario != nullptr,
                      "snapshot needs a market and its scenario");
  const market::SpectrumMarket& market = *state.market;
  const auto m = static_cast<std::size_t>(market.num_channels());
  const auto n = static_cast<std::size_t>(market.num_buyers());
  SPECMATCH_CHECK(state.base_prices.size() == m * n);
  SPECMATCH_CHECK(state.active.size() == n);
  SPECMATCH_CHECK(state.dirty.size() == n);
  SPECMATCH_CHECK(state.matching.size() == n);

  // Every section borrows its payload: the resident arrays themselves, or
  // the small gathered arrays below, which outlive finish().
  SnapshotBuilder builder;
  builder.add_array<double>(SectionKind::kPrices, market.prices());
  builder.add_array<double>(SectionKind::kBasePrices, state.base_prices);

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

  builder.add_array<std::uint8_t>(SectionKind::kActive, state.active);
  builder.add_array<std::uint8_t>(SectionKind::kDirty, state.dirty);
  builder.add_array<std::int32_t>(SectionKind::kMatching, state.matching);
  builder.add_section(SectionKind::kCounters, state.counters.data(),
                      state.counters.size() * sizeof(std::int64_t),
                      state.counters.size());

  const market::Scenario& scenario = *state.scenario;
  builder.add_array<std::int32_t>(
      SectionKind::kScenarioSellerCounts,
      std::span<const std::int32_t>(
          reinterpret_cast<const std::int32_t*>(
              scenario.seller_channel_counts.data()),
          scenario.seller_channel_counts.size()));
  builder.add_array<std::int32_t>(
      SectionKind::kScenarioBuyerDemands,
      std::span<const std::int32_t>(
          reinterpret_cast<const std::int32_t*>(scenario.buyer_demands.data()),
          scenario.buyer_demands.size()));
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
  // and ids as finalized, and dense channels' bitset rows word for word —
  // each stored under its resident representation, with no conversion. Each
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
    for (BuyerId v = 0; v < market.num_buyers(); ++v) {
      const auto words = g.neighbors(v).words();
      // Row 0 opens the channel's aligned sub-array; the rest pack behind it.
      const std::uint64_t at = builder.add_piece(
          words.data(), words.size_bytes(),
          v == 0 ? kSectionAlign : sizeof(std::uint64_t));
      if (v == 0) meta[static_cast<std::size_t>(i)].rows_off = at;
    }
  }

  std::uint32_t flags = 0;
  if (state.has_matching) flags |= kFlagHasMatching;
  if (state.dirty_valid) flags |= kFlagDirtyValid;
  return builder.finish(static_cast<std::uint32_t>(m),
                        static_cast<std::uint32_t>(n), flags);
}

LoadedMarket load_market(std::shared_ptr<MappedSnapshot> snapshot) {
  const MappedSnapshot& snap = *snapshot;
  const auto fail = [&](const std::string& what) {
    throw SnapshotError("snapshot " + snap.path() + ": " + what);
  };
  const SnapshotHeader& header = snap.header();
  const auto m = static_cast<std::size_t>(header.num_channels);
  const auto n = static_cast<std::size_t>(header.num_buyers);
  if (m == 0 || n == 0) fail("empty market dimensions");

  const auto require_count = [&](SectionKind kind, std::size_t count) {
    const SectionEntry& entry = snap.require(kind);
    if (entry.count != count)
      fail("section kind " +
           std::to_string(static_cast<std::uint32_t>(kind)) + " holds " +
           std::to_string(entry.count) + " elements, expected " +
           std::to_string(count));
    return entry;
  };

  LoadedMarket out;
  out.has_matching = (header.flags & kFlagHasMatching) != 0;
  out.dirty_valid = (header.flags & kFlagDirtyValid) != 0;

  const auto prices =
      snap.array<double>(require_count(SectionKind::kPrices, m * n));
  const auto base =
      snap.array<double>(require_count(SectionKind::kBasePrices, m * n));
  const auto reserves =
      snap.array<double>(require_count(SectionKind::kReserves, m));
  const auto buyer_parents =
      snap.array<std::int32_t>(require_count(SectionKind::kBuyerParents, n));
  const auto seller_parents =
      snap.array<std::int32_t>(require_count(SectionKind::kSellerParents, m));
  const auto active =
      snap.array<std::uint8_t>(require_count(SectionKind::kActive, n));
  const auto dirty =
      snap.array<std::uint8_t>(require_count(SectionKind::kDirty, n));
  const auto matching =
      snap.array<std::int32_t>(require_count(SectionKind::kMatching, n));
  const auto counters = snap.array<std::int64_t>(
      require_count(SectionKind::kCounters, kNumCounters));

  for (std::size_t j = 0; j < n; ++j)
    if (matching[j] < -1 || matching[j] >= static_cast<std::int32_t>(m))
      fail("matching assigns buyer " + std::to_string(j) +
           " to out-of-range seller " + std::to_string(matching[j]));

  // Scenario (owned copies: its vectors are std:: containers either way).
  auto scenario = std::make_shared<market::Scenario>();
  {
    const auto counts =
        snap.array<std::int32_t>(snap.require(SectionKind::kScenarioSellerCounts));
    const auto demands =
        snap.array<std::int32_t>(snap.require(SectionKind::kScenarioBuyerDemands));
    const auto locations =
        snap.array<double>(snap.require(SectionKind::kScenarioLocations));
    const auto ranges =
        snap.array<double>(require_count(SectionKind::kScenarioRanges, m));
    const auto utilities = snap.array<double>(
        require_count(SectionKind::kScenarioUtilities, m * n));
    const SectionEntry& scen_reserves =
        snap.require(SectionKind::kScenarioReserves);
    if (locations.size() != 2 * demands.size())
      fail("scenario locations disagree with the parent-buyer count");
    scenario->seller_channel_counts.assign(counts.begin(), counts.end());
    scenario->buyer_demands.assign(demands.begin(), demands.end());
    scenario->buyer_locations.resize(demands.size());
    for (std::size_t b = 0; b < demands.size(); ++b)
      scenario->buyer_locations[b] =
          graph::Point{locations[2 * b], locations[2 * b + 1]};
    scenario->channel_ranges.assign(ranges.begin(), ranges.end());
    scenario->utilities.assign(utilities.begin(), utilities.end());
    const auto scen_reserve_vals = snap.array<double>(scen_reserves);
    scenario->channel_reserves.assign(scen_reserve_vals.begin(),
                                      scen_reserve_vals.end());
    try {
      scenario->validate();
      if (scenario->num_channels() != static_cast<int>(m) ||
          scenario->num_virtual_buyers() != static_cast<int>(n))
        fail("scenario dimensions disagree with the header");
    } catch (const CheckError& e) {
      fail(std::string("inconsistent scenario: ") + e.what());
    }
  }
  out.scenario = std::move(scenario);

  const auto meta = snap.array<GraphMetaRecord>(
      require_count(SectionKind::kGraphMeta, m));
  std::vector<graph::InterferenceGraph> graphs;
  graphs.reserve(m);
  bool reads_through_map = false;
  for (std::size_t i = 0; i < m; ++i) {
    graphs.push_back(
        load_graph(snap, meta[i], n, static_cast<ChannelId>(i)));
    reads_through_map |= graphs.back().csr_view_backed();
  }

  try {
    out.market = std::make_unique<market::SpectrumMarket>(
        static_cast<int>(m), static_cast<int>(n),
        std::vector<double>(prices.begin(), prices.end()), std::move(graphs),
        std::vector<int>(buyer_parents.begin(), buyer_parents.end()),
        std::vector<int>(seller_parents.begin(), seller_parents.end()),
        std::vector<double>(reserves.begin(), reserves.end()));
  } catch (const CheckError& e) {
    fail(std::string("inconsistent market sections: ") + e.what());
  }

  out.base_prices.assign(base.begin(), base.end());
  out.active.assign(active.begin(), active.end());
  out.dirty.assign(dirty.begin(), dirty.end());
  out.matching.assign(matching.begin(), matching.end());
  std::copy(counters.begin(), counters.end(), out.counters.begin());
  // Dense rows and every other section were copied out: keep the mapping
  // only when a CSR graph still reads through it.
  if (reads_through_map) out.backing = std::move(snapshot);
  return out;
}

MarketStore::MarketStore(StoreConfig config) : config_(std::move(config)) {
  if (!config_.enabled()) return;
  std::error_code ec;
  fs::create_directories(config_.dir, ec);
  if (ec)
    throw SnapshotError("store directory " + config_.dir +
                        ": cannot create: " + ec.message());
  for (const auto& entry : fs::directory_iterator(config_.dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const fs::path& p = entry.path();
    if (p.extension() != kExtension) continue;
    sizes_[decode_market_id(p.stem().string())] =
        static_cast<std::uint64_t>(entry.file_size());
  }
  if (ec)
    throw SnapshotError("store directory " + config_.dir +
                        ": cannot scan: " + ec.message());
}

std::vector<std::string> MarketStore::ids() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(sizes_.size());
  for (const auto& [id, bytes] : sizes_) out.push_back(id);
  return out;
}

bool MarketStore::contains(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sizes_.count(id) != 0;
}

std::string MarketStore::path_for(const std::string& id) const {
  return (fs::path(config_.dir) / (encode_market_id(id) + kExtension))
      .string();
}

std::uint64_t MarketStore::write(const std::string& id,
                                 const MarketStateView& state) {
  SPECMATCH_CHECK_MSG(enabled(), "market store has no directory configured");
  const SnapshotImage image = build_snapshot_image(state);
  const std::uint64_t bytes =
      write_snapshot_file(path_for(id), image, config_.sync);
  std::lock_guard<std::mutex> lock(mutex_);
  sizes_[id] = bytes;
  return bytes;
}

LoadedMarket MarketStore::load(const std::string& id) const {
  SPECMATCH_CHECK_MSG(enabled(), "market store has no directory configured");
  return load_market(std::make_shared<MappedSnapshot>(path_for(id)));
}

bool MarketStore::remove(const std::string& id) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (sizes_.erase(id) == 0) return false;
  }
  std::error_code ec;
  fs::remove(path_for(id), ec);
  return true;
}

std::uint64_t MarketStore::disk_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [id, bytes] : sizes_) total += bytes;
  return total;
}

std::uint64_t MarketStore::bytes_for(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sizes_.find(id);
  return it == sizes_.end() ? 0 : it->second;
}

}  // namespace specmatch::store
