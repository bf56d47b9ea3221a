// Persistent market store: snapshot format integrity (corrupt files of every
// flavour fail loudly), mmap-backed load fidelity (view-backed CSR graphs and
// matchings bit-identical to the originals at 1 and 4 threads), registry
// spill/fault-back under a byte budget with zero discards, and server-level
// transparency (a spilled market faults back in and warm-serves with its
// carried matching and stats intact).
#include "store/market_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "graph/components.hpp"
#include "market/market.hpp"
#include "matching/two_stage.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "store/snapshot.hpp"
#include "test_util.hpp"
#include "workload/generator.hpp"

namespace specmatch::store {
namespace {

namespace fs = std::filesystem;

using testutil::ScopedThreads;

std::shared_ptr<const market::Scenario> random_scenario(std::uint64_t seed,
                                                        int sellers,
                                                        int buyers,
                                                        double area = 10.0) {
  Rng rng(seed);
  workload::WorkloadParams params;
  params.num_sellers = sellers;
  params.num_buyers = buyers;
  params.area_size = area;
  return std::make_shared<const market::Scenario>(
      workload::generate_scenario(params, rng));
}

/// A fresh, empty snapshot directory under the system temp dir.
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("specmatch_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

StoreConfig dir_config(const fs::path& dir) {
  StoreConfig config;
  config.dir = dir.string();
  return config;
}

/// The per-buyer state of a freshly built market (no carried matching),
/// owned so a MarketStateView can borrow it.
struct FreshState {
  explicit FreshState(const market::SpectrumMarket& market)
      : active(static_cast<std::size_t>(market.num_buyers()), 1),
        dirty(active.size(), 0),
        matching(active.size(), -1) {
    for (ChannelId i = 0; i < market.num_channels(); ++i)
      for (BuyerId j = 0; j < market.num_buyers(); ++j)
        base.push_back(market.utility(i, j));
  }

  MarketStateView view(const market::SpectrumMarket& market,
                       const market::Scenario& scenario) const {
    MarketStateView out;
    out.market = &market;
    out.scenario = &scenario;
    out.base_prices = base;
    out.active = active;
    out.dirty = dirty;
    out.matching = matching;
    return out;
  }

  std::vector<double> base;
  std::vector<std::uint8_t> active;
  std::vector<std::uint8_t> dirty;
  std::vector<std::int32_t> matching;
};

/// A complete snapshot image of a freshly built market.
SnapshotImage sample_image(std::shared_ptr<const market::Scenario> scenario) {
  const market::SpectrumMarket market = market::build_market(*scenario);
  return build_snapshot_image(FreshState(market).view(market, *scenario));
}

/// `market` rebuilt with channel i's graph under rep_of(i).
template <typename RepOf>
market::SpectrumMarket regraphed(const market::SpectrumMarket& market,
                                 RepOf rep_of) {
  std::vector<graph::InterferenceGraph> graphs;
  for (ChannelId i = 0; i < market.num_channels(); ++i)
    graphs.push_back(graph::with_representation(market.graph(i), rep_of(i)));
  return market::SpectrumMarket(
      market.num_channels(), market.num_buyers(),
      std::vector<double>(market.prices().begin(), market.prices().end()),
      std::move(graphs));
}

void write_raw(const fs::path& path, std::span<const std::byte> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good());
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Expects MappedSnapshot construction (or load) to throw a SnapshotError
/// whose message contains `needle`.
void expect_load_error(const fs::path& path, const std::string& needle) {
  try {
    LoadedMarket loaded = load_market(std::make_shared<MappedSnapshot>(
        path.string()));
    FAIL() << "load of " << path << " unexpectedly succeeded";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message '" << e.what() << "' lacks '" << needle << "'";
  }
}

// --- corruption ------------------------------------------------------------

TEST(SnapshotIntegrityTest, TruncatedFileFailsLoudly) {
  const fs::path dir = scratch_dir("store_truncated");
  const auto image = sample_image(random_scenario(11, 3, 8));

  // Shorter than the header alone.
  write_raw(dir / "tiny.spms", std::span(image).subspan(0, 40));
  expect_load_error(dir / "tiny.spms", "truncated");

  // Header intact, payload cut off.
  write_raw(dir / "cut.spms", std::span(image).subspan(0, image.size() - 64));
  expect_load_error(dir / "cut.spms", "truncated");
}

TEST(SnapshotIntegrityTest, BitFlipFailsChecksum) {
  const fs::path dir = scratch_dir("store_bitflip");
  auto image = sample_image(random_scenario(12, 3, 8));
  // Flip one payload bit past the header; the checksum must catch it.
  image[image.size() - 7] ^= std::byte{0x10};
  write_raw(dir / "flip.spms", image);
  expect_load_error(dir / "flip.spms", "checksum mismatch");
}

TEST(SnapshotIntegrityTest, WrongMagicVersionAndEndiannessFailLoudly) {
  const fs::path dir = scratch_dir("store_header");
  const auto image = sample_image(random_scenario(13, 3, 8));

  // None of these header fields are covered by the checksum (it spans
  // [64, file_bytes)), so patching them isolates each check.
  auto patched = image;
  std::memcpy(patched.data(), "NOTSPMS!", 8);
  write_raw(dir / "magic.spms", patched);
  expect_load_error(dir / "magic.spms", "not a specmatch snapshot");

  patched = image;
  const std::uint32_t future_version = 99;
  std::memcpy(patched.data() + 8, &future_version, sizeof(future_version));
  write_raw(dir / "version.spms", patched);
  expect_load_error(dir / "version.spms", "unsupported snapshot version");

  patched = image;
  const std::uint32_t swapped_stamp = 0x04030201;  // byte-swapped kEndianStamp
  std::memcpy(patched.data() + 12, &swapped_stamp, sizeof(swapped_stamp));
  write_raw(dir / "endian.spms", patched);
  expect_load_error(dir / "endian.spms", "endianness");
}

TEST(SnapshotIntegrityTest, OverlongFileFailsLoudly) {
  const fs::path dir = scratch_dir("store_overlong");
  auto image = sample_image(random_scenario(14, 3, 8));
  image.resize(image.size() + 128);  // trailing garbage past file_bytes
  write_raw(dir / "long.spms", image);
  expect_load_error(dir / "long.spms", "truncated or overlong");
}

TEST(SnapshotIntegrityTest, Checksum64KnownAnswers) {
  // Pins the on-disk checksum: a changed value makes every existing file
  // unreadable, which needs a format version bump. Lengths straddle the
  // 8-byte step and the byte-wise tail.
  std::vector<unsigned char> bytes(65);
  for (std::size_t k = 0; k < bytes.size(); ++k)
    bytes[k] = static_cast<unsigned char>(k * 37 + 11);
  const std::vector<std::pair<std::size_t, std::uint64_t>> known = {
      {0, 0x6C8BCC51EDB91D2Bull},  {1, 0xDF7AC5B20C7C1305ull},
      {7, 0x7A0CDB797BD160B1ull},  {8, 0x77C5E565B2C765ACull},
      {9, 0xA339879E90C9DFE3ull},  {63, 0xFE33B9A90F468BA9ull},
      {64, 0x54BAAFDAB8E1A6D4ull}, {65, 0x4502127D05F5B63Eull},
  };
  for (const auto& [length, want] : known)
    EXPECT_EQ(checksum64(bytes.data(), length), want) << "length " << length;
}

TEST(SnapshotIntegrityTest, Version1ImageFailsLoudly) {
  const fs::path dir = scratch_dir("store_v1");
  auto image = sample_image(random_scenario(15, 3, 8));
  const std::uint32_t v1 = 1;
  std::memcpy(image.data() + offsetof(SnapshotHeader, version), &v1,
              sizeof(v1));
  write_raw(dir / "v1.spms", image);
  expect_load_error(dir / "v1.spms", "unsupported snapshot version 1");
}

// --- mutation fuzzing of the section parsers --------------------------------

/// The table entry of section `kind` inside `image`.
SectionEntry section_of(const SnapshotImage& image, SectionKind kind) {
  SnapshotHeader header;
  std::memcpy(&header, image.data(), sizeof(header));
  for (std::uint32_t s = 0; s < header.section_count; ++s) {
    SectionEntry entry;
    std::memcpy(&entry,
                image.data() + sizeof(SnapshotHeader) + s * sizeof(entry),
                sizeof(entry));
    if (entry.kind == static_cast<std::uint32_t>(kind)) return entry;
  }
  ADD_FAILURE() << "no section kind " << static_cast<std::uint32_t>(kind);
  return {};
}

/// Recomputes the header checksum so a deliberate mutation gets past the
/// checksum and reaches the section parsers.
void restamp(SnapshotImage& image) {
  const std::uint64_t sum = checksum64(image.data() + sizeof(SnapshotHeader),
                                       image.size() - sizeof(SnapshotHeader));
  std::memcpy(image.data() + offsetof(SnapshotHeader, checksum), &sum,
              sizeof(sum));
}

/// Writes `image` and loads it. Returns true on success and false on a
/// SnapshotError; any other exception escapes and fails the test. A loaded
/// market is walked end to end so a bad value that slipped through shows.
bool load_image(const fs::path& path, const SnapshotImage& image) {
  write_raw(path, image);
  try {
    const LoadedMarket loaded =
        load_market(std::make_shared<MappedSnapshot>(path.string()));
    for (ChannelId i = 0; i < loaded.market->num_channels(); ++i) {
      const graph::InterferenceGraph& g = loaded.market->graph(i);
      std::size_t visits = 0;
      for (BuyerId v = 0; v < loaded.market->num_buyers(); ++v)
        g.for_each_neighbor(v, [&](std::size_t u) {
          EXPECT_LT(u, g.num_vertices());
          ++visits;
        });
      EXPECT_EQ(visits, 2 * g.num_edges());
      (void)g.components();
    }
    return true;
  } catch (const SnapshotError&) {
    return false;
  }
}

/// The image of a small market with every channel stored under `rep`.
SnapshotImage image_as(std::uint64_t seed, graph::GraphRep rep) {
  const auto scenario = random_scenario(seed, 3, 40);
  const market::SpectrumMarket market = regraphed(
      market::build_market(*scenario), [rep](ChannelId) { return rep; });
  return build_snapshot_image(FreshState(market).view(market, *scenario));
}

TEST(SnapshotFuzzTest, MutatedSectionsLoadOrFailWithSnapshotError) {
  const fs::path dir = scratch_dir("store_fuzz");
  Rng rng(2024);
  for (const graph::GraphRep rep :
       {graph::GraphRep::kDense, graph::GraphRep::kCsr}) {
    const SnapshotImage pristine = image_as(81, rep);
    ASSERT_TRUE(load_image(dir / "pristine.spms", pristine));

    // Byte ranges to mutate: the section table and each adjacency section.
    std::vector<std::pair<std::size_t, std::size_t>> regions;
    SnapshotHeader header;
    std::memcpy(&header, pristine.data(), sizeof(header));
    regions.emplace_back(sizeof(SnapshotHeader),
                         header.section_count * sizeof(SectionEntry));
    for (const SectionKind kind :
         {SectionKind::kGraphMeta, SectionKind::kGraphDegrees,
          SectionKind::kGraphOffsets, SectionKind::kGraphIds,
          SectionKind::kGraphRows}) {
      const SectionEntry entry = section_of(pristine, kind);
      if (entry.bytes > 0) regions.emplace_back(entry.offset, entry.bytes);
    }
    // The table, meta and degrees, plus rows (dense) or offsets and ids.
    ASSERT_EQ(regions.size(), rep == graph::GraphRep::kDense ? 4u : 5u);

    int loaded = 0;
    int rejected = 0;
    for (int trial = 0; trial < 300; ++trial) {
      SnapshotImage image = pristine;
      const auto& [begin, length] =
          regions[static_cast<std::size_t>(trial) % regions.size()];
      const int flips = static_cast<int>(rng.uniform_int(1, 3));
      for (int f = 0; f < flips; ++f) {
        const auto at = begin + static_cast<std::size_t>(rng.uniform_int(
                                    0, static_cast<std::int64_t>(length) - 1));
        image[at] ^= static_cast<std::byte>(rng.uniform_int(1, 255));
      }
      restamp(image);
      (load_image(dir / "mutant.spms", image) ? loaded : rejected) += 1;
    }
    // Mutations must reach the parsers and be caught there, not by the
    // checksum. The few that load hit bytes no parser reads: alignment
    // padding, a table entry's pad field, another representation's offsets.
    EXPECT_GT(rejected, 250) << "rep " << static_cast<int>(rep);
    EXPECT_EQ(loaded + rejected, 300);
  }
}

/// Image of a dense market with one bit of channel 0's row `v` toggled, the
/// checksum re-stamped.
SnapshotImage with_row_bit_toggled(std::size_t v, std::size_t bit) {
  SnapshotImage image = image_as(82, graph::GraphRep::kDense);
  SnapshotHeader header;
  std::memcpy(&header, image.data(), sizeof(header));
  const std::size_t words_per_row = (header.num_buyers + 63) / 64;
  const SectionEntry rows = section_of(image, SectionKind::kGraphRows);
  GraphMetaRecord meta;
  std::memcpy(&meta, image.data() + section_of(image, SectionKind::kGraphMeta).offset,
              sizeof(meta));
  const std::size_t at = rows.offset + meta.rows_off +
                         (v * words_per_row + bit / 64) * sizeof(std::uint64_t) +
                         (bit % 64) / 8;
  image[at] ^= static_cast<std::byte>(1u << (bit % 8));
  restamp(image);
  return image;
}

TEST(SnapshotFuzzTest, DenseRowDefectsFailWithTheirOwnMessage) {
  const fs::path dir = scratch_dir("store_rows");
  const SnapshotImage pristine = image_as(82, graph::GraphRep::kDense);
  SnapshotHeader header;
  std::memcpy(&header, pristine.data(), sizeof(header));
  const std::size_t n = header.num_buyers;
  ASSERT_NE(n % 64, 0u) << "the padding case needs a partial last word";

  write_raw(dir / "padding.spms", with_row_bit_toggled(3, n));
  expect_load_error(dir / "padding.spms", "sets a padding bit");

  write_raw(dir / "diagonal.spms", with_row_bit_toggled(5, 5));
  expect_load_error(dir / "diagonal.spms", "sets its own diagonal bit");

  // Toggling an off-diagonal bit keeps every structural rule but one: the
  // row's popcount no longer matches its cached degree.
  write_raw(dir / "degree.spms", with_row_bit_toggled(7, 9));
  expect_load_error(dir / "degree.spms", "disagrees with its row popcount");
}

TEST(SnapshotFuzzTest, WrappingEdgeCountFailsLoudly) {
  // num_edges + 2^63 doubles to the true 2 * num_edges modulo 2^64, so every
  // check on 2 * num_edges would pass; the count must be bounded first.
  const fs::path dir = scratch_dir("store_edges");
  SnapshotImage image = image_as(83, graph::GraphRep::kCsr);
  const std::size_t at = section_of(image, SectionKind::kGraphMeta).offset +
                         offsetof(GraphMetaRecord, num_edges) + 7;
  image[at] ^= std::byte{0x80};
  restamp(image);
  write_raw(dir / "edges.spms", image);
  expect_load_error(dir / "edges.spms", "edge count exceeds");
}

// --- load fidelity ---------------------------------------------------------

/// Writes `built` through a fresh store and loads it back.
LoadedMarket round_trip(const std::string& name,
                        const market::SpectrumMarket& built,
                        const market::Scenario& scenario) {
  MarketStore store(dir_config(scratch_dir(name)));
  const FreshState state(built);
  store.write("m", state.view(built, scenario));
  return store.load("m");
}

/// The loaded market keeps every channel's representation, its graphs and
/// component indices equal a fresh build's, and it solves bit-identically.
void expect_faithful_round_trip(const market::SpectrumMarket& built,
                                const LoadedMarket& loaded) {
  ASSERT_NE(loaded.market, nullptr);
  for (ChannelId i = 0; i < built.num_channels(); ++i) {
    const graph::InterferenceGraph& want = built.graph(i);
    const graph::InterferenceGraph& got = loaded.market->graph(i);
    ASSERT_EQ(got.representation(), want.representation()) << "channel " << i;
    // CSR channels read through the mapping; dense rows were copied out.
    EXPECT_EQ(got.csr_view_backed(),
              want.representation() == graph::GraphRep::kCsr)
        << "channel " << i;
    EXPECT_EQ(got, want) << "channel " << i;
    EXPECT_EQ(got.max_degree(), want.max_degree()) << "channel " << i;

    const graph::ComponentIndex fresh(want);
    const graph::ComponentIndex& index = got.components();
    ASSERT_EQ(index.num_components(), fresh.num_components());
    for (BuyerId v = 0; v < built.num_buyers(); ++v) {
      ASSERT_EQ(index.component_of(v), fresh.component_of(v)) << "vertex " << v;
      ASSERT_EQ(index.local_id(v), fresh.local_id(v)) << "vertex " << v;
    }
    for (std::size_t c = 0; c < fresh.num_components(); ++c) {
      const auto a = index.vertices(c);
      const auto b = fresh.vertices(c);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "component " << c;
    }
  }
  for (const int threads : {1, 4}) {
    ScopedThreads scope(threads);
    const auto a = matching::run_two_stage(built);
    const auto b = matching::run_two_stage(*loaded.market);
    EXPECT_EQ(a.final_matching(), b.final_matching()) << "threads " << threads;
    EXPECT_EQ(a.welfare_final, b.welfare_final) << "threads " << threads;
  }
}

TEST(SnapshotRoundTripTest, LoadedGraphsAndMatchingsAreBitIdentical) {
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    const auto scenario = random_scenario(seed, 4, 12);
    const market::SpectrumMarket built = market::build_market(*scenario);
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_faithful_round_trip(
        built, round_trip("store_roundtrip", built, *scenario));
  }
}

/// A sparse market: the area grows with the buyer count, as perfbench's do.
std::shared_ptr<const market::Scenario> sparse_scenario(std::uint64_t seed,
                                                        int sellers,
                                                        int buyers) {
  return random_scenario(seed, sellers, buyers,
                         10.0 * std::sqrt(buyers / 100.0));
}

TEST(SnapshotRoundTripTest, MarketAboveDenseMaxLoadsCsrViewBacked) {
  const int buyers = static_cast<int>(graph::InterferenceGraph::dense_max()) + 52;
  const auto scenario = sparse_scenario(24, 2, buyers);
  const market::SpectrumMarket built = market::build_market(*scenario);
  ASSERT_EQ(built.graph(0).representation(), graph::GraphRep::kCsr);
  const LoadedMarket loaded = round_trip("store_csr", built, *scenario);
  expect_faithful_round_trip(built, loaded);
  // The view-backed graphs read through the mapping, so it stays held.
  EXPECT_NE(loaded.backing, nullptr);
}

TEST(SnapshotRoundTripTest, MarketBelowDenseMaxLoadsDenseAndReleasesTheMap) {
  const auto scenario = sparse_scenario(25, 3, 300);
  const market::SpectrumMarket built = market::build_market(*scenario);
  ASSERT_EQ(built.graph(0).representation(), graph::GraphRep::kDense);
  const LoadedMarket loaded = round_trip("store_dense", built, *scenario);
  expect_faithful_round_trip(built, loaded);
  // Every row was copied out: nothing reads through the mapping any more.
  EXPECT_EQ(loaded.backing, nullptr);
}

TEST(SnapshotRoundTripTest, OneCsrChannelKeepsTheMapping) {
  const auto scenario = sparse_scenario(26, 3, 300);
  // Channel 0 CSR, the rest dense: the store keeps each as it is.
  const market::SpectrumMarket mixed =
      regraphed(market::build_market(*scenario), [](ChannelId i) {
        return i == 0 ? graph::GraphRep::kCsr : graph::GraphRep::kDense;
      });
  const LoadedMarket loaded = round_trip("store_mixed", mixed, *scenario);
  expect_faithful_round_trip(mixed, loaded);
  EXPECT_NE(loaded.backing, nullptr);
}

TEST(SnapshotRoundTripTest, CarriedStateSurvives) {
  const auto scenario = random_scenario(31, 3, 9);
  const fs::path dir = scratch_dir("store_carried");
  serve::MarketRegistry registry(std::size_t{1} << 30, dir_config(dir));
  serve::MarketEntry& entry = registry.create("m", scenario, 0, nullptr);

  // Give the entry some history: a matching, a mutation, stats.
  const auto result = matching::run_two_stage(entry.market);
  entry.last = result.final_matching();
  entry.has_matching = true;
  entry.dirty_valid = true;
  entry.solves_cold = 3;
  entry.apply_leave(1);

  const std::uint64_t bytes = registry.snapshot_resident("m");
  EXPECT_GT(bytes, 0u);
  MarketStore probe(dir_config(dir));
  LoadedMarket loaded = probe.load("m");
  EXPECT_TRUE(loaded.has_matching);
  EXPECT_TRUE(loaded.dirty_valid);
  EXPECT_EQ(loaded.counters[0], 3);  // solves_cold
  EXPECT_EQ(loaded.counters[5], 1);  // mutations
  EXPECT_EQ(loaded.active[1], 0);
  for (BuyerId j = 0; j < entry.market.num_buyers(); ++j)
    EXPECT_EQ(loaded.matching[static_cast<std::size_t>(j)],
              static_cast<std::int32_t>(entry.last.seller_of(j)))
        << "buyer " << j;

  // Adopting the loaded market reports the same resident footprint as the
  // built one — eviction decisions are identical either way.
  serve::MarketEntry faulted{std::move(loaded)};
  EXPECT_EQ(faulted.bytes, entry.bytes);
  EXPECT_EQ(faulted.solves_cold, 3);
  EXPECT_FALSE(faulted.active[1]);
}

// --- registry spill / fault-back -------------------------------------------

TEST(RegistrySpillTest, EvictionSpillsAndFaultBackRestoresWithZeroDiscards) {
  const auto scenario = random_scenario(41, 2, 6);
  const fs::path dir = scratch_dir("store_spill");

  serve::MarketRegistry probe(std::size_t{1} << 30, dir_config(dir));
  const std::size_t one = probe.create("probe", scenario, 0, nullptr).bytes;
  fs::remove_all(dir);
  fs::create_directories(dir);

  serve::MarketRegistry registry(2 * one + one / 2, dir_config(dir));
  registry.create("a", scenario, 1, nullptr);
  registry.create("b", scenario, 2, nullptr);
  ASSERT_NE(registry.find("a", 3), nullptr);
  std::vector<std::string> evicted;
  registry.create("c", scenario, 4, &evicted);

  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], "b");
  EXPECT_EQ(registry.spills(), 1);
  EXPECT_EQ(registry.discarded(), 0);
  EXPECT_TRUE(registry.is_spilled("b"));
  EXPECT_TRUE(registry.known("b"));
  EXPECT_FALSE(registry.contains("b"));
  EXPECT_EQ(registry.spilled_count(), 1u);
  EXPECT_GT(registry.disk_bytes(), 0u);

  // Fault "b" back: someone else gets evicted (and spilled), never lost.
  evicted.clear();
  serve::MarketEntry& back = registry.fault_in("b", 5, &evicted);
  EXPECT_EQ(back.bytes, one);
  EXPECT_EQ(registry.faults(), 1);
  EXPECT_EQ(registry.discarded(), 0);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_TRUE(registry.is_spilled(evicted[0]));
}

TEST(RegistrySpillTest, SpillDisabledDiscardsButCountsHonestly) {
  const auto scenario = random_scenario(42, 2, 6);
  const fs::path dir = scratch_dir("store_nospill");

  serve::MarketRegistry probe(std::size_t{1} << 30, dir_config(dir));
  const std::size_t one = probe.create("probe", scenario, 0, nullptr).bytes;
  fs::remove_all(dir);
  fs::create_directories(dir);

  StoreConfig config = dir_config(dir);
  config.spill = false;
  serve::MarketRegistry registry(one + one / 2, config);
  registry.create("a", scenario, 1, nullptr);
  registry.create("b", scenario, 2, nullptr);
  EXPECT_EQ(registry.spills(), 0);
  EXPECT_EQ(registry.discarded(), 1);
  EXPECT_FALSE(registry.known("a"));
}

// --- server-level transparency ---------------------------------------------

serve::ServeConfig store_server_config(const fs::path& dir, int lanes) {
  serve::ServeConfig config;
  config.drain_lanes = lanes;
  config.queue_capacity = 1024;
  config.mem_budget_mb = 4096;
  config.check_warm = true;
  config.store = dir_config(dir);
  return config;
}

serve::Request create_request(const std::string& id,
                              std::shared_ptr<const market::Scenario> s) {
  serve::Request request;
  request.type = serve::RequestType::kCreate;
  request.market_id = id;
  request.scenario = std::move(s);
  return request;
}

serve::Request verb_request(serve::RequestType type, const std::string& id) {
  serve::Request request;
  request.type = type;
  request.market_id = id;
  return request;
}

TEST(ServerStoreTest, ColdBootServesIdenticalTranscript) {
  const auto scenario = random_scenario(51, 3, 10);
  const fs::path dir = scratch_dir("store_coldboot");

  // Warm a server, snapshot, and record what the resident market answers.
  std::string live_query, live_stats;
  {
    serve::MatchServer server(store_server_config(dir, 1));
    ASSERT_TRUE(server.handle(create_request("m", scenario)).ok);
    serve::Request solve = verb_request(serve::RequestType::kSolve, "m");
    ASSERT_TRUE(server.handle(solve).ok);
    serve::Request price = verb_request(serve::RequestType::kUpdatePrice, "m");
    price.buyer = 2;
    price.channel = 0;
    price.value = 4.25;
    ASSERT_TRUE(server.handle(price).ok);
    serve::Request warm = verb_request(serve::RequestType::kSolve, "m");
    warm.warm = true;
    ASSERT_TRUE(server.handle(warm).ok);
    const serve::Response snap =
        server.handle(verb_request(serve::RequestType::kSnapshot, "m"));
    ASSERT_TRUE(snap.ok) << snap.text;
    live_query =
        server.handle(verb_request(serve::RequestType::kQuery, "m")).text;
    live_stats =
        server.handle(verb_request(serve::RequestType::kStats, "m")).text;
  }

  // Cold-boot from the snapshot dir at 1 and 4 lanes: the first touch faults
  // the market in; query and stats must match the live server byte for byte.
  for (const int lanes : {1, 4}) {
    serve::MatchServer server(store_server_config(dir, lanes));
    EXPECT_EQ(server.resident_markets(), 0u);
    const serve::Response query =
        server.handle(verb_request(serve::RequestType::kQuery, "m"));
    ASSERT_TRUE(query.ok) << query.text;
    EXPECT_EQ(query.text, live_query) << "lanes " << lanes;
    // Per-market stats must match exactly; the registry-wide tail (markets=
    // onwards) legitimately differs — the cold server counts a fault the
    // live one never had.
    const std::string stats =
        server.handle(verb_request(serve::RequestType::kStats, "m")).text;
    EXPECT_EQ(stats.substr(0, stats.find(" markets=")),
              live_stats.substr(0, live_stats.find(" markets=")))
        << "lanes " << lanes;
    EXPECT_EQ(server.faults(), 1);
    EXPECT_EQ(server.discarded(), 0);

    // The restored market warm-serves immediately off its carried matching.
    serve::Request warm = verb_request(serve::RequestType::kSolve, "m");
    warm.warm = true;
    const serve::Response response = server.handle(warm);
    ASSERT_TRUE(response.ok);
    EXPECT_EQ(response.text.find("fallback="), std::string::npos)
        << response.text;
  }
}

TEST(ServerStoreTest, RestoreVerbAndErrors) {
  const auto scenario = random_scenario(52, 2, 6);
  const fs::path dir = scratch_dir("store_restore");
  {
    serve::MatchServer server(store_server_config(dir, 1));
    ASSERT_TRUE(server.handle(create_request("m", scenario)).ok);
    ASSERT_TRUE(
        server.handle(verb_request(serve::RequestType::kSnapshot, "m")).ok);
  }

  serve::MatchServer server(store_server_config(dir, 1));
  const serve::Response restored =
      server.handle(verb_request(serve::RequestType::kRestore, "m"));
  ASSERT_TRUE(restored.ok);
  EXPECT_NE(restored.text.find("faulted=1"), std::string::npos);
  // Idempotent when already resident.
  const serve::Response again =
      server.handle(verb_request(serve::RequestType::kRestore, "m"));
  ASSERT_TRUE(again.ok);
  EXPECT_NE(again.text.find("faulted=0"), std::string::npos);
  // Unknown ids and duplicate creates are errors.
  EXPECT_FALSE(
      server.handle(verb_request(serve::RequestType::kRestore, "ghost")).ok);
  const serve::Response duplicate =
      server.handle(create_request("m", scenario));
  EXPECT_FALSE(duplicate.ok);

  // A corrupt snapshot is reported, not served: damage the file, evict the
  // resident copy out of the picture by using a fresh server, and restore.
  {
    MarketStore store(dir_config(dir));
    const std::string path = store.path_for("m");
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(100);
    f.put('\x7f');
  }
  serve::MatchServer fresh(store_server_config(dir, 1));
  const serve::Response corrupt =
      fresh.handle(verb_request(serve::RequestType::kRestore, "m"));
  EXPECT_FALSE(corrupt.ok);
  EXPECT_NE(corrupt.text.find("checksum"), std::string::npos) << corrupt.text;
}

TEST(ServerStoreTest, MemoryCappedServingSpillsWithZeroDiscards) {
  // A budget of 0 MB keeps exactly one market resident: every create spills
  // the previous one, and touching an old id faults it back while spilling
  // the current resident. Nothing is ever lost.
  const fs::path dir = scratch_dir("store_capped");
  serve::ServeConfig config = store_server_config(dir, 1);
  config.mem_budget_mb = 0;
  serve::MatchServer server(config);

  constexpr int kMarkets = 6;
  for (int k = 0; k < kMarkets; ++k) {
    const std::string id = "m" + std::to_string(k);
    ASSERT_TRUE(
        server.handle(create_request(id, random_scenario(60 + k, 2, 6))).ok);
    ASSERT_TRUE(server.handle(verb_request(serve::RequestType::kSolve, id)).ok);
  }
  EXPECT_EQ(server.resident_markets(), 1u);
  EXPECT_EQ(server.spilled_markets(),
            static_cast<std::size_t>(kMarkets - 1));
  EXPECT_EQ(server.discarded(), 0);

  // Every market, resident or spilled, still answers — with its own state.
  for (int k = 0; k < kMarkets; ++k) {
    const std::string id = "m" + std::to_string(k);
    const serve::Response query =
        server.handle(verb_request(serve::RequestType::kQuery, id));
    ASSERT_TRUE(query.ok) << query.text;
    EXPECT_EQ(query.text.find("matched=0"), std::string::npos) << query.text;
  }
  EXPECT_EQ(server.discarded(), 0);
  EXPECT_GE(server.faults(), kMarkets - 1);
}

/// Metrics on and zeroed for the test body, as MetricsTest does.
class StoreMetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = metrics::enabled();
    metrics::set_enabled(true);
    metrics::Registry::global().reset_all();
  }
  void TearDown() override {
    metrics::Registry::global().reset_all();
    metrics::set_enabled(was_enabled_);
  }

 private:
  bool was_enabled_ = false;
};

TEST_F(StoreMetricsTest, SpillAndFaultInstrumentsAreRecorded) {
  // A 16 x 400 market takes over 0.5 MB, so two do not fit in 1 MB:
  // creating b spills a, and solving a again faults it back in.
  const fs::path dir = scratch_dir("store_metrics");
  serve::ServeConfig config = store_server_config(dir, 1);
  config.mem_budget_mb = 1;
  serve::MatchServer server(config);
  ASSERT_TRUE(
      server.handle(create_request("a", random_scenario(70, 16, 400))).ok);
  ASSERT_TRUE(server.handle(verb_request(serve::RequestType::kSolve, "a")).ok);
  ASSERT_TRUE(
      server.handle(create_request("b", random_scenario(71, 16, 400))).ok);
  ASSERT_TRUE(server.handle(verb_request(serve::RequestType::kSolve, "b")).ok);
  ASSERT_TRUE(server.handle(verb_request(serve::RequestType::kSolve, "a")).ok);

  const metrics::Snapshot snapshot = metrics::Registry::global().snapshot();
  EXPECT_GE(snapshot.counter("serve.store.spills"), 1);
  EXPECT_GE(snapshot.counter("serve.store.faults"), 1);
  for (const char* name : {"serve.store.fault_ms", "serve.latency_ms"}) {
    std::uint64_t count = 0;
    for (const auto& [histogram, summary] : snapshot.histograms)
      if (histogram == name) count = summary.count;
    EXPECT_GE(count, 1u) << name;
  }
  EXPECT_EQ(server.discarded(), 0);
}

}  // namespace
}  // namespace specmatch::store
