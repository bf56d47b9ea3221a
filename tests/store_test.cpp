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
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <utility>
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

/// The snapshot pair of one market: its state and graph file images.
struct Images {
  SnapshotImage state;
  SnapshotImage graph;
};

Images images_of(const market::SpectrumMarket& market,
                 const market::Scenario& scenario) {
  const FreshState fresh(market);
  const MarketStateView view = fresh.view(market, scenario);
  return {build_snapshot_image(view), build_graph_image(view)};
}

/// The snapshot pair of a freshly built market.
Images sample_images(std::shared_ptr<const market::Scenario> scenario) {
  return images_of(market::build_market(*scenario), *scenario);
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

/// Maps and loads the pair at `state` and `graph`.
LoadedMarket load_pair(const fs::path& state, const fs::path& graph) {
  auto graphs = std::make_shared<MappedSnapshot>(graph.string());
  return load_market(std::make_shared<MappedSnapshot>(state.string()),
                     std::move(graphs));
}

/// Expects loading the pair to throw a SnapshotError whose message contains
/// every one of `needles`.
void expect_load_error(const fs::path& state, const fs::path& graph,
                       std::initializer_list<std::string> needles) {
  try {
    LoadedMarket loaded = load_pair(state, graph);
    FAIL() << "load of " << state << " + " << graph
           << " unexpectedly succeeded";
  } catch (const SnapshotError& e) {
    for (const std::string& needle : needles)
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "message '" << e.what() << "' lacks '" << needle << "'";
  }
}

/// Writes `images` as `<stem>.spms` + `<stem>.spmg` under `dir`.
std::pair<fs::path, fs::path> write_pair(const fs::path& dir,
                                         const std::string& stem,
                                         const Images& images) {
  const fs::path state = dir / (stem + ".spms");
  const fs::path graph = dir / (stem + ".spmg");
  write_raw(state, images.state);
  write_raw(graph, images.graph);
  return {state, graph};
}

/// Runs `check(state, graph)` twice: with `corrupt` applied to the state
/// image and a pristine graph image, then the other way round.
template <typename Corrupt, typename Check>
void for_each_file(const fs::path& dir, const Images& pristine,
                   Corrupt corrupt, Check check) {
  for (const bool state_side : {true, false}) {
    SCOPED_TRACE(state_side ? "state file" : "graph file");
    Images images = pristine;
    corrupt(state_side ? images.state : images.graph);
    const auto [state, graph] = write_pair(dir, "m", images);
    check(state, graph);
  }
}

// --- corruption ------------------------------------------------------------

TEST(SnapshotIntegrityTest, TruncatedFileFailsLoudly) {
  const fs::path dir = scratch_dir("store_truncated");
  const Images pristine = sample_images(random_scenario(11, 3, 8));
  // Shorter than the header alone.
  for_each_file(
      dir, pristine, [](SnapshotImage& image) { image.resize(40); },
      [](const fs::path& state, const fs::path& graph) {
        expect_load_error(state, graph, {"truncated"});
      });
  // Header intact, payload cut off.
  for_each_file(
      dir, pristine,
      [](SnapshotImage& image) { image.resize(image.size() - 64); },
      [](const fs::path& state, const fs::path& graph) {
        expect_load_error(state, graph, {"truncated"});
      });
}

TEST(SnapshotIntegrityTest, BitFlipFailsChecksum) {
  const fs::path dir = scratch_dir("store_bitflip");
  // Flip one payload bit past the header; the checksum must catch it.
  for_each_file(
      dir, sample_images(random_scenario(12, 3, 8)),
      [](SnapshotImage& image) { image[image.size() - 7] ^= std::byte{0x10}; },
      [](const fs::path& state, const fs::path& graph) {
        expect_load_error(state, graph, {"checksum mismatch"});
      });
}

/// Overwrites the header field at `offset` with `value`.
template <typename T>
void patch(SnapshotImage& image, std::size_t offset, T value) {
  std::memcpy(image.data() + offset, &value, sizeof(value));
}

TEST(SnapshotIntegrityTest, WrongMagicVersionAndEndiannessFailLoudly) {
  const fs::path dir = scratch_dir("store_header");
  const Images pristine = sample_images(random_scenario(13, 3, 8));

  // None of these header fields are covered by the checksum (it spans
  // [64, file_bytes)), so patching them isolates each check.
  const auto expect = [](const char* needle) {
    return [needle](const fs::path& state, const fs::path& graph) {
      expect_load_error(state, graph, {needle});
    };
  };
  for_each_file(
      dir, pristine,
      [](SnapshotImage& image) { std::memcpy(image.data(), "NOTSPMS!", 8); },
      expect("not a specmatch snapshot"));
  for_each_file(
      dir, pristine,
      [](SnapshotImage& image) {
        patch<std::uint32_t>(image, offsetof(SnapshotHeader, version), 99);
      },
      expect("unsupported snapshot version"));
  for_each_file(
      dir, pristine,
      [](SnapshotImage& image) {
        // byte-swapped kEndianStamp
        patch<std::uint32_t>(image, offsetof(SnapshotHeader, endian),
                             0x04030201);
      },
      expect("endianness"));
  for_each_file(
      dir, pristine,
      [](SnapshotImage& image) {
        patch<std::uint32_t>(image, offsetof(SnapshotHeader, kind), 7);
      },
      expect("unknown file kind 7"));
}

TEST(SnapshotIntegrityTest, OverlongFileFailsLoudly) {
  const fs::path dir = scratch_dir("store_overlong");
  // Trailing garbage past file_bytes.
  for_each_file(
      dir, sample_images(random_scenario(14, 3, 8)),
      [](SnapshotImage& image) { image.resize(image.size() + 128); },
      [](const fs::path& state, const fs::path& graph) {
        expect_load_error(state, graph, {"truncated or overlong"});
      });
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

/// Files of an older format version fail at the header, whichever file of
/// the pair carries it; there is no migration.
void expect_old_version_fails(const char* name, std::uint32_t version) {
  const fs::path dir = scratch_dir(name);
  for_each_file(
      dir, sample_images(random_scenario(15, 3, 8)),
      [version](SnapshotImage& image) {
        patch(image, offsetof(SnapshotHeader, version), version);
      },
      [version](const fs::path& state, const fs::path& graph) {
        expect_load_error(
            state, graph,
            {"unsupported snapshot version " + std::to_string(version)});
      });
}

TEST(SnapshotIntegrityTest, Version1ImageFailsLoudly) {
  expect_old_version_fails("store_v1", 1);
}

TEST(SnapshotIntegrityTest, Version2ImageFailsLoudly) {
  expect_old_version_fails("store_v2", 2);
}

TEST(SnapshotIntegrityTest, Version3ImageFailsLoudly) {
  expect_old_version_fails("store_v3", 3);
}

TEST(SnapshotIntegrityTest, BlockChecksumKnownAnswers) {
  // Pins the on-disk checksum of version 4: lengths straddle one block
  // boundary and end inside a fourth block, and the values must not depend
  // on how many lanes hash the blocks.
  constexpr std::size_t kBlock = kChecksumBlockBytes;
  std::vector<unsigned char> bytes(3 * kBlock + 7);
  for (std::size_t k = 0; k < bytes.size(); ++k)
    bytes[k] = static_cast<unsigned char>(k * 37 + 11);
  const std::vector<std::pair<std::size_t, std::uint64_t>> known = {
      {0, 0x6C8BCC51EDB91D2Bull},
      {1, 0xC95CE09C7166ACFCull},
      {kBlock - 1, 0x850EAFA9C3CCA5FAull},
      {kBlock, 0xDF08E2D5BE260CA4ull},
      {kBlock + 1, 0x4E65346CB27C717Full},
      {3 * kBlock + 7, 0xA23DDF7198161127ull},
  };
  for (const int lanes : {1, testutil::contract_lanes()}) {
    ScopedThreads scope(lanes);
    for (const auto& [length, want] : known)
      EXPECT_EQ(block_checksum64(bytes.data(), length), want)
          << "length " << length << ", lanes " << lanes;
  }
}

/// The pair of a spill_churn-channel-shaped dense market whose graph file
/// spans several checksum blocks (N = 1000, M = 16: about 2 MiB).
Images multi_block_images() {
  Rng rng(9);
  const auto scenario = std::make_shared<const market::Scenario>(
      testutil::stratified_scenario(rng, 1000, 0.0));
  return sample_images(scenario);
}

TEST(SnapshotIntegrityTest, FlippedByteInAnyBlockFailsChecksum) {
  const fs::path dir = scratch_dir("store_block_flip");
  const Images pristine = multi_block_images();
  const std::size_t payload = pristine.graph.size() - sizeof(SnapshotHeader);
  const std::size_t blocks =
      (payload + kChecksumBlockBytes - 1) / kChecksumBlockBytes;
  ASSERT_GE(blocks, 3u);
  for (const std::size_t at :
       {sizeof(SnapshotHeader) + 5,
        sizeof(SnapshotHeader) + blocks / 2 * kChecksumBlockBytes + 5,
        pristine.graph.size() - 1}) {
    SCOPED_TRACE(testing::Message() << "byte " << at << " of "
                                    << pristine.graph.size());
    Images images = pristine;
    images.graph[at] ^= std::byte{0x04};
    const auto [state, graph] = write_pair(dir, "m", images);
    expect_load_error(state, graph, {"checksum mismatch", graph.string()});
  }
}

// --- the pair: kinds and identities -----------------------------------------

TEST(SnapshotPairTest, StateFileNamingAnotherMarketsGraphFileFailsLoudly) {
  const fs::path dir = scratch_dir("store_pair_other");
  const auto [a_state, a_graph] =
      write_pair(dir, "a", sample_images(random_scenario(16, 3, 8)));
  const auto [b_state, b_graph] =
      write_pair(dir, "b", sample_images(random_scenario(17, 3, 8)));
  ASSERT_NO_THROW(load_pair(a_state, a_graph));
  ASSERT_NO_THROW(load_pair(b_state, b_graph));
  // The error names both files of the pair.
  expect_load_error(a_state, b_graph,
                    {"belong to different markets", a_state.string(),
                     b_graph.string()});
  expect_load_error(b_state, a_graph, {"belong to different markets"});
}

TEST(SnapshotPairTest, StaleGraphFileFailsLoudly) {
  // The graph file of an earlier create of the id beside the state file of a
  // later one: the store wrote the pair in order, then an old graph file was
  // put back.
  const fs::path dir = scratch_dir("store_pair_stale");
  MarketStore store(dir_config(dir));
  const auto first = random_scenario(18, 3, 8);
  const market::SpectrumMarket first_market = market::build_market(*first);
  store.write("m", FreshState(first_market).view(first_market, *first));
  const fs::path graph = store.graph_path_for("m");
  fs::copy_file(graph, dir / "old.spmg");

  const auto second = random_scenario(19, 3, 8);
  const market::SpectrumMarket second_market = market::build_market(*second);
  store.write("m", FreshState(second_market).view(second_market, *second));
  ASSERT_NO_THROW(store.load("m"));
  fs::copy_file(dir / "old.spmg", graph, fs::copy_options::overwrite_existing);
  try {
    (void)store.load("m");
    FAIL() << "a stale graph file loaded";
  } catch (const SnapshotError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("belong to different markets"), std::string::npos)
        << what;
    EXPECT_NE(what.find(store.path_for("m")), std::string::npos) << what;
    EXPECT_NE(what.find(graph.string()), std::string::npos) << what;
  }
}

TEST(SnapshotPairTest, FilesOfTheWrongKindFailLoudly) {
  const fs::path dir = scratch_dir("store_pair_kind");
  const auto [state, graph] =
      write_pair(dir, "m", sample_images(random_scenario(20, 3, 8)));
  expect_load_error(graph, state,
                    {graph.string() + " is a graph file, not a state file"});
  expect_load_error(state, state,
                    {state.string() + " is a state file, not a graph file"});
  expect_load_error(graph, graph, {"is a graph file, not a state file"});
}

TEST(SnapshotPairTest, GraphDigestIsCheckedAgainstTheContents) {
  // The digest sits in the header, outside the checksum. Patched in both
  // files alike, the pair agrees, but the graph file's contents do not.
  const fs::path dir = scratch_dir("store_pair_digest");
  Images images = sample_images(random_scenario(21, 3, 8));
  for (SnapshotImage* image : {&images.state, &images.graph})
    (*image)[offsetof(SnapshotHeader, graph_digest)] ^= std::byte{0x01};
  const auto [state, graph] = write_pair(dir, "m", images);
  expect_load_error(state, graph, {graph.string(), "disagrees with the contents"});
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
  const std::uint64_t sum = block_checksum64(
      image.data() + sizeof(SnapshotHeader),
      image.size() - sizeof(SnapshotHeader));
  std::memcpy(image.data() + offsetof(SnapshotHeader, checksum), &sum,
              sizeof(sum));
}

/// Writes `images` and loads them. Returns true on success and false on a
/// SnapshotError; any other exception escapes and fails the test. A loaded
/// market is walked end to end so a bad value that slipped through shows.
bool load_images(const fs::path& dir, const Images& images) {
  const auto [state, graph] = write_pair(dir, "mutant", images);
  try {
    const LoadedMarket loaded = load_pair(state, graph);
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
    for (const std::int32_t seller : loaded.matching)
      EXPECT_LT(seller, loaded.market->num_channels());
    return true;
  } catch (const SnapshotError&) {
    return false;
  }
}

/// The pair of a small market with every channel stored under `rep`.
Images images_as(std::uint64_t seed, graph::GraphRep rep) {
  const auto scenario = random_scenario(seed, 3, 40);
  return images_of(regraphed(market::build_market(*scenario),
                             [rep](ChannelId) { return rep; }),
                   *scenario);
}

/// The section table and each listed section of `image`, as byte ranges.
std::vector<std::pair<std::size_t, std::size_t>> regions_of(
    const SnapshotImage& image, std::initializer_list<SectionKind> kinds) {
  std::vector<std::pair<std::size_t, std::size_t>> regions;
  SnapshotHeader header;
  std::memcpy(&header, image.data(), sizeof(header));
  regions.emplace_back(sizeof(SnapshotHeader),
                       header.section_count * sizeof(SectionEntry));
  for (const SectionKind kind : kinds) {
    const SectionEntry entry = section_of(image, kind);
    if (entry.bytes > 0) regions.emplace_back(entry.offset, entry.bytes);
  }
  return regions;
}

/// Applies 300 random 1-3 byte mutations, spread over `regions` of one file
/// of the pair (the other file stays pristine), re-stamps the checksum and
/// loads. Returns how many were rejected; every mutant must load or fail
/// with a SnapshotError.
int fuzz_file(const fs::path& dir, const Images& pristine, bool state_side,
              const std::vector<std::pair<std::size_t, std::size_t>>& regions,
              Rng& rng) {
  int loaded = 0;
  int rejected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    Images images = pristine;
    SnapshotImage& image = state_side ? images.state : images.graph;
    const auto& [begin, length] =
        regions[static_cast<std::size_t>(trial) % regions.size()];
    const int flips = static_cast<int>(rng.uniform_int(1, 3));
    for (int f = 0; f < flips; ++f) {
      const auto at = begin + static_cast<std::size_t>(rng.uniform_int(
                                  0, static_cast<std::int64_t>(length) - 1));
      image[at] ^= static_cast<std::byte>(rng.uniform_int(1, 255));
    }
    restamp(image);
    (load_images(dir, images) ? loaded : rejected) += 1;
  }
  EXPECT_EQ(loaded + rejected, 300);
  return rejected;
}

TEST(SnapshotFuzzTest, MutatedSectionsLoadOrFailWithSnapshotError) {
  const fs::path dir = scratch_dir("store_fuzz");
  Rng rng(2024);
  for (const graph::GraphRep rep :
       {graph::GraphRep::kDense, graph::GraphRep::kCsr}) {
    const Images pristine = images_as(81, rep);
    ASSERT_TRUE(load_images(dir, pristine));

    // The graph file: its section table and each adjacency section.
    const auto graph_regions = regions_of(
        pristine.graph,
        {SectionKind::kGraphMeta, SectionKind::kGraphDegrees,
         SectionKind::kGraphOffsets, SectionKind::kGraphIds,
         SectionKind::kGraphRows});
    // The table, meta and degrees, plus rows (dense) or offsets and ids.
    ASSERT_EQ(graph_regions.size(), rep == graph::GraphRep::kDense ? 4u : 5u);
    // Mutations must reach the parsers and be caught there, not by the
    // checksum. The few that load hit bytes no parser reads: alignment
    // padding, a table entry's pad field, another representation's offsets.
    EXPECT_GT(fuzz_file(dir, pristine, false, graph_regions, rng), 250)
        << "graph file, rep " << static_cast<int>(rep);

    // The state file: its section table and the matching, the sections a
    // parser checks (prices, masks and counters take any value).
    const auto state_regions =
        regions_of(pristine.state, {SectionKind::kMatching});
    ASSERT_EQ(state_regions.size(), 2u);
    EXPECT_GT(fuzz_file(dir, pristine, true, state_regions, rng), 250)
        << "state file, rep " << static_cast<int>(rep);
  }
}

/// Toggles one bit of dense channel `channel`'s row `v` in a graph image
/// (the checksum is left stale).
void toggle_row_bit(SnapshotImage& image, std::size_t channel, std::size_t v,
                    std::size_t bit) {
  SnapshotHeader header;
  std::memcpy(&header, image.data(), sizeof(header));
  const std::size_t words_per_row = (header.num_buyers + 63) / 64;
  const SectionEntry rows = section_of(image, SectionKind::kGraphRows);
  GraphMetaRecord meta;
  std::memcpy(&meta,
              image.data() + section_of(image, SectionKind::kGraphMeta).offset +
                  channel * sizeof(GraphMetaRecord),
              sizeof(meta));
  ASSERT_EQ(meta.rep, static_cast<std::uint32_t>(graph::GraphRep::kDense));
  const std::size_t at = rows.offset + meta.rows_off +
                         (v * words_per_row + bit / 64) * sizeof(std::uint64_t) +
                         (bit % 64) / 8;
  image[at] ^= static_cast<std::byte>(1u << (bit % 8));
}

/// Graph image of a dense market with one bit of channel 0's row `v`
/// toggled, the checksum re-stamped.
Images with_row_bit_toggled(std::size_t v, std::size_t bit) {
  Images images = images_as(82, graph::GraphRep::kDense);
  toggle_row_bit(images.graph, 0, v, bit);
  restamp(images.graph);
  return images;
}

TEST(SnapshotFuzzTest, DenseRowDefectsFailWithTheirOwnMessage) {
  const fs::path dir = scratch_dir("store_rows");
  const Images pristine = images_as(82, graph::GraphRep::kDense);
  SnapshotHeader header;
  std::memcpy(&header, pristine.graph.data(), sizeof(header));
  const std::size_t n = header.num_buyers;
  ASSERT_NE(n % 64, 0u) << "the padding case needs a partial last word";

  const auto expect = [&](const Images& images, const char* needle) {
    const auto [state, graph] = write_pair(dir, "rows", images);
    expect_load_error(state, graph, {needle});
  };
  expect(with_row_bit_toggled(3, n), "sets a padding bit");
  expect(with_row_bit_toggled(5, 5), "sets its own diagonal bit");
  // Toggling an off-diagonal bit keeps every structural rule but one: the
  // row's popcount no longer matches its cached degree.
  expect(with_row_bit_toggled(7, 9), "disagrees with its row popcount");
}

TEST(SnapshotFuzzTest, LowestDefectiveChannelNamesTheErrorAtAnyLaneCount) {
  // Channels are checked one per lane; with defects in channels 3 and 11,
  // the error is channel 3's whichever lane finishes first.
  const fs::path dir = scratch_dir("store_two_defects");
  const auto scenario = random_scenario(84, 16, 100);
  Images images = images_of(market::build_market(*scenario), *scenario);
  toggle_row_bit(images.graph, 3, 5, 9);   // off-diagonal: popcount
  toggle_row_bit(images.graph, 11, 7, 7);  // its own diagonal bit
  restamp(images.graph);
  const auto [state, graph] = write_pair(dir, "m", images);
  std::string first;
  for (const int lanes : {1, testutil::contract_lanes()}) {
    SCOPED_TRACE(testing::Message() << "lanes " << lanes);
    ScopedThreads scope(lanes);
    try {
      (void)load_pair(state, graph);
      FAIL() << "a graph file with two defective channels loaded";
    } catch (const SnapshotError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("channel 3: cached degree of vertex 5 disagrees "
                          "with its row popcount"),
                std::string::npos)
          << what;
      if (first.empty()) first = what;
      EXPECT_EQ(what, first);
    }
  }
}

TEST(SnapshotFuzzTest, WrappingEdgeCountFailsLoudly) {
  // num_edges + 2^63 doubles to the true 2 * num_edges modulo 2^64, so every
  // check on 2 * num_edges would pass; the count must be bounded first.
  const fs::path dir = scratch_dir("store_edges");
  Images images = images_as(83, graph::GraphRep::kCsr);
  const std::size_t at =
      section_of(images.graph, SectionKind::kGraphMeta).offset +
      offsetof(GraphMetaRecord, num_edges) + 7;
  images.graph[at] ^= std::byte{0x80};
  restamp(images.graph);
  const auto [state, graph] = write_pair(dir, "edges", images);
  expect_load_error(state, graph, {"edge count exceeds"});
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
    // Every channel reads its adjacency through the mapping.
    EXPECT_TRUE(got.view_backed()) << "channel " << i;
    EXPECT_EQ(got, want) << "channel " << i;
    EXPECT_EQ(got.max_degree(), want.max_degree()) << "channel " << i;

    const graph::ComponentIndex fresh(want);
    const graph::ComponentIndex& index = got.components();
    ASSERT_EQ(index.num_components(), fresh.num_components());
    for (BuyerId v = 0; v < built.num_buyers(); ++v) {
      ASSERT_EQ(index.component_of(v), fresh.component_of(v)) << "vertex " << v;
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

TEST(SnapshotRoundTripTest, MarketBelowDenseMaxLoadsDenseViewBacked) {
  const auto scenario = sparse_scenario(25, 3, 300);
  const market::SpectrumMarket built = market::build_market(*scenario);
  ASSERT_EQ(built.graph(0).representation(), graph::GraphRep::kDense);
  const LoadedMarket loaded = round_trip("store_dense", built, *scenario);
  expect_faithful_round_trip(built, loaded);
  // The dense rows are read in place, so the mapping stays held.
  EXPECT_NE(loaded.backing, nullptr);
}

TEST(SnapshotRoundTripTest, FaultedInDenseRowsAreReadInPlace) {
  // spill_churn's shape: N = 2000, M = 16, every channel dense.
  Rng rng(7);
  const auto scenario = std::make_shared<const market::Scenario>(
      testutil::stratified_scenario(rng, 2000, 0.0));
  const market::SpectrumMarket built = market::build_market(*scenario);
  MarketStore store(dir_config(scratch_dir("store_in_place")));
  const FreshState fresh(built);
  store.write("m", fresh.view(built, *scenario));

  std::vector<graph::InterferenceGraph> copies;
  std::weak_ptr<MappedSnapshot> mapping;
  {
    serve::MarketEntry entry(store.load("m"));
    ASSERT_NE(entry.backing, nullptr) << "the entry dropped its mapping";
    mapping = entry.backing;
    for (ChannelId i = 0; i < built.num_channels(); ++i) {
      SCOPED_TRACE(testing::Message() << "channel " << i);
      const graph::InterferenceGraph& got = entry.market.graph(i);
      ASSERT_EQ(got.representation(), graph::GraphRep::kDense);
      EXPECT_TRUE(got.view_backed());
      EXPECT_EQ(got.adjacency_bytes(), built.graph(i).adjacency_bytes());
      const auto want_rows = built.graph(i).dense_rows();
      const auto got_rows = got.dense_rows();
      ASSERT_TRUE(std::equal(got_rows.begin(), got_rows.end(),
                             want_rows.begin(), want_rows.end()));
      copies.push_back(got);
      EXPECT_FALSE(copies.back().view_backed()) << "a copy borrowed its rows";
    }
  }
  // The entry is gone and its graph file unmapped: the copies still answer
  // from their own rows.
  EXPECT_TRUE(mapping.expired());
  for (ChannelId i = 0; i < built.num_channels(); ++i) {
    SCOPED_TRACE(testing::Message() << "channel " << i);
    const graph::InterferenceGraph& want = built.graph(i);
    const graph::InterferenceGraph& copy = copies[static_cast<std::size_t>(i)];
    EXPECT_EQ(copy, want);
    const auto want_rows = want.dense_rows();
    const auto copy_rows = copy.dense_rows();
    EXPECT_TRUE(std::equal(copy_rows.begin(), copy_rows.end(),
                           want_rows.begin(), want_rows.end()));
    for (BuyerId v = 0; v < built.num_buyers(); v += 97) {
      EXPECT_EQ(copy.degree(v), want.degree(v));
      EXPECT_EQ(copy.has_edge(v, (v + 1) % built.num_buyers()),
                want.has_edge(v, (v + 1) % built.num_buyers()));
    }
  }
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

TEST(SnapshotRoundTripTest, FaultInIsIdenticalAtAnyLaneCount) {
  // Dense and CSR channels side by side. Each lane count must hand out the
  // same rows and arrays and label the same components.
  const auto scenario = sparse_scenario(27, 16, 300);
  const market::SpectrumMarket mixed =
      regraphed(market::build_market(*scenario), [](ChannelId i) {
        return i % 2 == 0 ? graph::GraphRep::kCsr : graph::GraphRep::kDense;
      });
  MarketStore store(dir_config(scratch_dir("store_lanes")));
  const FreshState fresh(mixed);
  store.write("m", fresh.view(mixed, *scenario));
  const auto fault_in = [&](int lanes) {
    ScopedThreads scope(lanes);
    return std::make_unique<serve::MarketEntry>(store.load("m"));
  };
  const auto one = fault_in(1);
  const auto many = fault_in(testutil::contract_lanes());

  const auto n = static_cast<std::size_t>(mixed.num_buyers());
  const auto same_bytes = [](const void* a, const void* b, std::size_t bytes) {
    return std::memcmp(a, b, bytes) == 0;
  };
  for (ChannelId i = 0; i < mixed.num_channels(); ++i) {
    SCOPED_TRACE(testing::Message() << "channel " << i);
    const graph::InterferenceGraph& a = one->market.graph(i);
    const graph::InterferenceGraph& b = many->market.graph(i);
    ASSERT_EQ(a.representation(), b.representation());
    if (a.representation() == graph::GraphRep::kDense) {
      const auto a_rows = a.dense_rows();
      const auto b_rows = b.dense_rows();
      EXPECT_TRUE(std::equal(a_rows.begin(), a_rows.end(), b_rows.begin(),
                             b_rows.end()));
    } else {
      const graph::CsrView x = a.csr_export();
      const graph::CsrView y = b.csr_export();
      ASSERT_EQ(x.num_edges, y.num_edges);
      ASSERT_EQ(x.narrow, y.narrow);
      EXPECT_TRUE(same_bytes(x.offsets, y.offsets,
                             (n + 1) * sizeof(std::uint32_t)));
      EXPECT_TRUE(same_bytes(x.degrees, y.degrees, n * sizeof(std::uint32_t)));
      EXPECT_TRUE(x.narrow ? same_bytes(x.ids16, y.ids16,
                                        2 * x.num_edges * sizeof(std::uint16_t))
                           : same_bytes(x.ids32, y.ids32,
                                        2 * x.num_edges * sizeof(std::uint32_t)));
    }
    const graph::ComponentIndex& p = a.components();
    const graph::ComponentIndex& q = b.components();
    ASSERT_EQ(p.num_components(), q.num_components());
    for (BuyerId v = 0; v < mixed.num_buyers(); ++v)
      ASSERT_EQ(p.component_of(v), q.component_of(v)) << "vertex " << v;
    for (std::size_t c = 0; c <= p.num_components(); ++c)
      ASSERT_EQ(p.offset(c), q.offset(c)) << "component " << c;
    const auto p_lists = p.vertices(0, p.num_components());
    const auto q_lists = q.vertices(0, q.num_components());
    EXPECT_TRUE(std::equal(p_lists.begin(), p_lists.end(), q_lists.begin(),
                           q_lists.end()));
  }
  EXPECT_EQ(one->bytes, many->bytes);
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

// --- store lifecycle --------------------------------------------------------

/// A freshly built market with its scenario and per-buyer state, owned so a
/// view can borrow it.
struct Sample {
  explicit Sample(std::uint64_t seed)
      : scenario(random_scenario(seed, 3, 12)),
        market(market::build_market(*scenario)),
        state(market) {}
  MarketStateView view() const { return state.view(market, *scenario); }

  std::shared_ptr<const market::Scenario> scenario;
  market::SpectrumMarket market;
  FreshState state;
};

/// Flips one byte of the file at `path`, past its header.
void damage(const std::string& path) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(100);
  f.put('\x7f');
}

std::uint64_t size_of(const std::string& path) {
  return static_cast<std::uint64_t>(fs::file_size(path));
}

TEST(MarketStoreLifecycleTest, WriteReturnsAndCountsBothFiles) {
  const fs::path dir = scratch_dir("store_bytes");
  const Sample a(90);
  const Sample b(91);
  MarketStore store(dir_config(dir));
  const std::uint64_t a_bytes = store.write("a", a.view());
  store.write("b", b.view());
  const std::uint64_t a_pair =
      size_of(store.path_for("a")) + size_of(store.graph_path_for("a"));
  const std::uint64_t b_pair =
      size_of(store.path_for("b")) + size_of(store.graph_path_for("b"));
  EXPECT_EQ(a_bytes, a_pair);
  EXPECT_EQ(store.bytes_for("a"), a_pair);
  EXPECT_EQ(store.disk_bytes(), a_pair + b_pair);
  // A second spill skips the graph file but still reports the pair.
  EXPECT_EQ(store.write("a", a.view()), a_pair);
  // The cold-boot scan finds the same bytes.
  const MarketStore rebooted(dir_config(dir));
  EXPECT_EQ(rebooted.disk_bytes(), a_pair + b_pair);
  EXPECT_EQ(rebooted.bytes_for("b"), b_pair);
}

TEST(MarketStoreLifecycleTest, SecondSpillOfAnUnchangedMarketSkipsTheGraphFile) {
  const fs::path dir = scratch_dir("store_skip");
  const Sample sample(92);
  MarketStore store(dir_config(dir));
  store.write("m", sample.view());
  // A hard link keeps the first graph file's inode: a rewrite would rename a
  // new file over the name, a skip leaves the name on the same inode.
  const fs::path keep = dir / "keep.link";
  fs::create_hard_link(store.graph_path_for("m"), keep);
  store.write("m", sample.view());
  EXPECT_TRUE(fs::equivalent(keep, store.graph_path_for("m")));
  expect_faithful_round_trip(sample.market, store.load("m"));

  // A store booted on the directory has not verified the graph file, so its
  // first spill rewrites it; a load that verifies the pair makes the next
  // spill skip it again.
  MarketStore rebooted(dir_config(dir));
  rebooted.write("m", sample.view());
  EXPECT_FALSE(fs::equivalent(keep, rebooted.graph_path_for("m")));
  MarketStore loaded(dir_config(dir));
  (void)loaded.load("m");
  fs::remove(keep);
  fs::create_hard_link(loaded.graph_path_for("m"), keep);
  loaded.write("m", sample.view());
  EXPECT_TRUE(fs::equivalent(keep, loaded.graph_path_for("m")));
}

TEST(MarketStoreLifecycleTest, AFailedLoadMakesTheNextSpillRewriteTheGraphFile) {
  // A graph file damaged after the store wrote it fails the load; the store
  // then no longer trusts it, so the next spill writes a good one.
  const fs::path dir = scratch_dir("store_relearn");
  const Sample sample(98);
  MarketStore store(dir_config(dir));
  store.write("m", sample.view());
  damage(store.graph_path_for("m"));
  EXPECT_THROW((void)store.load("m"), SnapshotError);
  store.write("m", sample.view());
  expect_faithful_round_trip(sample.market, store.load("m"));
}

TEST(MarketStoreLifecycleTest, RemoveDeletesBothFiles) {
  const fs::path dir = scratch_dir("store_remove");
  const Sample sample(93);
  MarketStore store(dir_config(dir));
  store.write("m", sample.view());
  ASSERT_TRUE(fs::exists(store.path_for("m")));
  ASSERT_TRUE(fs::exists(store.graph_path_for("m")));
  EXPECT_TRUE(store.remove("m"));
  EXPECT_FALSE(fs::exists(store.path_for("m")));
  EXPECT_FALSE(fs::exists(store.graph_path_for("m")));
  EXPECT_FALSE(store.contains("m"));
  EXPECT_EQ(store.disk_bytes(), 0u);
  EXPECT_FALSE(store.remove("m"));
  // The next write of the id writes a whole pair again.
  store.write("m", sample.view());
  expect_faithful_round_trip(sample.market, store.load("m"));
}

TEST(MarketStoreLifecycleTest, ColdBootIgnoresAGraphFileWithoutAStateFile) {
  const fs::path dir = scratch_dir("store_orphan");
  const Sample a(94);
  const Sample b(95);
  {
    MarketStore store(dir_config(dir));
    store.write("a", a.view());
    store.write("b", b.view());
    // A crash between b's two renames: b's graph file, no state file. Make
    // it a corrupt one, so trusting it would show.
    fs::remove(store.path_for("b"));
    damage(store.graph_path_for("b"));
  }
  MarketStore store(dir_config(dir));
  EXPECT_EQ(store.ids(), std::vector<std::string>{"a"});
  EXPECT_FALSE(store.contains("b"));
  EXPECT_EQ(store.bytes_for("b"), 0u);
  EXPECT_EQ(store.disk_bytes(), store.bytes_for("a"));
  // The id's next first spill overwrites the orphan.
  store.write("b", b.view());
  EXPECT_TRUE(store.contains("b"));
  expect_faithful_round_trip(b.market, store.load("b"));
}

TEST(MarketStoreLifecycleTest, NewCreateAfterAFailedSpillWritesItsOwnGraphs) {
  // A spill that writes the graph file and then fails on the state file
  // leaves only the graph file. A later create of the id under another
  // scenario must write its own graphs, not inherit those.
  const fs::path dir = scratch_dir("store_failed_spill");
  const Sample first(96);
  const Sample second(97);
  MarketStore store(dir_config(dir));
  // A directory where the state file's temp file goes makes its open fail.
  const fs::path blocker = store.path_for("m") + ".tmp";
  fs::create_directories(blocker);
  EXPECT_THROW(store.write("m", first.view()), SnapshotError);
  EXPECT_TRUE(fs::exists(store.graph_path_for("m")));
  EXPECT_FALSE(store.contains("m"));
  EXPECT_EQ(store.disk_bytes(), 0u);
  fs::remove(blocker);

  store.write("m", second.view());
  expect_faithful_round_trip(second.market, store.load("m"));
  // And the first scenario again: its graphs come back, not the second's.
  store.write("m", first.view());
  expect_faithful_round_trip(first.market, store.load("m"));
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

/// Expects every channel of `got` to hold `want`'s dense rows word for word.
void expect_same_rows(const market::SpectrumMarket& got,
                      const market::SpectrumMarket& want) {
  ASSERT_EQ(got.num_channels(), want.num_channels());
  for (ChannelId i = 0; i < want.num_channels(); ++i) {
    SCOPED_TRACE(testing::Message() << "channel " << i);
    ASSERT_EQ(got.graph(i).representation(), graph::GraphRep::kDense);
    const auto got_rows = got.graph(i).dense_rows();
    const auto want_rows = want.graph(i).dense_rows();
    EXPECT_TRUE(std::equal(got_rows.begin(), got_rows.end(),
                           want_rows.begin(), want_rows.end()));
    EXPECT_EQ(got.graph(i), want.graph(i));
  }
}

TEST(RegistrySpillTest, ReleasedPagesReadBackWordForWord) {
  const auto scenario = sparse_scenario(43, 3, 300);
  const market::SpectrumMarket built = market::build_market(*scenario);
  MarketStore store(dir_config(scratch_dir("store_release")));
  const FreshState fresh(built);
  store.write("m", fresh.view(built, *scenario));
  serve::MarketEntry entry(store.load("m"));
  ASSERT_NE(entry.backing, nullptr);
  entry.backing->release_pages();
  expect_same_rows(entry.market, built);
  EXPECT_EQ(matching::run_two_stage(entry.market).final_matching(),
            matching::run_two_stage(built).final_matching());
}

TEST(RegistrySpillTest, FailedFaultInLeavesTheReleasedVictimServing) {
  // A budget of one market: faulting "b" in releases the pages of "a", its
  // would-be victim, before "b"'s graph file is read. "b"'s is corrupt, so
  // the fault-in fails and "a" stays resident, reading its rows back from
  // its graph file.
  const auto scenario = sparse_scenario(44, 3, 300);
  const market::SpectrumMarket built = market::build_market(*scenario);
  const fs::path dir = scratch_dir("store_release_failed");
  serve::MarketRegistry probe(std::size_t{1} << 30, StoreConfig{});
  const std::size_t one = probe.create("probe", scenario, 0, nullptr).bytes;

  serve::MarketRegistry registry(one, dir_config(dir));
  registry.create("a", scenario, 1, nullptr);
  registry.create("b", scenario, 2, nullptr);  // spills "a"
  registry.fault_in("a", 3, nullptr);          // spills "b"
  serve::MarketEntry* a = registry.find("a", 4);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(a->backing, nullptr);
  const matching::Matching before =
      matching::run_two_stage(a->market).final_matching();
  const std::size_t total = registry.total_bytes();
  const std::int64_t faults = registry.faults();

  damage(registry.store().graph_path_for("b"));
  EXPECT_THROW(registry.fault_in("b", 5, nullptr), SnapshotError);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_TRUE(registry.contains("a"));
  EXPECT_TRUE(registry.is_spilled("b"));
  EXPECT_EQ(registry.total_bytes(), total);
  EXPECT_EQ(registry.faults(), faults);
  EXPECT_EQ(registry.discarded(), 0);

  a = registry.find("a", 6);
  ASSERT_NE(a, nullptr);
  expect_same_rows(a->market, built);
  EXPECT_EQ(matching::run_two_stage(a->market).final_matching(), before);
}

TEST(RegistrySpillTest, SpillDisabledDiscardsButCountsHonestly) {
  // With no store, an eviction loses the market, and discarded() says so.
  const auto scenario = random_scenario(42, 2, 6);
  serve::MarketRegistry probe(std::size_t{1} << 30, StoreConfig{});
  const std::size_t one = probe.create("probe", scenario, 0, nullptr).bytes;

  serve::MarketRegistry registry(one + one / 2, StoreConfig{});
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

TEST(ServerStoreTest, RetryOnAPartlyValidStoreGivesTheSameAnswers) {
  // One intact market beside a corrupt state file, a corrupt graph file and
  // a mismatched pair. Restore and fault-in, retried, must give the same
  // error and leave the same registry state each time, while the intact
  // market keeps serving.
  const fs::path dir = scratch_dir("store_partial");
  const std::vector<std::string> broken = {"bad_state", "bad_graph",
                                           "mismatched"};
  {
    serve::MatchServer server(store_server_config(dir, 1));
    std::uint64_t seed = 100;
    for (const std::string& id : {std::string("ok"), broken[0], broken[1],
                                  broken[2]}) {
      ASSERT_TRUE(
          server.handle(create_request(id, random_scenario(seed++, 2, 6))).ok);
      ASSERT_TRUE(server.handle(verb_request(serve::RequestType::kSolve, id)).ok);
      ASSERT_TRUE(
          server.handle(verb_request(serve::RequestType::kSnapshot, id)).ok);
    }
  }
  MarketStore store(dir_config(dir));
  damage(store.path_for("bad_state"));
  damage(store.graph_path_for("bad_graph"));
  fs::copy_file(store.graph_path_for("ok"), store.graph_path_for("mismatched"),
                fs::copy_options::overwrite_existing);

  serve::MatchServer server(store_server_config(dir, 1));
  ASSERT_TRUE(server.handle(verb_request(serve::RequestType::kRestore, "ok")).ok);

  struct Round {
    std::vector<std::string> answers;
    std::size_t resident = 0;
    std::size_t spilled = 0;
    std::int64_t faults = 0;
    std::int64_t discarded = 0;
    std::uint64_t disk_bytes = 0;
  };
  const auto retry = [&] {
    Round round;
    for (const std::string& id : broken) {
      for (const serve::RequestType type :
           {serve::RequestType::kRestore, serve::RequestType::kQuery}) {
        const serve::Response response = server.handle(verb_request(type, id));
        EXPECT_FALSE(response.ok) << response.text;
        round.answers.push_back(response.text);
      }
      const serve::Response served =
          server.handle(verb_request(serve::RequestType::kQuery, "ok"));
      EXPECT_TRUE(served.ok) << served.text;
      round.answers.push_back(served.text);
      // The store's own load fails the same way on every try.
      try {
        (void)store.load(id);
        ADD_FAILURE() << id << " loaded";
      } catch (const SnapshotError& e) {
        round.answers.push_back(e.what());
      }
    }
    round.resident = server.resident_markets();
    round.spilled = server.spilled_markets();
    round.faults = server.faults();
    round.discarded = server.discarded();
    round.disk_bytes = server.store_disk_bytes();
    return round;
  };

  const Round first = retry();
  // Each broken market names its own cause.
  EXPECT_NE(first.answers[0].find("checksum mismatch"), std::string::npos)
      << first.answers[0];
  EXPECT_NE(first.answers[4].find("checksum mismatch"), std::string::npos)
      << first.answers[4];
  EXPECT_NE(first.answers[8].find("belong to different markets"),
            std::string::npos)
      << first.answers[8];
  EXPECT_EQ(first.resident, 1u);
  EXPECT_EQ(first.spilled, broken.size());
  for (int attempt = 0; attempt < 3; ++attempt) {
    const Round again = retry();
    EXPECT_EQ(again.answers, first.answers) << "retry " << attempt;
    EXPECT_EQ(again.resident, first.resident);
    EXPECT_EQ(again.spilled, first.spilled);
    EXPECT_EQ(again.faults, first.faults);
    EXPECT_EQ(again.discarded, first.discarded);
    EXPECT_EQ(again.disk_bytes, first.disk_bytes);
  }
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
    const std::string id = std::string("m").append(std::to_string(k));
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
