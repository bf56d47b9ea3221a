// MarketStore: a directory of market snapshots, two files per market id.
//
// This is the spill tier under the serving registry's byte budget: instead
// of discarding an evicted market (and paying a full scenario rebuild on
// re-admission), the registry writes its state through write() and faults
// it back through load(). A market's graphs are fixed by its scenario, so
// the snapshot is split (store/snapshot.hpp): a GRAPH file — scenario,
// parents, reserves, adjacency — written at the market's first spill and
// never rewritten, and a small STATE file — prices, masks, carried matching,
// counters — rewritten on every spill. write() skips the graph file when its
// own index says the id's graph file on disk carries the digest of the
// view's graphs. Both directions keep each channel's resident
// representation: dense channels as their row blocks, CSR channels as their
// flat arrays; load() POINTS every graph at the mapped graph file
// (InterferenceGraph::from_dense_view, from_csr_view) after checking it.
// Fault-in cost is page-in, checks and small flat copies, not a rebuild, and
// the carried matching comes back with the market so it warm-serves
// immediately.
//
// File naming: the market id, percent-encoded (every byte outside
// [A-Za-z0-9._-] becomes %XX), with ".spms" for the state file and ".spmg"
// for the graph file. The state file names the market: the cold-boot scan
// lists ids by state file only. Writes go graph file first, then state file,
// each through a temp file + rename, so a crash mid-spill leaves the previous
// pair, or a new graph file beside a state file that names the old one (a
// loud SnapshotError at load), never a torn file; torn bytes from any other
// cause are caught by the checksums at load and reported as SnapshotError.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "market/market.hpp"
#include "market/scenario.hpp"
#include "store/snapshot.hpp"

namespace specmatch::store {

/// Everything a snapshot persists, borrowed from the caller (the serving
/// registry's MarketEntry). Spans must stay valid for the write() call only.
struct MarketStateView {
  const market::SpectrumMarket* market = nullptr;
  const market::Scenario* scenario = nullptr;
  std::span<const double> base_prices;        ///< channel-major, M*N
  std::span<const std::uint8_t> active;       ///< per buyer, N
  std::span<const std::uint8_t> dirty;        ///< per buyer, N
  std::span<const std::int32_t> matching;     ///< seller_of per buyer, N
  bool has_matching = false;
  bool dirty_valid = false;
  std::array<std::int64_t, kNumCounters> counters{};
};

/// A market reconstructed from a snapshot pair. `market`'s graphs read
/// their adjacency through `backing`, the mapped graph file — whoever adopts
/// the market must keep `backing` alive as long as the graphs (the registry
/// stores it in the entry).
struct LoadedMarket {
  std::shared_ptr<const market::Scenario> scenario;
  std::unique_ptr<market::SpectrumMarket> market;
  std::vector<double> base_prices;
  std::vector<std::uint8_t> active;
  std::vector<std::uint8_t> dirty;
  std::vector<std::int32_t> matching;  ///< seller_of per buyer, -1 unmatched
  bool has_matching = false;
  bool dirty_valid = false;
  std::array<std::int64_t, kNumCounters> counters{};
  std::shared_ptr<MappedSnapshot> backing;
};

/// With a store configured, registry eviction always spills; a spill that
/// fails is counted as a discard.
struct StoreConfig {
  std::string dir;  ///< snapshot directory; empty disables the store
  /// Read by nothing. It stays only so that perfbench/twin.cpp's
  /// three-member brace initialisers {dir, true, false} keep compiling;
  /// delete it with them.
  bool spill = true;
  bool sync = false;  ///< fsync snapshots before the rename

  bool enabled() const { return !dir.empty(); }

  /// SPECMATCH_STORE_DIR / SPECMATCH_STORE_FSYNC.
  static StoreConfig from_env();
};

/// The graph identity of `state`: a digest of its scenario (the graphs' only
/// input) and of each channel's representation and edge count. A graph file
/// carries it in its header, and the state file names its graph file by it.
std::uint64_t graph_digest(const MarketStateView& state);

/// Serializes one MarketStateView's per-spill state into a complete state
/// file image (exposed for tests that corrupt images deliberately).
SnapshotImage build_snapshot_image(const MarketStateView& state);

/// Serializes one MarketStateView's scenario, parents, reserves and
/// adjacency into a complete graph file image.
SnapshotImage build_graph_image(const MarketStateView& state);

/// Reconstructs a market from a verified state file and graph file. Checks
/// that each is the kind it is handed in as and that the state file names
/// this graph file (errors name both files); checks the graph file's digest
/// against its contents; validates every section's shape and each channel's
/// adjacency — CSR: monotone offsets, in-range neighbour ids; dense: no
/// padding or diagonal bit, degrees equal row popcounts — before handing out
/// graphs. Throws SnapshotError on anything inconsistent.
LoadedMarket load_market(std::shared_ptr<MappedSnapshot> state,
                         std::shared_ptr<MappedSnapshot> graphs);

class MarketStore {
 public:
  /// Creates the directory if missing and scans it for existing state files
  /// (the cold-boot inventory; a graph file without a state file is not a
  /// market and is ignored). A default-constructed config disables the
  /// store: every write/load call then fails loudly.
  explicit MarketStore(StoreConfig config);

  bool enabled() const { return config_.enabled(); }
  const StoreConfig& config() const { return config_; }

  /// Market ids with a state file on disk, sorted (scanned at construction
  /// and maintained by write/remove).
  std::vector<std::string> ids() const;

  bool contains(const std::string& id) const;

  /// State file path for `id` (whether or not one exists yet).
  std::string path_for(const std::string& id) const;

  /// Graph file path for `id` (whether or not one exists yet).
  std::string graph_path_for(const std::string& id) const;

  /// Atomically writes `id`'s graph file, unless the index says the one on
  /// disk already carries graph_digest(state), then atomically replaces its
  /// state file. Returns the bytes of the pair on disk. Throws SnapshotError
  /// on I/O failure.
  std::uint64_t write(const std::string& id, const MarketStateView& state);

  /// Maps and reconstructs `id`'s snapshot pair. Throws SnapshotError when
  /// either file is missing, corrupt, of the wrong kind or from an
  /// incompatible writer, or when the state file names another graph file.
  LoadedMarket load(const std::string& id) const;

  /// Deletes `id`'s state and graph files; false when no state file existed.
  bool remove(const std::string& id);

  /// Total bytes of every listed market's state and graph files.
  std::uint64_t disk_bytes() const;

  /// Bytes of `id`'s state and graph files; 0 when it has no state file.
  std::uint64_t bytes_for(const std::string& id) const;

 private:
  /// What the store knows of one id's files.
  struct OnDisk {
    bool has_state = false;  ///< a state file exists: the id is listed
    std::uint64_t state_bytes = 0;
    std::uint64_t graph_bytes = 0;
    /// The digest of the graph file on disk, when this store wrote it or a
    /// load verified it; empty when unknown, which makes the next write
    /// rewrite the graph file.
    std::optional<std::uint64_t> graph_digest;
  };

  StoreConfig config_;
  mutable std::mutex mutex_;  ///< guards index_ (writes can come from lanes)
  mutable std::map<std::string, OnDisk> index_;  ///< load() records digests
};

/// Percent-encodes a market id into a filesystem-safe file stem (and back).
std::string encode_market_id(const std::string& id);
std::string decode_market_id(const std::string& stem);

}  // namespace specmatch::store
