// MarketStore: a directory of market snapshots, one file per market id.
//
// This is the spill tier under the serving registry's byte budget: instead
// of discarding an evicted market (and paying a full scenario rebuild on
// re-admission), the registry writes its complete resident state through
// write() and faults it back through load(). Both directions keep each
// channel's resident representation: write() stores dense channels as their
// bitset rows and CSR channels as their finalized arrays, and load() copies
// dense rows back word for word and POINTS CSR graphs at the mapped pages
// (graph::InterferenceGraph::from_csr_view). Fault-in cost is page-in plus
// flat copies, not a rebuild, and the carried matching comes back with the
// market so it warm-serves immediately.
//
// File naming: the market id, percent-encoded (every byte outside
// [A-Za-z0-9._-] becomes %XX), with a ".spms" extension. Writes go through a
// temp file + rename, so a crash mid-spill leaves the previous snapshot (or
// nothing) — never a torn file; torn bytes from any other cause are caught
// by the checksum at load and reported as SnapshotError.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
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

/// A market reconstructed from a snapshot. `market`'s CSR graphs may read
/// through `backing`'s mapped pages — whoever adopts the market must keep
/// `backing` alive as long as the graphs (the registry stores it in the
/// entry). `backing` is null when no graph reads through the mapping (every
/// channel loaded dense), so the mapping is released at once.
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

struct StoreConfig {
  std::string dir;    ///< snapshot directory; empty disables the store
  bool spill = true;  ///< evictions write snapshots instead of discarding
  bool sync = false;  ///< fsync snapshots before the rename

  bool enabled() const { return !dir.empty(); }

  /// SPECMATCH_STORE_DIR / SPECMATCH_STORE_SPILL / SPECMATCH_STORE_FSYNC.
  static StoreConfig from_env();
};

/// Serializes one MarketStateView into a complete snapshot file image
/// (exposed for tests that corrupt images deliberately).
SnapshotImage build_snapshot_image(const MarketStateView& state);

/// Reconstructs a market from a verified mapping. Validates every section's
/// shape and each channel's adjacency — CSR: monotone offsets, in-range
/// neighbour ids; dense: no padding or diagonal bit, degrees equal row
/// popcounts — before handing out graphs; throws SnapshotError on anything
/// inconsistent.
LoadedMarket load_market(std::shared_ptr<MappedSnapshot> snapshot);

class MarketStore {
 public:
  /// Creates the directory if missing and scans it for existing snapshots
  /// (the cold-boot inventory). A default-constructed config disables the
  /// store: every write/load call then fails loudly.
  explicit MarketStore(StoreConfig config);

  bool enabled() const { return config_.enabled(); }
  const StoreConfig& config() const { return config_; }

  /// Market ids with a snapshot on disk, sorted (scanned at construction and
  /// maintained by write/remove).
  std::vector<std::string> ids() const;

  bool contains(const std::string& id) const;

  /// Snapshot file path for `id` (whether or not one exists yet).
  std::string path_for(const std::string& id) const;

  /// Serializes `state` and atomically replaces `id`'s snapshot. Returns the
  /// bytes written. Throws SnapshotError on I/O failure.
  std::uint64_t write(const std::string& id, const MarketStateView& state);

  /// Maps and reconstructs `id`'s snapshot. Throws SnapshotError when the
  /// snapshot is missing, corrupt, or from an incompatible writer.
  LoadedMarket load(const std::string& id) const;

  /// Deletes `id`'s snapshot; false when none existed.
  bool remove(const std::string& id);

  /// Total snapshot bytes on disk.
  std::uint64_t disk_bytes() const;

  /// Bytes of `id`'s snapshot on disk; 0 when absent.
  std::uint64_t bytes_for(const std::string& id) const;

 private:
  StoreConfig config_;
  mutable std::mutex mutex_;  ///< guards sizes_ (writes can come from lanes)
  std::map<std::string, std::uint64_t> sizes_;  ///< id -> snapshot bytes
};

/// Percent-encodes a market id into a filesystem-safe file stem (and back).
std::string encode_market_id(const std::string& id);
std::string decode_market_id(const std::string& stem);

}  // namespace specmatch::store
