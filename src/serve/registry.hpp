// Resident-market registry: id -> market kept warm between requests, with
// LRU eviction under a byte budget and an optional disk spill tier.
//
// A MarketEntry owns the built SpectrumMarket (graphs + live price matrix),
// the un-masked base prices, the per-buyer active mask, and the carried
// matching the warm solve path re-solves on top of. Mutations are applied
// in place by rewriting price cells (join/leave mask a buyer by zeroing her
// column, exactly the dynamics/epochs trick; see docs/SERVING.md for the
// warm-solve legality argument), so steady-state serving never rebuilds a
// graph or reallocates the matrix.
//
// With a store configured (SPECMATCH_STORE_DIR), eviction under the byte
// budget spills the entry instead of discarding it, as a checksummed pair:
// a graph file (scenario and adjacency, which never change after create)
// written at the market's first spill only, and a state file (prices,
// masks, carried matching, stats) written on every spill. A later request
// for the id faults it back by mmap (the CSR graphs read the mapped graph
// file in place), evicting others as needed. Entries restored this way
// warm-serve immediately: the carried matching and dirty set come back with
// them. See docs/PERSISTENCE.md.
//
// The registry is NOT internally synchronised: the MatchServer serialises
// structural operations (create/evict/fault-in) behind its admission
// barrier and guarantees at most one in-flight batch per market, which is
// the only writer of that market's entry. The one exception is the store's
// own disk index, which snapshot requests touch from drain lanes; the
// MarketStore guards it internally.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bitset.hpp"
#include "market/market.hpp"
#include "market/scenario.hpp"
#include "matching/matching.hpp"
#include "store/market_store.hpp"

namespace specmatch::serve {

struct MarketEntry {
  /// Builds the resident market from `scenario` (all buyers start active).
  /// The scenario is retained: the spill tier persists it alongside the
  /// built arrays.
  explicit MarketEntry(std::shared_ptr<const market::Scenario> scenario);

  /// Adopts a market reconstructed from a snapshot, carried matching and
  /// all; keeps the mapping alive for the view-backed graphs.
  explicit MarketEntry(store::LoadedMarket&& loaded);

  market::SpectrumMarket market;    ///< resident; prices masked in place
  std::vector<double> base_prices;  ///< channel-major, un-masked
  std::vector<bool> active;         ///< per-buyer activity mask
  matching::Matching last;          ///< carried matching for warm solves
  bool has_matching = false;        ///< false until the first solve
  /// The creating scenario, retained so eviction can spill it with the
  /// entry (and re-serves of the snapshot can validate against it).
  std::shared_ptr<const market::Scenario> scenario;
  /// The mapped graph file the market's graphs read their adjacency through
  /// when this entry was faulted in from a snapshot; null for freshly built
  /// markets.
  std::shared_ptr<store::MappedSnapshot> backing;

  /// Buyers whose assignment or opportunities a mutation may have changed
  /// since the last solve: the mutated buyer herself, plus — when her seat
  /// on a channel was released — her whole interference component on that
  /// channel (the only buyers the departure can newly admit; edges never
  /// cross components). The warm solve path restricts Stage II to this set,
  /// so untouched components carry over verbatim.
  DynamicBitset dirty;
  /// True once a solve has absorbed every prior mutation, i.e. `dirty` is a
  /// complete delta since the carried matching was produced.
  bool dirty_valid = false;

  // Per-market serving stats, exposed verbatim by the `stats` request; all
  // are functions of the market's request prefix only, hence deterministic
  // across thread counts. They survive spill/fault-in round trips.
  std::int64_t solves_cold = 0;
  std::int64_t solves_warm = 0;
  std::int64_t warm_fallbacks = 0;  ///< total warm requests answered cold
  /// The two disjoint reasons a warm request goes cold: no carried matching
  /// to re-solve on top of vs. the re-solve regressing carried welfare
  /// (their sum is warm_fallbacks).
  std::int64_t warm_fallbacks_cold_start = 0;
  std::int64_t warm_fallbacks_invariant = 0;
  std::int64_t mutations = 0;

  std::size_t bytes = 0;        ///< resident_bytes() at build/fault-in
  std::uint64_t last_used = 0;  ///< admission seq of the last request (LRU)

  int active_count() const;

  /// The entry's resident footprint: adjacency + component indices, both
  /// price matrices, activity and dirty masks, the carried matching, the
  /// retained scenario, and an estimate of the per-solve workspace scratch
  /// the market induces (preference table + per-buyer arrays). The eviction
  /// budget compares against this, not just adjacency_bytes(), so it tracks
  /// real RSS.
  std::size_t resident_bytes() const;

  /// Re-activates buyer j: her column is restored from base_prices. She
  /// enters the next solve unmatched (joins never disrupt anyone else).
  void apply_join(BuyerId j);

  /// Deactivates buyer j: her column is zeroed (invisible to every
  /// algorithm) and her carried assignment is released.
  void apply_leave(BuyerId j);

  /// Updates b_{i,j} (base and, when j is active, live). Invalidation
  /// touches only what changed: j is unmatched from the carried matching iff
  /// the updated channel is the one she is matched on (a change elsewhere is
  /// handled by Stage II transfers); everyone else's assignment survives.
  void apply_price(BuyerId j, ChannelId i, double value);

 private:
  /// Shared tail of both constructors: force component indices, zero the
  /// dirty set when absent, size the entry.
  void finish_construction();

  /// Marks buyer j dirty; when `released` names a channel whose seat she
  /// just gave up, her interference component there is marked too.
  void mark_dirty(BuyerId j, ChannelId released);
};

class MarketRegistry {
 public:
  /// `store_config` with an empty dir disables the spill tier: evictions
  /// discard, exactly the pre-store behaviour.
  explicit MarketRegistry(std::size_t budget_bytes,
                          store::StoreConfig store_config = {});

  /// Entry by id, bumping LRU recency to `seq`; nullptr when absent.
  MarketEntry* find(const std::string& id, std::uint64_t seq);

  /// Entry by id without bumping recency (introspection); nullptr if absent.
  MarketEntry* peek(const std::string& id);

  /// True when `id` is resident (no recency bump).
  bool contains(const std::string& id) const;

  /// True when `id` is not resident but has a snapshot on disk to fault in.
  bool is_spilled(const std::string& id) const;

  /// Resident or spilled.
  bool known(const std::string& id) const;

  /// Builds and registers a market, then evicts least-recently-used entries
  /// (never the new one) until the byte budget holds again; evicted ids are
  /// appended to `evicted` when non-null. A single market larger than the
  /// whole budget is admitted alone. The id must not already be resident.
  MarketEntry& create(const std::string& id,
                      std::shared_ptr<const market::Scenario> scenario,
                      std::uint64_t seq, std::vector<std::string>* evicted);

  /// Faults a spilled market back in from its snapshot (mmap, verify,
  /// adopt), then evicts under the budget like create. When an eviction is
  /// expected, the entry it would pick first releases its graph file's
  /// pages (MappedSnapshot::release_pages) before the newcomer is mapped.
  /// Throws store::SnapshotError when the snapshot is missing or corrupt —
  /// the id stays non-resident and the error is the caller's to report.
  /// Must only run at the server's admission barrier.
  MarketEntry& fault_in(const std::string& id, std::uint64_t seq,
                        std::vector<std::string>* evicted);

  /// Writes a snapshot of a resident market without evicting it (the
  /// `snapshot` verb). Returns the snapshot pair's bytes on disk; throws
  /// store::SnapshotError on I/O failure. Safe from a drain lane that owns
  /// the market's batch.
  std::uint64_t snapshot_resident(const std::string& id);

  std::size_t size() const { return entries_.size(); }
  std::size_t total_bytes() const { return total_bytes_; }
  std::int64_t evictions() const { return evictions_; }

  bool store_enabled() const { return store_.enabled(); }
  const store::MarketStore& store() const { return store_; }
  /// Snapshots on disk for ids that are not resident.
  std::size_t spilled_count() const;
  std::int64_t spills() const { return spills_; }      ///< evictions spilled
  std::int64_t faults() const { return faults_; }      ///< spills faulted back
  /// Evictions that lost the market for good: no snapshot written and none
  /// on disk: every eviction without a store, and every failed spill. Zero
  /// whenever the spill tier is on and healthy.
  std::int64_t discarded() const { return discarded_; }
  std::uint64_t disk_bytes() const { return store_.disk_bytes(); }

 private:
  /// The least recently used entry other than `protect`; end() when none.
  std::map<std::string, MarketEntry>::iterator lru_victim(
      const MarketEntry* protect);

  /// LRU-evicts entries other than `protect` until the budget holds,
  /// spilling each victim to the store when configured.
  void evict_over_budget(const MarketEntry* protect,
                         std::vector<std::string>* evicted);

  /// Serializes `entry` through the store. Throws store::SnapshotError.
  std::uint64_t spill_entry(const std::string& id, const MarketEntry& entry);

  std::size_t budget_bytes_;
  std::size_t total_bytes_ = 0;
  std::int64_t evictions_ = 0;
  std::int64_t spills_ = 0;
  std::int64_t faults_ = 0;
  std::int64_t discarded_ = 0;
  store::MarketStore store_;
  // Node-based map: entry addresses stay stable across later creates, so a
  // drained server can hand out MarketEntry* for the batch being processed.
  std::map<std::string, MarketEntry> entries_;
};

}  // namespace specmatch::serve
