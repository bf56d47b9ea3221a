#include "serve/registry.hpp"

#include <chrono>
#include <iostream>
#include <limits>
#include <utility>

#include "common/check.hpp"
#include "common/metrics.hpp"
#include "graph/components.hpp"

namespace specmatch::serve {

namespace {

/// Heap bytes of the scenario's own vectors (utilities dominate).
std::size_t scenario_bytes(const market::Scenario& scenario) {
  return scenario.seller_channel_counts.size() * sizeof(int) +
         scenario.buyer_demands.size() * sizeof(int) +
         scenario.buyer_locations.size() * sizeof(graph::Point) +
         scenario.channel_ranges.size() * sizeof(double) +
         scenario.utilities.size() * sizeof(double) +
         scenario.channel_reserves.size() * sizeof(double);
}

}  // namespace

MarketEntry::MarketEntry(std::shared_ptr<const market::Scenario> scenario_in)
    : market(market::build_market(*scenario_in)),
      active(static_cast<std::size_t>(market.num_buyers()), true),
      last(market.num_channels(), market.num_buyers()),
      scenario(std::move(scenario_in)) {
  const std::size_t cells = static_cast<std::size_t>(market.num_channels()) *
                            static_cast<std::size_t>(market.num_buyers());
  base_prices.reserve(cells);
  for (ChannelId i = 0; i < market.num_channels(); ++i)
    for (BuyerId j = 0; j < market.num_buyers(); ++j)
      base_prices.push_back(market.utility(i, j));
  finish_construction();
}

MarketEntry::MarketEntry(store::LoadedMarket&& loaded)
    : market(std::move(*loaded.market)),
      base_prices(std::move(loaded.base_prices)),
      active(loaded.active.begin(), loaded.active.end()),
      last(market.num_channels(), market.num_buyers()),
      has_matching(loaded.has_matching),
      scenario(std::move(loaded.scenario)),
      backing(std::move(loaded.backing)),
      dirty_valid(loaded.dirty_valid),
      solves_cold(loaded.counters[0]),
      solves_warm(loaded.counters[1]),
      warm_fallbacks(loaded.counters[2]),
      warm_fallbacks_cold_start(loaded.counters[3]),
      warm_fallbacks_invariant(loaded.counters[4]),
      mutations(loaded.counters[5]) {
  for (BuyerId j = 0; j < market.num_buyers(); ++j) {
    const std::int32_t seller = loaded.matching[static_cast<std::size_t>(j)];
    if (seller >= 0) last.match(j, static_cast<SellerId>(seller));
  }
  finish_construction();
  for (BuyerId j = 0; j < market.num_buyers(); ++j)
    if (loaded.dirty[static_cast<std::size_t>(j)] != 0)
      dirty.set(static_cast<std::size_t>(j));
}

void MarketEntry::finish_construction() {
  // Force the per-channel component indices now: mutations and warm solves
  // read them on the serving hot path, and building here keeps first-request
  // latency flat and the byte estimate complete. Each graph owns its cache,
  // so the builds share nothing.
  market::for_each_channel(
      market.num_channels(), static_cast<std::size_t>(market.num_buyers()),
      [&](std::size_t i) {
        (void)market.graph(static_cast<ChannelId>(i)).components();
      });
  dirty.assign_zero(static_cast<std::size_t>(market.num_buyers()));
  bytes = resident_bytes();
}

std::size_t MarketEntry::resident_bytes() const {
  const auto m = static_cast<std::size_t>(market.num_channels());
  const auto n = static_cast<std::size_t>(market.num_buyers());
  const std::size_t cells = m * n;
  const std::size_t mask_words = (n + 63) / 64;
  std::size_t total = 0;
  for (ChannelId i = 0; i < market.num_channels(); ++i) {
    total += market.graph(i).adjacency_bytes();
    total += market.graph(i).component_index_bytes();
  }
  total += 2 * cells * sizeof(double);   // live + base prices
  total += n / 8 + 1;                    // activity mask (vector<bool>)
  total += mask_words * sizeof(std::uint64_t);  // dirty set
  // Carried matching: buyer -> seller plus one member bitset per seller.
  total += n * sizeof(SellerId) + m * mask_words * sizeof(std::uint64_t);
  if (scenario != nullptr) total += scenario_bytes(*scenario);
  // Per-solve workspace scratch this market induces in a drain lane: the
  // flattened preference table (up to one ChannelId per admissible pair)
  // plus a handful of N-sized arrays. An estimate, deliberately on the
  // generous side — the budget should reflect RSS, not undercount it.
  total += cells * sizeof(ChannelId) + 8 * n * sizeof(double);
  return total;
}

int MarketEntry::active_count() const {
  int count = 0;
  for (const bool a : active) count += a ? 1 : 0;
  return count;
}

void MarketEntry::mark_dirty(BuyerId j, ChannelId released) {
  dirty.set(static_cast<std::size_t>(j));
  if (released == kUnmatched) return;
  // A released seat can only newly admit buyers from the leaver's
  // interference component on that channel — mark them all as warm-solve
  // participants so the restricted re-solve offers them the capacity.
  const graph::ComponentIndex& index = market.graph(released).components();
  for (const BuyerId v : index.vertices(index.component_of(j)))
    dirty.set(static_cast<std::size_t>(v));
}

void MarketEntry::apply_join(BuyerId j) {
  const std::size_t jj = static_cast<std::size_t>(j);
  if (active[jj]) return;  // idempotent
  active[jj] = true;
  const std::size_t n = static_cast<std::size_t>(market.num_buyers());
  for (ChannelId i = 0; i < market.num_channels(); ++i)
    market.set_utility(i, j, base_prices[static_cast<std::size_t>(i) * n + jj]);
  // A join releases no seat: the newcomer enters unmatched, and everyone
  // else's current assignment and admissibility are untouched.
  mark_dirty(j, kUnmatched);
  ++mutations;
}

void MarketEntry::apply_leave(BuyerId j) {
  const std::size_t jj = static_cast<std::size_t>(j);
  if (!active[jj]) return;  // idempotent
  active[jj] = false;
  for (ChannelId i = 0; i < market.num_channels(); ++i)
    market.set_utility(i, j, 0.0);
  const SellerId seat = last.seller_of(j);
  last.unmatch(j);
  mark_dirty(j, seat);
  ++mutations;
}

void MarketEntry::apply_price(BuyerId j, ChannelId i, double value) {
  const std::size_t n = static_cast<std::size_t>(market.num_buyers());
  base_prices[static_cast<std::size_t>(i) * n + static_cast<std::size_t>(j)] =
      value;
  if (active[static_cast<std::size_t>(j)]) {
    market.set_utility(i, j, value);
    // The carried assignment of j is only stale if the cell she is matched
    // on changed (it may have dropped below the reserve, or no longer be
    // the price she'd accept). A change on another channel is Stage II's
    // job: phase 1 invites her to transfer if it now beats her seat.
    if (last.seller_of(j) == static_cast<SellerId>(i)) {
      last.unmatch(j);
      mark_dirty(j, i);
    } else {
      mark_dirty(j, kUnmatched);
    }
  }
  ++mutations;
}

MarketRegistry::MarketRegistry(std::size_t budget_bytes,
                               store::StoreConfig store_config)
    : budget_bytes_(budget_bytes), store_(std::move(store_config)) {}

MarketEntry* MarketRegistry::find(const std::string& id, std::uint64_t seq) {
  auto it = entries_.find(id);
  if (it == entries_.end()) return nullptr;
  it->second.last_used = seq;
  return &it->second;
}

MarketEntry* MarketRegistry::peek(const std::string& id) {
  auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : &it->second;
}

bool MarketRegistry::contains(const std::string& id) const {
  return entries_.count(id) != 0;
}

bool MarketRegistry::is_spilled(const std::string& id) const {
  return entries_.count(id) == 0 && store_.enabled() && store_.contains(id);
}

bool MarketRegistry::known(const std::string& id) const {
  return contains(id) || is_spilled(id);
}

std::size_t MarketRegistry::spilled_count() const {
  if (!store_.enabled()) return 0;
  std::size_t count = 0;
  for (const std::string& id : store_.ids())
    if (entries_.count(id) == 0) ++count;
  return count;
}

std::uint64_t MarketRegistry::spill_entry(const std::string& id,
                                          const MarketEntry& entry) {
  SPECMATCH_CHECK_MSG(entry.scenario != nullptr,
                      "entry " << id << " has no retained scenario to spill");
  const auto n = static_cast<std::size_t>(entry.market.num_buyers());
  std::vector<std::uint8_t> active(n);
  std::vector<std::uint8_t> dirty(n);
  std::vector<std::int32_t> matching(n);
  for (std::size_t j = 0; j < n; ++j) {
    active[j] = entry.active[j] ? 1 : 0;
    dirty[j] = entry.dirty.test(j) ? 1 : 0;
    matching[j] =
        static_cast<std::int32_t>(entry.last.seller_of(static_cast<BuyerId>(j)));
  }
  store::MarketStateView view;
  view.market = &entry.market;
  view.scenario = entry.scenario.get();
  view.base_prices = entry.base_prices;
  view.active = active;
  view.dirty = dirty;
  view.matching = matching;
  view.has_matching = entry.has_matching;
  view.dirty_valid = entry.dirty_valid;
  view.counters = {entry.solves_cold,
                   entry.solves_warm,
                   entry.warm_fallbacks,
                   entry.warm_fallbacks_cold_start,
                   entry.warm_fallbacks_invariant,
                   entry.mutations};
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t bytes = store_.write(id, view);
  if (metrics::enabled())
    metrics::observe("serve.store.spill_ms",
                     std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count());
  return bytes;
}

void MarketRegistry::evict_over_budget(const MarketEntry* protect,
                                       std::vector<std::string>* evicted) {
  while (total_bytes_ > budget_bytes_ && entries_.size() > 1) {
    auto victim = entries_.end();
    std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
    for (auto jt = entries_.begin(); jt != entries_.end(); ++jt) {
      if (&jt->second == protect) continue;  // never evict the newcomer
      if (jt->second.last_used < oldest) {
        oldest = jt->second.last_used;
        victim = jt;
      }
    }
    if (victim == entries_.end()) break;
    if (store_.enabled()) {
      try {
        spill_entry(victim->first, victim->second);
        ++spills_;
        metrics::count("serve.store.spills");
      } catch (const store::SnapshotError& e) {
        // Fail loud but keep serving: the eviction demotes to a discard and
        // the loss is visible in discarded() and on stderr.
        std::cerr << "specmatch: spill of market '" << victim->first
                  << "' failed, discarding: " << e.what() << "\n";
      }
    }
    if (!store_.contains(victim->first)) {
      ++discarded_;
      metrics::count("serve.store.discarded");
    }
    total_bytes_ -= victim->second.bytes;
    if (evicted != nullptr) evicted->push_back(victim->first);
    entries_.erase(victim);
    ++evictions_;
  }
}

MarketEntry& MarketRegistry::create(
    const std::string& id, std::shared_ptr<const market::Scenario> scenario,
    std::uint64_t seq, std::vector<std::string>* evicted) {
  SPECMATCH_CHECK_MSG(entries_.find(id) == entries_.end(),
                      "market id already registered: " << id);
  auto [it, inserted] = entries_.emplace(id, MarketEntry(std::move(scenario)));
  MarketEntry& entry = it->second;
  entry.last_used = seq;
  total_bytes_ += entry.bytes;
  evict_over_budget(&entry, evicted);
  return entry;
}

MarketEntry& MarketRegistry::fault_in(const std::string& id, std::uint64_t seq,
                                      std::vector<std::string>* evicted) {
  SPECMATCH_CHECK_MSG(entries_.find(id) == entries_.end(),
                      "market id already resident: " << id);
  const auto start = std::chrono::steady_clock::now();
  store::LoadedMarket loaded = store_.load(id);  // throws SnapshotError
  auto [it, inserted] = entries_.emplace(id, MarketEntry(std::move(loaded)));
  if (metrics::enabled())
    metrics::observe("serve.store.fault_ms",
                     std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count());
  MarketEntry& entry = it->second;
  entry.last_used = seq;
  total_bytes_ += entry.bytes;
  ++faults_;
  metrics::count("serve.store.faults");
  // The snapshot stays on disk: a later eviction of an unchanged market
  // re-spills over it, and a crash before then still has last-spill state.
  evict_over_budget(&entry, evicted);
  return entry;
}

std::uint64_t MarketRegistry::snapshot_resident(const std::string& id) {
  MarketEntry* entry = peek(id);
  SPECMATCH_CHECK_MSG(entry != nullptr, "market not resident: " << id);
  const std::uint64_t bytes = spill_entry(id, *entry);
  metrics::count("serve.store.snapshots");
  return bytes;
}

}  // namespace specmatch::serve
