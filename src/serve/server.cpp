#include "serve/server.hpp"

#include <algorithm>
#include <iostream>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "common/config.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "matching/stability.hpp"
#include "matching/two_stage.hpp"

namespace specmatch::serve {

namespace {

bool is_cold_solve(const Request& request) {
  return request.type == RequestType::kSolve && !request.warm;
}

const char* latency_metric(RequestType type, bool warm) {
  switch (type) {
    case RequestType::kCreate: return "serve.latency_create_ms";
    case RequestType::kJoin:
    case RequestType::kLeave:
    case RequestType::kUpdatePrice: return "serve.latency_mutation_ms";
    case RequestType::kSolve:
      return warm ? "serve.latency_solve_warm_ms"
                  : "serve.latency_solve_cold_ms";
    case RequestType::kQuery:
    case RequestType::kStats: return "serve.latency_query_ms";
    case RequestType::kSnapshot:
    case RequestType::kRestore: return "serve.latency_store_ms";
  }
  return "serve.latency_ms";
}

Response error_response(const Request& request, const std::string& detail) {
  Response response;
  response.ok = false;
  response.seq = request.seq;
  std::ostringstream out;
  out << "err " << request_keyword(request.type) << " " << request.market_id
      << ": " << detail;
  response.text = out.str();
  return response;
}

}  // namespace

ServeConfig ServeConfig::from_env() {
  ServeConfig config;
  config.drain_lanes = env_count("SPECMATCH_SERVE_THREADS", 1,
                                 SpecmatchConfig::global().num_threads);
  config.queue_capacity = env_count("SPECMATCH_SERVE_QUEUE", 1, 1024);
  config.mem_budget_mb =
      static_cast<std::size_t>(env_count("SPECMATCH_SERVE_MEM_MB", 1, 4096));
  config.check_warm = env_flag("SPECMATCH_SERVE_CHECK_WARM");
  config.store = store::StoreConfig::from_env();
  return config;
}

MatchServer::MatchServer(ServeConfig config)
    : config_(config),
      // One worker per drain lane: ThreadPool(n) counts the submitting
      // thread as a lane but runs submitted tasks on its n - 1 workers only.
      pool_(static_cast<std::size_t>(std::max(1, config.drain_lanes)) + 1),
      registry_(config.mem_budget_mb * std::size_t{1024} * 1024,
                config.store) {
  config_.drain_lanes = std::max(1, config_.drain_lanes);
  config_.queue_capacity = std::max(1, config_.queue_capacity);
  for (int lane = 0; lane < config_.drain_lanes; ++lane)
    free_workspaces_.push_back(std::make_unique<matching::MatchWorkspace>());
}

MatchServer::~MatchServer() { drain(); }

bool MatchServer::submit(Request request, ResponseCallback callback) {
  metrics::count("serve.requests");
  const auto admitted = metrics::enabled()
                            ? std::chrono::steady_clock::now()
                            : std::chrono::steady_clock::time_point{};

  if (request.type == RequestType::kCreate ||
      request.type == RequestType::kRestore) {
    // Creates and restores are barriers: everything in flight finishes
    // first, so the structural registry mutation (build / fault-in, plus the
    // LRU eviction either may trigger) sees final recency values and never
    // races a drain task holding a MarketEntry.
    if (config_.manual_drain) drain_pending_for_tests();
    Envelope envelope{std::move(request), std::move(callback), admitted};
    std::unique_lock<std::mutex> lock(mutex_);
    envelope.request.seq = next_seq_++;
    idle_.wait(lock, [&] { return pending_ == 0 && active_ == 0; });
    Response response = envelope.request.type == RequestType::kCreate
                            ? process_create(envelope.request)
                            : process_restore(envelope.request);
    lock.unlock();
    finish(envelope, std::move(response), /*counted_pending=*/false);
    return true;
  }

  // Any other verb naming a spilled market faults it back in first — the
  // disk tier is transparent to clients that simply keep using an id.
  if (registry_.store_enabled()) fault_in_if_spilled(request.market_id);

  Envelope envelope{std::move(request), std::move(callback), admitted};
  std::string id;
  bool schedule = false;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (pending_ >= config_.queue_capacity) {
      if (config_.overflow == ServeConfig::Overflow::kReject) {
        ++shed_;
        metrics::count("serve.shed");
        return false;
      }
      space_.wait(lock, [&] { return pending_ < config_.queue_capacity; });
    }
    envelope.request.seq = next_seq_++;
    ++pending_;
    metrics::gauge_set("serve.queue_depth", static_cast<double>(pending_));
    id = envelope.request.market_id;
    Batch& batch = batches_[id];
    if (!batch.items.empty() || batch.scheduled) {
      // This market already has a drain in progress or queued work: the new
      // request rides the same batch instead of costing its own dispatch.
      ++coalesced_;
      metrics::count("serve.coalesced");
    }
    batch.items.push_back(std::move(envelope));
    if (!batch.scheduled && !config_.manual_drain) {
      batch.scheduled = true;
      ++active_;
      schedule = true;
    }
  }
  if (schedule) pool_.submit([this, id] { run_market(id); });
  return true;
}

Response MatchServer::handle(Request request) {
  std::mutex done_mutex;
  std::condition_variable done_cv;
  bool done = false;
  Response out;
  const bool admitted =
      submit(std::move(request), [&](const Response& response) {
        std::lock_guard<std::mutex> lock(done_mutex);
        out = response;
        done = true;
        done_cv.notify_one();
      });
  if (!admitted) {
    out.ok = false;
    out.text = "err shed: admission queue full";
    return out;
  }
  if (config_.manual_drain) drain_pending_for_tests();
  std::unique_lock<std::mutex> lock(done_mutex);
  done_cv.wait(lock, [&] { return done; });
  return out;
}

void MatchServer::drain() {
  if (config_.manual_drain) drain_pending_for_tests();
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [&] { return pending_ == 0 && active_ == 0; });
}

void MatchServer::drain_pending_for_tests() {
  while (true) {
    std::string id;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = std::find_if(batches_.begin(), batches_.end(), [](auto& kv) {
        return !kv.second.items.empty() && !kv.second.scheduled;
      });
      if (it == batches_.end()) return;
      it->second.scheduled = true;
      ++active_;
      id = it->first;
    }
    run_market(id);
  }
}

void MatchServer::run_market(const std::string& id) {
  std::unique_ptr<matching::MatchWorkspace> workspace;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (free_workspaces_.empty()) {
      // More concurrent drains than configured lanes (several threads
      // draining inline under manual_drain): grow the pool. One-time cost;
      // the new workspace is kept and reused like the others.
      workspace = std::make_unique<matching::MatchWorkspace>();
    } else {
      workspace = std::move(free_workspaces_.back());
      free_workspaces_.pop_back();
    }
  }

  std::deque<Envelope> items;
  while (true) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      Batch& batch = batches_[id];
      if (batch.items.empty()) {
        batch.scheduled = false;
        break;
      }
      items.swap(batch.items);
    }
    metrics::observe("serve.batch_size", static_cast<double>(items.size()));
    trace::ScopedSpan span("serve.batch",
                           static_cast<std::int64_t>(items.size()));

    for (std::size_t k = 0; k < items.size();) {
      Response response = process(items[k].request, *workspace);
      const bool dedupable = response.ok && is_cold_solve(items[k].request);
      const std::string text = response.text;
      finish(items[k], std::move(response), /*counted_pending=*/true);
      ++k;
      if (!dedupable) continue;
      // Consecutive cold solves with no mutation between them are the same
      // pure function of the same market state: answer the duplicates with
      // the first response instead of re-running the engine. A rerun would
      // produce the identical line, so batching stays invisible to the
      // transcript; only the dedup counters (metrics) see it.
      while (k < items.size() && is_cold_solve(items[k].request)) {
        Response duplicate;
        duplicate.ok = true;
        duplicate.seq = items[k].request.seq;
        duplicate.text = text;
        if (MarketEntry* entry =
                registry_.find(id, items[k].request.seq)) {
          ++entry->solves_cold;  // stats count solve *requests*
        }
        ++deduped_;
        metrics::count("serve.solves_deduped");
        finish(items[k], std::move(duplicate), /*counted_pending=*/true);
        ++k;
      }
    }
    items.clear();
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    free_workspaces_.push_back(std::move(workspace));
    --active_;
    if (pending_ == 0 && active_ == 0) idle_.notify_all();
  }
}

void MatchServer::finish(Envelope& envelope, Response response,
                         bool counted_pending) {
  if (metrics::enabled()) {
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - envelope.admitted)
                          .count();
    metrics::observe("serve.latency_ms", ms);
    metrics::observe(
        latency_metric(envelope.request.type, envelope.request.warm), ms);
  }
  if (envelope.callback) envelope.callback(response);
  if (!counted_pending) return;
  std::lock_guard<std::mutex> lock(mutex_);
  --pending_;
  metrics::gauge_set("serve.queue_depth", static_cast<double>(pending_));
  if (pending_ == 0 && active_ == 0) idle_.notify_all();
  space_.notify_one();
}

void MatchServer::fault_in_if_spilled(const std::string& id) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (registry_.contains(id) || !registry_.is_spilled(id)) return;
  }
  // Same discipline as create: drain, then mutate the registry with nothing
  // in flight. (Under manual drain the pending batches must run first or
  // the idle wait below would never finish.)
  if (config_.manual_drain) drain_pending_for_tests();
  std::unique_lock<std::mutex> lock(mutex_);
  if (registry_.contains(id) || !registry_.is_spilled(id)) return;  // raced
  idle_.wait(lock, [&] { return pending_ == 0 && active_ == 0; });
  std::vector<std::string> evicted;
  try {
    registry_.fault_in(id, next_seq_, &evicted);
    metrics::count("serve.evictions",
                   static_cast<std::int64_t>(evicted.size()));
  } catch (const store::SnapshotError& e) {
    // Leave the id non-resident: the request this fault-in was serving will
    // be answered with an err line naming the spilled state; the corruption
    // detail goes to stderr once, here.
    std::cerr << "specmatch: fault-in of market '" << id
              << "' failed: " << e.what() << "\n";
  }
}

Response MatchServer::process_restore(const Request& request) {
  if (!registry_.store_enabled())
    return error_response(request,
                          "no snapshot store configured "
                          "(set SPECMATCH_STORE_DIR or pass --store)");
  std::ostringstream out;
  if (registry_.contains(request.market_id)) {
    // Already resident: an idempotent no-op that still bumps recency.
    registry_.find(request.market_id, request.seq);
    out << "ok restore " << request.market_id << " faulted=0 evicted=0";
    Response response;
    response.ok = true;
    response.seq = request.seq;
    response.text = out.str();
    return response;
  }
  if (!registry_.is_spilled(request.market_id))
    return error_response(request, "unknown market (no snapshot on disk)");
  std::vector<std::string> evicted;
  try {
    registry_.fault_in(request.market_id, request.seq, &evicted);
  } catch (const store::SnapshotError& e) {
    return error_response(request, e.what());
  }
  metrics::count("serve.evictions", static_cast<std::int64_t>(evicted.size()));
  out << "ok restore " << request.market_id
      << " faulted=1 evicted=" << evicted.size();
  Response response;
  response.ok = true;
  response.seq = request.seq;
  response.text = out.str();
  return response;
}

Response MatchServer::process_create(const Request& request) {
  if (!request.scenario)
    return error_response(request, "missing scenario payload");
  if (registry_.contains(request.market_id))
    return error_response(request, "market already exists");
  if (registry_.is_spilled(request.market_id))
    return error_response(
        request, "market already exists (spilled to disk; restore it)");
  std::vector<std::string> evicted;
  try {
    MarketEntry& entry = registry_.create(request.market_id, request.scenario,
                                          request.seq, &evicted);
    metrics::count("serve.evictions",
                   static_cast<std::int64_t>(evicted.size()));
    Response response;
    response.ok = true;
    response.seq = request.seq;
    std::ostringstream out;
    out << "ok create " << request.market_id
        << " M=" << entry.market.num_channels()
        << " N=" << entry.market.num_buyers() << " evicted=" << evicted.size();
    response.text = out.str();
    return response;
  } catch (const CheckError& e) {
    return error_response(request, std::string("invalid scenario: ") +
                                       e.what());
  }
}

Response MatchServer::process(const Request& request,
                              matching::MatchWorkspace& workspace) {
  MarketEntry* entry = registry_.find(request.market_id, request.seq);
  if (entry == nullptr) {
    // Distinguish never-heard-of from spilled-but-not-faulted: the latter
    // means the submit-time fault-in failed (corrupt snapshot — details went
    // to stderr) or an eviction raced it; either way the fix is actionable.
    if (registry_.is_spilled(request.market_id))
      return error_response(request,
                            "market is spilled and could not be faulted in "
                            "(see server log; try 'restore')");
    return error_response(request, "unknown market");
  }

  const int num_buyers = entry->market.num_buyers();
  const int num_channels = entry->market.num_channels();
  Response response;
  response.seq = request.seq;
  std::ostringstream out;

  switch (request.type) {
    case RequestType::kJoin:
    case RequestType::kLeave: {
      if (request.buyer < 0 || request.buyer >= num_buyers)
        return error_response(
            request, "buyer " + std::to_string(request.buyer) +
                         " out of range [0, " + std::to_string(num_buyers) +
                         ")");
      if (request.type == RequestType::kJoin)
        entry->apply_join(request.buyer);
      else
        entry->apply_leave(request.buyer);
      out << "ok " << request_keyword(request.type) << " "
          << request.market_id << " " << request.buyer
          << " active=" << entry->active_count();
      break;
    }
    case RequestType::kUpdatePrice: {
      if (request.buyer < 0 || request.buyer >= num_buyers)
        return error_response(
            request, "buyer " + std::to_string(request.buyer) +
                         " out of range [0, " + std::to_string(num_buyers) +
                         ")");
      if (request.channel < 0 || request.channel >= num_channels)
        return error_response(
            request, "channel " + std::to_string(request.channel) +
                         " out of range [0, " + std::to_string(num_channels) +
                         ")");
      entry->apply_price(request.buyer, request.channel, request.value);
      out << "ok price " << request.market_id << " " << request.buyer << " "
          << request.channel << " " << format_double(request.value);
      break;
    }
    case RequestType::kSolve: {
      out << solve_response(*entry, request, workspace);
      break;
    }
    case RequestType::kQuery: {
      out << "ok query " << request.market_id
          << " matched=" << entry->last.num_matched() << " matching=";
      for (BuyerId j = 0; j < num_buyers; ++j) {
        if (j > 0) out << ",";
        const SellerId seller = entry->last.seller_of(j);
        if (seller == kUnmatched)
          out << "-";
        else
          out << seller;
      }
      break;
    }
    case RequestType::kStats: {
      const double welfare =
          entry->has_matching ? entry->last.social_welfare(entry->market)
                              : 0.0;
      StatsTailBuilder tail;
      tail.add("active", static_cast<std::int64_t>(entry->active_count()))
          .add("matched", static_cast<std::int64_t>(entry->last.num_matched()))
          .add("welfare", welfare)
          .add("solves", std::to_string(entry->solves_cold) + "/" +
                             std::to_string(entry->solves_warm))
          .add("fallbacks", entry->warm_fallbacks)
          .add("fallbacks_cold_start", entry->warm_fallbacks_cold_start)
          .add("fallbacks_invariant", entry->warm_fallbacks_invariant)
          .add("mutations", entry->mutations)
          .add("markets", static_cast<std::int64_t>(registry_.size()))
          .add("bytes", static_cast<std::int64_t>(registry_.total_bytes()))
          .add("evictions", registry_.evictions())
          .add("spilled",
               static_cast<std::int64_t>(registry_.spilled_count()))
          .add("spills", registry_.spills())
          .add("faults", registry_.faults())
          .add("discarded", registry_.discarded())
          .add("disk_bytes",
               static_cast<std::int64_t>(registry_.disk_bytes()));
      out << "ok stats " << request.market_id << tail.str();
      break;
    }
    case RequestType::kSnapshot: {
      if (!registry_.store_enabled())
        return error_response(request,
                              "no snapshot store configured "
                              "(set SPECMATCH_STORE_DIR or pass --store)");
      try {
        const std::uint64_t bytes =
            registry_.snapshot_resident(request.market_id);
        out << "ok snapshot " << request.market_id << " bytes=" << bytes;
      } catch (const store::SnapshotError& e) {
        return error_response(request, e.what());
      }
      break;
    }
    case RequestType::kRestore:
      return error_response(request, "restore must go through the barrier");
    case RequestType::kCreate:
      return error_response(request, "create must go through the barrier");
  }

  response.ok = true;
  response.text = out.str();
  return response;
}

std::string MatchServer::solve_response(MarketEntry& entry,
                                        const Request& request,
                                        matching::MatchWorkspace& workspace) {
  const auto note_allocs = [this](std::int64_t sample) {
    if (sample >= 0) steady_allocs_ += sample;
  };
  trace::ScopedSpan span("serve.solve", request.warm ? 1 : 0);
  std::ostringstream out;
  out << "ok solve " << request.market_id << (request.warm ? " warm" : " cold");

  // When a warm request ends up answered cold, the tag records which of the
  // two disjoint reasons applied (both keep the `fallback=cold` prefix the
  // protocol promises).
  const char* fallback_tag = nullptr;

  if (request.warm && entry.has_matching) {
    // Warm path: Stage II alone on the carried matching. Mutations have
    // already invalidated exactly the assignments they touched, so the
    // carried matching is interference-free and admissible; Stage II only
    // improves buyers, hence welfare can only grow. Once the dirty set is
    // tracked, the run is restricted to it — everyone else's assignment
    // carries over verbatim without being rescanned.
    const double carried_welfare = entry.last.social_welfare(entry.market);
    const bool restricted = entry.dirty_valid;
    matching::StageIIConfig stage2;
    if (restricted) stage2.participants = &entry.dirty;
    matching::StageIIResult result = matching::run_transfer_invitation(
        entry.market, entry.last, stage2, workspace);
    note_allocs(result.steady_allocs);
    const double welfare = result.matching.social_welfare(entry.market);
    if (welfare >= carried_welfare - 1e-9) {
      entry.last = std::move(result.matching);
      ++entry.solves_warm;
      entry.dirty.clear();
      entry.dirty_valid = true;
      if (restricted) metrics::count("serve.warm_restricted");
      if (config_.check_warm) {
        SPECMATCH_CHECK_MSG(
            matching::is_interference_free(entry.market, entry.last),
            "warm solve produced an interfering matching: "
                << request.market_id);
        SPECMATCH_CHECK_MSG(
            matching::is_individual_rational(entry.market, entry.last),
            "warm solve violated individual rationality: "
                << request.market_id);
      }
      out << " welfare=" << format_double(welfare)
          << " matched=" << entry.last.num_matched()
          << " rounds=" << (result.phase1_rounds + result.phase2_rounds);
      return out.str();
    }
    // The warm invariant failed: the re-solve lost welfare against the
    // carried matching. Discard it and answer the request cold instead.
    fallback_tag = "cold_invariant";
    ++entry.warm_fallbacks_invariant;
    metrics::count("serve.warm_fallbacks_invariant");
  } else if (request.warm) {
    // No carried matching yet: nothing to re-solve on top of.
    fallback_tag = "cold_start";
    ++entry.warm_fallbacks_cold_start;
    metrics::count("serve.warm_fallbacks_cold_start");
  }

  // Cold path (also the fallback for warm requests, per fallback_tag).
  matching::TwoStageResult result =
      matching::run_two_stage(entry.market, {}, workspace);
  note_allocs(result.stage1.steady_allocs);
  note_allocs(result.stage2.steady_allocs);
  entry.last = result.final_matching();
  entry.has_matching = true;
  entry.dirty.clear();
  entry.dirty_valid = true;
  if (request.warm) {
    ++entry.solves_warm;
    ++entry.warm_fallbacks;
    metrics::count("serve.warm_fallbacks");
  } else {
    ++entry.solves_cold;
  }
  out << " welfare=" << format_double(result.welfare_final)
      << " matched=" << entry.last.num_matched()
      << " rounds=" << (result.stage1.rounds + result.stage2.phase1_rounds +
                        result.stage2.phase2_rounds);
  if (fallback_tag != nullptr) out << " fallback=" << fallback_tag;
  return out.str();
}

int MatchServer::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_;
}

std::size_t MatchServer::resident_markets() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return registry_.size();
}

std::size_t MatchServer::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return registry_.total_bytes();
}

std::int64_t MatchServer::evictions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return registry_.evictions();
}

bool MatchServer::store_enabled() const { return registry_.store_enabled(); }

std::size_t MatchServer::spilled_markets() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return registry_.spilled_count();
}

std::int64_t MatchServer::spills() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return registry_.spills();
}

std::int64_t MatchServer::faults() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return registry_.faults();
}

std::int64_t MatchServer::discarded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return registry_.discarded();
}

std::uint64_t MatchServer::store_disk_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return registry_.disk_bytes();
}

const matching::Matching* MatchServer::last_matching(const std::string& id) {
  std::lock_guard<std::mutex> lock(mutex_);
  MarketEntry* entry = registry_.peek(id);
  return entry != nullptr && entry->has_matching ? &entry->last : nullptr;
}

}  // namespace specmatch::serve
