// MatchServer: the in-process market serving engine.
//
// Requests are admitted through a bounded queue into per-market FIFO
// batches; a ThreadPool drains one batch at a time per market (markets in
// flight concurrently, requests of one market strictly serialised), each
// lane re-solving on its own resident MatchWorkspace so the steady state
// allocates nothing. Mutations invalidate only the carried assignments they
// touch, so `solve warm` runs Stage II alone on the surviving matching —
// the dynamics/epochs warm policy, served online.
//
// Determinism contract (what serve_smoke pins bit-for-bit): the content of
// every response depends only on the per-market request order, which equals
// admission order; a transcript re-sequenced by Request::seq is therefore
// identical across SPECMATCH_THREADS / SPECMATCH_SERVE_THREADS settings.
// Everything timing-dependent — batch sizes, coalescing, solve dedup, shed
// counts, latencies — is reported through common/metrics only and never
// appears in a response. See docs/SERVING.md.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "matching/workspace.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"

namespace specmatch::serve {

struct ServeConfig {
  /// What submit() does when the admission queue is at capacity.
  enum class Overflow : std::uint8_t {
    kBlock,   ///< wait for space (lossless replay: specmatch_cli serve)
    kReject,  ///< shed the request, submit() returns false (load shedding)
  };

  /// Drain lanes: markets drained concurrently, each on its own worker
  /// thread with a resident workspace. Default: SPECMATCH_SERVE_THREADS,
  /// falling back to the engine thread count.
  int drain_lanes = 1;
  /// Admission queue capacity in requests. Default: SPECMATCH_SERVE_QUEUE
  /// (1024).
  int queue_capacity = 1024;
  /// Resident-market byte budget for LRU eviction. Default:
  /// SPECMATCH_SERVE_MEM_MB (4096).
  std::size_t mem_budget_mb = 4096;
  Overflow overflow = Overflow::kBlock;
  /// Escape hatch: after every warm solve, CHECK the result is
  /// interference-free and individually rational. (The third warm invariant
  /// — welfare no worse than the carried matching — is always enforced: a
  /// regressing warm solve is discarded and the request re-answered cold,
  /// counted in `fallbacks_invariant`.) Default: SPECMATCH_SERVE_CHECK_WARM.
  bool check_warm = false;
  /// Tests only: submit() enqueues without scheduling; batches run when
  /// drain_pending_for_tests() is called, making coalescing observable and
  /// deterministic.
  bool manual_drain = false;
  /// Snapshot store (disk spill tier + snapshot/restore verbs). An empty
  /// dir disables it: evictions discard, store verbs answer "err". With a
  /// dir, every eviction spills. Default: SPECMATCH_STORE_DIR /
  /// SPECMATCH_STORE_FSYNC.
  store::StoreConfig store;

  /// Defaults with the SPECMATCH_SERVE_* / SPECMATCH_STORE_* environment
  /// overrides applied.
  static ServeConfig from_env();
};

struct Response {
  bool ok = false;
  std::uint64_t seq = 0;  ///< admission seq of the request answered
  std::string text;       ///< full "ok ..." / "err ..." line
};

/// Invoked exactly once per admitted request, from whichever thread finished
/// the request (a drain worker, or the submitter for creates, restores and
/// manual drains). Must be thread-safe; keep it cheap.
using ResponseCallback = std::function<void(const Response&)>;

class MatchServer {
 public:
  explicit MatchServer(ServeConfig config = ServeConfig::from_env());
  ~MatchServer();

  MatchServer(const MatchServer&) = delete;
  MatchServer& operator=(const MatchServer&) = delete;

  /// Admits `request` and arranges for `callback` to receive its response.
  /// Returns false iff the queue was full under Overflow::kReject (the
  /// request is shed; the callback is never invoked). `create` requests are
  /// barriers: the server drains, then builds the market (and runs LRU
  /// eviction) with nothing in flight, so eviction order is a pure function
  /// of admission order.
  bool submit(Request request, ResponseCallback callback);

  /// Synchronous convenience: submit + wait for the response. Under
  /// manual_drain, pending batches are drained inline first.
  Response handle(Request request);

  /// Blocks until every admitted request has been answered.
  void drain();

  /// manual_drain mode: processes every pending batch inline, markets in
  /// lexicographic id order (deterministic).
  void drain_pending_for_tests();

  // --- introspection (accessors are approximate while requests are in
  // flight; exact after drain()) ------------------------------------------
  std::size_t resident_markets() const;
  std::size_t resident_bytes() const;
  /// Admitted-but-unanswered requests right now. The networked front-end
  /// polls this before submitting: under Overflow::kBlock it stops reading
  /// a connection instead of letting submit() park the event loop, so
  /// backpressure propagates to the client as TCP flow control.
  int pending() const;
  int queue_capacity() const { return config_.queue_capacity; }
  /// True when a full queue blocks the submitter instead of shedding.
  bool overflow_blocks() const {
    return config_.overflow == ServeConfig::Overflow::kBlock;
  }
  std::int64_t evictions() const;
  // Store tier counters (0 / false when no store is configured).
  bool store_enabled() const;
  std::size_t spilled_markets() const;
  std::int64_t spills() const;
  std::int64_t faults() const;
  std::int64_t discarded() const;
  std::uint64_t store_disk_bytes() const;
  std::int64_t coalesced() const { return coalesced_; }
  std::int64_t shed() const { return shed_; }
  std::int64_t solves_deduped() const { return deduped_; }
  /// Sum of the engines' measured steady-round allocations across every
  /// solve served (0 unless SPECMATCH_COUNT_ALLOCS is enabled).
  std::int64_t steady_allocs() const { return steady_allocs_; }

  /// Test hook: the carried matching of a market (nullptr when absent or
  /// never solved). Only valid while no request for that market is in
  /// flight.
  const matching::Matching* last_matching(const std::string& id);

  const ServeConfig& config() const { return config_; }

 private:
  struct Envelope {
    Request request;
    ResponseCallback callback;
    std::chrono::steady_clock::time_point admitted;
  };

  struct Batch {
    std::deque<Envelope> items;
    bool scheduled = false;  ///< a drain task owns this market right now
  };

  /// Drains market `id`'s batch (and any requests that arrive while it
  /// runs). Called from a pool task, or inline under manual drain.
  void run_market(const std::string& id);

  /// Processes one request against the registry; must only run while this
  /// market's batch is owned by the caller (or at a barrier).
  Response process(const Request& request,
                   matching::MatchWorkspace& workspace);

  Response process_create(const Request& request);
  Response process_restore(const Request& request);
  /// Faults `id` in at the admission barrier when it is spilled; called by
  /// submit() before enqueueing a non-barrier request. Load errors are left
  /// for process() to report (the id simply stays non-resident).
  void fault_in_if_spilled(const std::string& id);
  std::string solve_response(MarketEntry& entry, const Request& request,
                             matching::MatchWorkspace& workspace);
  void finish(Envelope& envelope, Response response, bool counted_pending);

  ServeConfig config_;
  ThreadPool pool_;

  mutable std::mutex mutex_;
  std::condition_variable space_;  ///< queue has room again
  std::condition_variable idle_;   ///< pending_ == 0 && active_ == 0
  std::map<std::string, Batch> batches_;
  std::vector<std::unique_ptr<matching::MatchWorkspace>> free_workspaces_;
  MarketRegistry registry_;
  std::uint64_t next_seq_ = 0;
  int pending_ = 0;  ///< admitted, not yet answered
  int active_ = 0;   ///< run_market drains in flight

  std::atomic<std::int64_t> coalesced_{0};
  std::atomic<std::int64_t> shed_{0};
  std::atomic<std::int64_t> deduped_{0};
  std::atomic<std::int64_t> steady_allocs_{0};
};

}  // namespace specmatch::serve
