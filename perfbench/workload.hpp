// Seeded workload generator of the repository benchmark.
//
// A workload is a fixed set of markets plus one infinite, deterministic
// request stream per client connection. Everything is a pure function of
// (workload, seed): the same seed yields byte-identical markets and streams,
// and the server only ever sees the generated wire bytes. Markets follow the
// serve_load discipline (M = 16 channels, area 10 * sqrt(N / 500)). See
// perfbench/README.md for why each workload exists.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "market/scenario.hpp"

namespace perfbench {

/// Request class, the unit every latency and span table is split by.
enum class ReqClass : std::uint8_t { kCreate, kMutation, kSolveCold, kSolveWarm, kStats };

const char* class_name(ReqClass cls);

struct WorkloadSpec {
  std::string name;
  int markets = 0;
  int buyers = 0;                ///< N per market
  int channels = 16;             ///< M per market
  int conns = 1;                 ///< closed-loop client connections
  bool sub_percolation = false;  ///< shrink ranges until every component < N/10
  double min_range = 0.0;        ///< lower bound of the channel-range draw
  bool store = false;            ///< server runs with --store
  int mem_mb = 0;                ///< SPECMATCH_SERVE_MEM_MB (0 = default)
  /// Stream shape: groups of `mutations_per_solve` mutations and one solve,
  /// each group on the connection's next owned market (round-robin).
  int mutations_per_solve = 1;
  bool mixed_mutations = false;  ///< 70% price / 15% leave / 15% join, else price
  bool warm_solves = true;       ///< `solve warm` (else `solve cold`)
};

/// The workload named `name`, or nullptr.
const WorkloadSpec* find_workload(const std::string& name);

struct GeneratedMarket {
  std::string id;
  std::shared_ptr<const specmatch::market::Scenario> scenario;
};

struct WireRequest {
  std::string bytes;  ///< newline-terminated wire frame
  ReqClass cls = ReqClass::kStats;
};

std::vector<GeneratedMarket> generate_markets(const WorkloadSpec& spec,
                                              std::uint64_t seed);

/// Setup traffic: `create` then one `solve cold` prime per market.
std::vector<WireRequest> setup_requests(const std::vector<GeneratedMarket>& markets);

/// Markets owned by connection `conn` (every market rides exactly one).
std::vector<int> markets_of(const WorkloadSpec& spec, int conn);

/// `stats` request for one market (the transcript tail).
WireRequest stats_request(const std::vector<GeneratedMarket>& markets, int market);

/// One connection's request stream. Infinite and deterministic.
class ConnectionStream {
 public:
  ConnectionStream(const WorkloadSpec& spec,
                   const std::vector<GeneratedMarket>& markets,
                   std::uint64_t seed, int conn);

  WireRequest next();

 private:
  WireRequest mutation(std::size_t slot);
  WireRequest price(int market);
  WireRequest solve(int market, bool warm);

  const WorkloadSpec& spec_;
  const std::vector<GeneratedMarket>& markets_;
  std::vector<int> owned_;
  /// Per owned market (indexed like owned_): the activity the stream has
  /// produced so far, and the inactive buyers. A leave targets an active
  /// buyer and a join an inactive one, so every join/leave changes the
  /// market and the active share stays near 1 instead of drifting to 1/2.
  std::vector<std::vector<char>> active_;
  std::vector<std::vector<int>> inactive_;
  specmatch::Rng rng_;
  std::uint64_t k_ = 0;  ///< requests generated so far
};

/// Round-robin interleaving of every connection's stream: the order the
/// in-process replays and the traced twin use. Per-market order equals the
/// per-connection order, the only order responses depend on.
class InterleavedStream {
 public:
  InterleavedStream(const WorkloadSpec& spec,
                    const std::vector<GeneratedMarket>& markets,
                    std::uint64_t seed);
  WireRequest next();

 private:
  std::vector<ConnectionStream> streams_;
  std::size_t turn_ = 0;
};

}  // namespace perfbench
