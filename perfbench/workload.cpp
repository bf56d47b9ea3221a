#include "workload.hpp"

#include <algorithm>
#include <cmath>

#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "serve/protocol.hpp"
#include "workload/generator.hpp"

namespace perfbench {

namespace sm = specmatch;

namespace {

const std::vector<WorkloadSpec>& all_workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> out;
    WorkloadSpec warm;
    warm.name = "warm_serve";
    warm.markets = 8;
    warm.buyers = 2000;
    warm.conns = 4;
    warm.sub_percolation = true;
    warm.mutations_per_solve = 4;
    warm.mixed_mutations = true;
    warm.warm_solves = true;
    out.push_back(warm);

    WorkloadSpec cold;
    cold.name = "cold_solve";
    cold.markets = 2;
    cold.buyers = 8000;
    cold.conns = 2;
    // Every channel percolates: a range of at least 1 gives mean degree
    // >= 15 at this density, so the giant component holds nearly everyone.
    cold.min_range = 1.0;
    cold.mutations_per_solve = 1;
    cold.warm_solves = false;
    out.push_back(cold);

    WorkloadSpec spill;
    spill.name = "spill_churn";
    spill.markets = 8;
    spill.buyers = 2000;
    spill.conns = 1;
    spill.store = true;
    // Below one market's footprint: every admission evicts all others, so
    // exactly one market is resident at a time.
    spill.mem_mb = 1;
    spill.mutations_per_solve = 1;
    spill.warm_solves = true;
    out.push_back(spill);
    return out;
  }();
  return specs;
}

/// Share of buyers in the largest interference component of the widest
/// channel. Single-demand buyers have no dummy edges, so a channel's graph
/// is the unit-disk graph of its range, and a wider range only adds edges:
/// the widest channel bounds every other channel's largest component.
double widest_channel_share(const sm::market::Scenario& scenario) {
  const double range = *std::max_element(scenario.channel_ranges.begin(),
                                         scenario.channel_ranges.end());
  const sm::graph::InterferenceGraph graph =
      sm::graph::geometric(scenario.buyer_locations, range);
  const sm::graph::ComponentIndex index(graph);
  return static_cast<double>(index.largest_component()) /
         static_cast<double>(graph.num_vertices());
}

std::string wire(const sm::serve::Request& request) {
  std::string bytes = sm::serve::format_request(request);
  if (bytes.empty() || bytes.back() != '\n') bytes.push_back('\n');
  return bytes;
}

}  // namespace

const char* class_name(ReqClass cls) {
  switch (cls) {
    case ReqClass::kCreate: return "create";
    case ReqClass::kMutation: return "mutation";
    case ReqClass::kSolveCold: return "solve_cold";
    case ReqClass::kSolveWarm: return "solve_warm";
    case ReqClass::kStats: return "stats";
  }
  return "?";
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : all_workloads())
    if (spec.name == name) return &spec;
  return nullptr;
}

std::vector<GeneratedMarket> generate_markets(const WorkloadSpec& spec,
                                              std::uint64_t seed) {
  sm::Rng root(seed);
  std::vector<GeneratedMarket> markets;
  for (int k = 0; k < spec.markets; ++k) {
    const sm::Rng base = root.fork(static_cast<std::uint64_t>(k) + 1);
    sm::workload::WorkloadParams params;
    params.num_sellers = spec.channels;
    params.num_buyers = spec.buyers;
    params.area_size = 10.0 * std::sqrt(std::max(spec.buyers, 500) / 500.0);
    params.min_range = spec.min_range;
    // Sub-percolation search starts just above the unit-disk percolation
    // radius at this density (mean degree ~4.5 at r ~ 0.54).
    if (spec.sub_percolation) params.max_range = 0.8;
    GeneratedMarket market;
    market.id = spec.name.substr(0, 1) + std::to_string(k);
    while (true) {
      // Every attempt replays the same draws, so locations and utilities
      // stay fixed and only the ranges shrink.
      sm::Rng rng = base;
      sm::market::Scenario drawn = sm::workload::generate_scenario(params, rng);
      // Stratified ranges: channel i gets the midpoint of the i-th of M
      // equal slices of (min_range, max_range], the same profile on every
      // seed. The draw above still decides positions and utilities, so
      // seeds differ in the inputs but not in how much work they make.
      for (std::size_t i = 0; i < drawn.channel_ranges.size(); ++i)
        drawn.channel_ranges[i] =
            params.min_range + (params.max_range - params.min_range) *
                                   (static_cast<double>(i) + 0.5) /
                                   static_cast<double>(drawn.channel_ranges.size());
      auto scenario = std::make_shared<const sm::market::Scenario>(std::move(drawn));
      if (!spec.sub_percolation || widest_channel_share(*scenario) < 0.1) {
        market.scenario = std::move(scenario);
        break;
      }
      params.max_range *= 0.9;
    }
    markets.push_back(std::move(market));
  }
  return markets;
}

std::vector<WireRequest> setup_requests(
    const std::vector<GeneratedMarket>& markets) {
  std::vector<WireRequest> out;
  for (std::size_t k = 0; k < markets.size(); ++k) {
    sm::serve::Request create;
    create.type = sm::serve::RequestType::kCreate;
    create.market_id = markets[k].id;
    create.scenario = markets[k].scenario;
    out.push_back({wire(create), ReqClass::kCreate});
    sm::serve::Request prime;
    prime.type = sm::serve::RequestType::kSolve;
    prime.market_id = markets[k].id;
    prime.warm = false;
    out.push_back({wire(prime), ReqClass::kSolveCold});
  }
  return out;
}

std::vector<int> markets_of(const WorkloadSpec& spec, int conn) {
  std::vector<int> owned;
  for (int k = 0; k < spec.markets; ++k)
    if (k % spec.conns == conn) owned.push_back(k);
  return owned;
}

WireRequest stats_request(const std::vector<GeneratedMarket>& markets,
                          int market) {
  sm::serve::Request stats;
  stats.type = sm::serve::RequestType::kStats;
  stats.market_id = markets[static_cast<std::size_t>(market)].id;
  return {wire(stats), ReqClass::kStats};
}

ConnectionStream::ConnectionStream(const WorkloadSpec& spec,
                                   const std::vector<GeneratedMarket>& markets,
                                   std::uint64_t seed, int conn)
    : spec_(spec),
      markets_(markets),
      owned_(markets_of(spec, conn)),
      active_(owned_.size(), std::vector<char>(static_cast<std::size_t>(spec.buyers), 1)),
      inactive_(owned_.size()),
      rng_(sm::Rng(seed).fork(1000 + static_cast<std::uint64_t>(conn))) {}

WireRequest ConnectionStream::next() {
  const std::uint64_t group_len =
      static_cast<std::uint64_t>(spec_.mutations_per_solve) + 1;
  const std::uint64_t group = k_ / group_len;
  const bool solve_turn = k_ % group_len == group_len - 1;
  ++k_;
  const std::size_t slot = group % owned_.size();
  const int market = owned_[slot];
  if (solve_turn) return solve(market, spec_.warm_solves);
  return spec_.mixed_mutations ? mutation(slot) : price(market);
}

WireRequest ConnectionStream::price(int market) {
  sm::serve::Request request;
  request.type = sm::serve::RequestType::kUpdatePrice;
  request.market_id = markets_[static_cast<std::size_t>(market)].id;
  request.buyer = static_cast<sm::BuyerId>(rng_.uniform_int(0, spec_.buyers - 1));
  request.channel =
      static_cast<sm::ChannelId>(rng_.uniform_int(0, spec_.channels - 1));
  request.value = rng_.uniform(0.0, 1.0);
  return {wire(request), ReqClass::kMutation};
}

WireRequest ConnectionStream::mutation(std::size_t slot) {
  const int market = owned_[slot];
  const double kind = rng_.uniform();
  if (kind < 0.7) return price(market);
  std::vector<char>& active = active_[slot];
  std::vector<int>& inactive = inactive_[slot];
  sm::serve::Request request;
  request.market_id = markets_[static_cast<std::size_t>(market)].id;
  if (kind < 0.85 || inactive.empty()) {
    request.type = sm::serve::RequestType::kLeave;
    int buyer = 0;
    do {
      buyer = static_cast<int>(rng_.uniform_int(0, spec_.buyers - 1));
    } while (active[static_cast<std::size_t>(buyer)] == 0);
    active[static_cast<std::size_t>(buyer)] = 0;
    inactive.push_back(buyer);
    request.buyer = buyer;
  } else {
    request.type = sm::serve::RequestType::kJoin;
    const auto pick = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(inactive.size()) - 1));
    request.buyer = inactive[pick];
    inactive[pick] = inactive.back();
    inactive.pop_back();
    active[static_cast<std::size_t>(request.buyer)] = 1;
  }
  return {wire(request), ReqClass::kMutation};
}

WireRequest ConnectionStream::solve(int market, bool warm) {
  sm::serve::Request request;
  request.type = sm::serve::RequestType::kSolve;
  request.market_id = markets_[static_cast<std::size_t>(market)].id;
  request.warm = warm;
  return {wire(request), warm ? ReqClass::kSolveWarm : ReqClass::kSolveCold};
}

InterleavedStream::InterleavedStream(const WorkloadSpec& spec,
                                     const std::vector<GeneratedMarket>& markets,
                                     std::uint64_t seed) {
  for (int c = 0; c < spec.conns; ++c)
    streams_.emplace_back(spec, markets, seed, c);
}

WireRequest InterleavedStream::next() {
  WireRequest request = streams_[turn_].next();
  turn_ = (turn_ + 1) % streams_.size();
  return request;
}

}  // namespace perfbench
