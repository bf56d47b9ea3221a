// Stage I: adapted deferred acceptance (Algorithm 1).
//
// Buyers propose to sellers in descending-utility order; each seller keeps
// her most-preferred interference-free coalition among waiting-list members
// and new proposers — a maximum-weight independent set on her channel's
// interference graph, computed by a pluggable MWIS policy (the paper uses a
// linear-time greedy, §III-B1). Converges in O(MN) rounds (Proposition 1) to
// an interference-free but not yet Nash-stable matching.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/mwis.hpp"
#include "matching/matching.hpp"

namespace specmatch::matching {

struct StageIConfig {
  /// How a seller forms her most-preferred coalition (Algorithm 1 line 12).
  graph::MwisAlgorithm coalition_policy = graph::MwisAlgorithm::kGwmin;
  /// Record the per-round proposal/waiting-list trace (tests, examples).
  bool record_trace = false;
};

/// One Stage-I round as seen by an omniscient observer.
struct StageIRound {
  int round = 0;
  /// (buyer, seller) proposals issued this round.
  std::vector<std::pair<BuyerId, ChannelId>> proposals;
  /// Waiting list L_i of every seller after this round's selection.
  std::vector<std::vector<BuyerId>> waiting_lists;
};

struct StageIResult {
  Matching matching;
  int rounds = 0;
  std::int64_t total_proposals = 0;
  /// Buyers removed from a waiting list to make room for a better coalition.
  std::int64_t total_evictions = 0;
  /// Heap allocations observed across steady-state rounds (round >= 2) when
  /// SPECMATCH_COUNT_ALLOCS is enabled; -1 = not measured. Zero on the
  /// serial path with a warm workspace (the thread pool's dispatch, metrics,
  /// and tracing allocate when active and are reported truthfully).
  std::int64_t steady_allocs = -1;
  std::vector<StageIRound> trace;  ///< non-empty only if record_trace
};

struct MatchWorkspace;

StageIResult run_deferred_acceptance(const market::SpectrumMarket& market,
                                     const StageIConfig& config = {});

/// Workspace-reusing overload: identical results, with all per-run scratch
/// (prepared here) taken from `workspace`.
StageIResult run_deferred_acceptance(const market::SpectrumMarket& market,
                                     const StageIConfig& config,
                                     MatchWorkspace& workspace);

namespace detail {
/// Core loop over a workspace already prepared for `market` (two_stage runs
/// both stages off one prepare).
StageIResult run_deferred_acceptance_prepared(
    const market::SpectrumMarket& market, const StageIConfig& config,
    MatchWorkspace& workspace);
}  // namespace detail

}  // namespace specmatch::matching
