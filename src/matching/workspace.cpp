#include "matching/workspace.hpp"

#include <algorithm>

#include "common/thread_pool.hpp"
#include "graph/components.hpp"

namespace specmatch::matching {

void MatchWorkspace::prepare(const market::SpectrumMarket& market, int) {
  const int M = market.num_channels();
  const int N = market.num_buyers();
  const auto mu = static_cast<std::size_t>(M);
  const auto nu = static_cast<std::size_t>(N);

  // Preference CSR: rebuilt from scratch every prepare (markets are cheap to
  // re-derive and caching by identity would be unsound — a new market can
  // reuse a dead one's address). Capacities persist, so repeated runs only
  // pay the fill.
  pref_offsets.clear();
  pref_offsets.reserve(nu + 1);
  pref_channels.clear();
  pref_channels.reserve(nu * mu);
  pref_offsets.push_back(0);
  for (BuyerId j = 0; j < N; ++j) {
    market.append_buyer_preference_order(j, pref_channels);
    pref_offsets.push_back(pref_channels.size());
  }

  next_pref.assign(nu, 0);
  if (proposers.size() < mu) proposers.resize(mu);
  for (std::size_t i = 0; i < mu; ++i) proposers[i].assign_zero(nu);

  better_end.assign(nu, 0);
  cursor.assign(nu, 0);
  if (applicants.size() < mu) applicants.resize(mu);
  if (rejected.size() < mu) rejected.resize(mu);
  if (invite_list.size() < mu) invite_list.resize(mu);
  for (std::size_t i = 0; i < mu; ++i) {
    applicants[i].assign_zero(nu);
    rejected[i].assign_zero(nu);
    invite_list[i].assign_zero(nu);
  }
  moves.clear();
  moves.reserve(nu);

  round_channels.clear();
  round_channels.reserve(mu);
  if (coalitions.size() < mu) coalitions.resize(mu);
  for (std::size_t i = 0; i < mu; ++i) coalitions[i].assign_zero(nu);

  apply_set.assign_zero(nu);

  // Force each channel's (lazily built, cached) component index here, so no
  // round builds one: the restricted Stage II departure cascade reads it.
  for (ChannelId i = 0; i < M; ++i) (void)market.graph(i).components();

  // One solver scratch per pool lane, sized for an all-candidate solve on
  // the widest channel: its induced adjacency holds at most the summed
  // degree of the graph, 2E. The capacity is left uninitialised; a solve
  // writes only the rows it keeps.
  const std::size_t lanes = ThreadPool::global().num_threads();
  if (lane_set.size() < lanes) lane_set.resize(lanes);
  if (lane_scratch.size() < lanes) lane_scratch.resize(lanes);
  std::size_t row_entries = 0;
  for (ChannelId i = 0; i < M; ++i)
    row_entries = std::max(row_entries, 2 * market.graph(i).num_edges());
  for (std::size_t lane = 0; lane < lane_set.size(); ++lane) {
    lane_set[lane].assign_zero(nu);
    lane_scratch[lane].reserve(nu, row_entries);
  }
  stage2_active.assign_zero(nu);

  scratch_matching = Matching(M, N);
  displaced.clear();
  displaced.reserve(nu);
  swap_dropped.assign_zero(nu);
}

}  // namespace specmatch::matching
