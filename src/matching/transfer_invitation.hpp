// Stage II: transfer and invitation (Algorithm 2).
//
// Phase 1 — buyers apply to transfer to strictly-better sellers; a seller may
// accept applicants that do not interfere with her current (un-evictable)
// members, picking the best such subset; rejected applicants land on her
// invitation list R_i. Phase 2 — sellers screen R_i against their final
// members and invite the highest-priced compatible buyers; a buyer accepts
// when the inviter beats her current coalition. The combined result is
// individually rational and Nash-stable (Propositions 3-4).
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitset.hpp"
#include "graph/mwis.hpp"
#include "matching/matching.hpp"

namespace specmatch::matching {

struct StageIIConfig {
  /// How a seller chooses among simultaneous transfer applicants
  /// (Algorithm 2 line 13).
  graph::MwisAlgorithm coalition_policy = graph::MwisAlgorithm::kGwmin;
  /// Faithful to the paper, sellers screen invitation lists once at Phase 2
  /// entry (line 20). With this flag set, a seller re-screens whenever a
  /// member departs, recovering invitations the literal algorithm misses —
  /// an extension quantified by bench/ablation_rescreen.
  bool rescreen_on_departure = false;
  /// Read by nothing. It stays only so that perfbench/twin.cpp, which
  /// passes it to MatchWorkspace::prepare, keeps compiling; delete it with
  /// that call.
  int component_min = 0;
  /// Restricted mode (the serve warm path): when non-null, only buyers with
  /// their bit set participate in Phase 1 applications; everyone else keeps
  /// her input assignment verbatim, for free. Mid-run departures re-open
  /// capacity, so the run activates the departed buyer's interference
  /// component on her old channel as it goes (the only buyers whose
  /// admissibility the departure can change — interference edges never cross
  /// components). Must outlive the call and be sized to num_buyers.
  const DynamicBitset* participants = nullptr;
};

struct StageIIResult {
  Matching matching;             ///< final matching after both phases
  Matching after_phase1;         ///< snapshot between the phases
  int phase1_rounds = 0;
  int phase2_rounds = 0;
  std::int64_t transfer_applications = 0;
  std::int64_t transfers_accepted = 0;
  std::int64_t invitations_sent = 0;
  std::int64_t invitations_accepted = 0;
  /// Channels whose blocker row (MatchWorkspace::blockers) the run built.
  std::int64_t blocker_rows = 0;
  /// Heap allocations across steady-state rounds (phase-1 and phase-2
  /// rounds >= 2 of their loops) when SPECMATCH_COUNT_ALLOCS is enabled;
  /// -1 = not measured. See StageIResult::steady_allocs.
  std::int64_t steady_allocs = -1;
};

struct MatchWorkspace;

/// Runs Stage II on top of a Stage-I matching (which must be
/// interference-free; checked).
StageIIResult run_transfer_invitation(const market::SpectrumMarket& market,
                                      const Matching& stage1,
                                      const StageIIConfig& config = {});

/// Workspace-reusing overload: identical results, with all per-run scratch
/// (prepared here) taken from `workspace`.
StageIIResult run_transfer_invitation(const market::SpectrumMarket& market,
                                      const Matching& stage1,
                                      const StageIIConfig& config,
                                      MatchWorkspace& workspace);

namespace detail {
/// Core loop over a workspace already prepared for `market`.
StageIIResult run_transfer_invitation_prepared(
    const market::SpectrumMarket& market, const Matching& stage1,
    const StageIIConfig& config, MatchWorkspace& workspace);
}  // namespace detail

}  // namespace specmatch::matching
