// The full two-stage distributed spectrum-matching algorithm (§III):
// Stage I adapted deferred acceptance, then Stage II transfer & invitation.
// This is the synchronous, globally-clocked reference implementation; the
// message-passing realisation with per-agent stage-transition rules lives in
// src/dist (§IV).
#pragma once

#include "matching/deferred_acceptance.hpp"
#include "matching/transfer_invitation.hpp"

namespace specmatch::matching {

struct TwoStageConfig {
  graph::MwisAlgorithm coalition_policy = graph::MwisAlgorithm::kGwmin;
  bool record_trace = false;
  bool rescreen_on_departure = false;
  /// Component sharding threshold for both stages (see StageIIConfig).
  int component_min = 0;
};

struct TwoStageResult {
  StageIResult stage1;
  StageIIResult stage2;

  const Matching& final_matching() const { return stage2.matching; }

  /// Cumulative social welfare after each stage/phase (the series of Fig. 7).
  double welfare_stage1 = 0.0;
  double welfare_phase1 = 0.0;
  double welfare_final = 0.0;
};

TwoStageResult run_two_stage(const market::SpectrumMarket& market,
                             const TwoStageConfig& config = {});

/// Workspace-reusing overload: identical results; `workspace` is prepared
/// once here and shared by both stages, so steady-state rounds run
/// allocation-free (see matching/workspace.hpp).
TwoStageResult run_two_stage(const market::SpectrumMarket& market,
                             const TwoStageConfig& config,
                             MatchWorkspace& workspace);

}  // namespace specmatch::matching
