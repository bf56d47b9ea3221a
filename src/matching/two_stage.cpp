#include "matching/two_stage.hpp"

#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "matching/workspace.hpp"

namespace specmatch::matching {

TwoStageResult run_two_stage(const market::SpectrumMarket& market,
                             const TwoStageConfig& config) {
  MatchWorkspace workspace;
  return run_two_stage(market, config, workspace);
}

TwoStageResult run_two_stage(const market::SpectrumMarket& market,
                             const TwoStageConfig& config,
                             MatchWorkspace& workspace) {
  trace::ScopedSpan span("two_stage");
  metrics::count("two_stage.runs");
  // Both stages run their bitset hot loops on the runtime-dispatched SIMD
  // kernels (common/simd.hpp); the SPECMATCH_SIMD tier never changes the
  // matching — tiers are bit-identical by contract, enforced by the
  // simd_equivalence ctest.
  workspace.prepare(market);
  TwoStageResult result;

  StageIConfig stage1_config;
  stage1_config.coalition_policy = config.coalition_policy;
  stage1_config.record_trace = config.record_trace;
  result.stage1 =
      detail::run_deferred_acceptance_prepared(market, stage1_config,
                                               workspace);

  StageIIConfig stage2_config;
  stage2_config.coalition_policy = config.coalition_policy;
  stage2_config.rescreen_on_departure = config.rescreen_on_departure;
  result.stage2 = detail::run_transfer_invitation_prepared(
      market, result.stage1.matching, stage2_config, workspace);

  result.welfare_stage1 = result.stage1.matching.social_welfare(market);
  result.welfare_phase1 = result.stage2.after_phase1.social_welfare(market);
  result.welfare_final = result.stage2.matching.social_welfare(market);
  return result;
}

}  // namespace specmatch::matching
