#include "core/decision.h"

#include "obs/recorder.h"
#include "util/clock.h"

namespace cookiepicker::core {

// Shared with the node-tree reference in tests/oracle/, so the threshold
// logic cannot drift between the two.
void applyDecisionMode(DecisionResult& result, const DecisionConfig& config) {
  const bool treeDiffers = result.treeSim <= config.treeThreshold;
  const bool textDiffers = result.textSim <= config.textThreshold;
  switch (config.mode) {
    case DecisionMode::Both:
      result.causedByCookies = treeDiffers && textDiffers;
      break;
    case DecisionMode::TreeOnly:
      result.causedByCookies = treeDiffers;
      break;
    case DecisionMode::TextOnly:
      result.causedByCookies = textDiffers;
      break;
    case DecisionMode::Either:
      result.causedByCookies = treeDiffers || textDiffers;
      break;
  }
}

DecisionResult decideCookieUsefulness(const dom::TreeSnapshot& regularSnapshot,
                                      const dom::TreeSnapshot& hiddenSnapshot,
                                      DetectionScratch& scratch,
                                      const DecisionConfig& config) {
  DecisionResult result;
  const util::StopWatch watch;
  obs::ScopedTimer span(obs::Timer::Decision);

  const std::uint32_t regularRoot = regularSnapshot.comparisonRootIndex();
  const std::uint32_t hiddenRoot = hiddenSnapshot.comparisonRootIndex();

  result.treeSim = nTreeSim(regularSnapshot, regularRoot, hiddenSnapshot,
                            hiddenRoot, scratch.rstm, config.maxLevel);
  extractContextContentFeatures(regularSnapshot, regularRoot, config.cvce,
                                scratch.cvce, scratch.regularFeatures);
  extractContextContentFeatures(hiddenSnapshot, hiddenRoot, config.cvce,
                                scratch.cvce, scratch.hiddenFeatures);
  result.textSim = nTextSim(scratch.regularFeatures, scratch.hiddenFeatures,
                            scratch.cvce, config.sameContextCredit);

  applyDecisionMode(result, config);
  obs::count(obs::Counter::Decisions);
  obs::count(result.causedByCookies ? obs::Counter::VerdictCookieCaused
                                    : obs::Counter::VerdictNoDifference);
  obs::gaugeMax(obs::Gauge::RstmArenaCells,
                static_cast<std::int64_t>(scratch.rstm.cells.size()));
  result.detectionTimeMs = watch.elapsedMs();
  return result;
}

}  // namespace cookiepicker::core
