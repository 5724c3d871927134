// The CookiePicker decision algorithm — Section 4.3 / Figure 5.
//
// Given the regular and hidden page snapshots, compute both similarity
// metrics; only when *both* fall at or below their (conservative, 0.85)
// thresholds is the difference attributed to the disabled cookies rather
// than to page dynamics.
#pragma once

#include "core/cvce.h"
#include "core/rstm.h"

namespace cookiepicker::core {

enum class DecisionMode {
  Both,      // the paper: tree AND text must differ (conservative)
  TreeOnly,  // ablation: structural metric alone
  TextOnly,  // ablation: content metric alone
  Either,    // ablation: tree OR text (aggressive)
};

struct DecisionConfig {
  double treeThreshold = 0.85;   // Thresh1
  double textThreshold = 0.85;   // Thresh2
  int maxLevel = kDefaultMaxLevel;
  CvceOptions cvce;
  bool sameContextCredit = true;  // the s term of Formula 3
  DecisionMode mode = DecisionMode::Both;
};

struct DecisionResult {
  double treeSim = 1.0;
  double textSim = 1.0;
  bool causedByCookies = false;
  // Host-clock cost of the two detection algorithms — the paper's
  // "Detection Time (ms)" column in Table 1.
  double detectionTimeMs = 0.0;
};

// Figure 5's verdict from the two similarities already in `result`: sets
// result.causedByCookies per config.mode and the two thresholds.
void applyDecisionMode(DecisionResult& result, const DecisionConfig& config);

// All reusable scratch memory one detection step needs: the RSTM DP arena,
// the CVCE extraction/merge scratch, and the two feature vectors. One per
// engine (or bench thread); after the first few steps the hot path
// performs no heap allocation at all.
struct DetectionScratch {
  RstmArena rstm;
  CvceScratch cvce;
  CvceFeatureSet regularFeatures;
  CvceFeatureSet hiddenFeatures;
};

// Runs both detection algorithms on the two snapshots (comparison is rooted
// at each document's <body>, per Section 5.2) and applies Figure 5. After
// the first few steps it allocates nothing; the node-tree reference in
// tests/oracle/ returns bit-identical similarities and verdicts.
DecisionResult decideCookieUsefulness(const dom::TreeSnapshot& regularSnapshot,
                                      const dom::TreeSnapshot& hiddenSnapshot,
                                      DetectionScratch& scratch,
                                      const DecisionConfig& config = {});

}  // namespace cookiepicker::core
