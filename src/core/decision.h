// The CookiePicker decision algorithm — Section 4.3 / Figure 5.
//
// Given the regular and hidden DOM trees, compute both similarity metrics;
// only when *both* fall at or below their (conservative, 0.85) thresholds is
// the difference attributed to the disabled cookies rather than to page
// dynamics.
#pragma once

#include "core/cvce.h"
#include "core/rstm.h"
#include "dom/node.h"

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

// Runs both detection algorithms on the two *documents* (comparison is
// rooted at each document's <body>, per Section 5.2) and applies Figure 5.
DecisionResult decideCookieUsefulness(const dom::Node& regularDocument,
                                      const dom::Node& hiddenDocument,
                                      const DecisionConfig& config = {});

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

// The allocation-free fast path over cached snapshots. Bit-identical
// similarities and verdicts to the document overload (differential
// property test); ~an order of magnitude faster on roster pages.
DecisionResult decideCookieUsefulness(const dom::TreeSnapshot& regularSnapshot,
                                      const dom::TreeSnapshot& hiddenSnapshot,
                                      DetectionScratch& scratch,
                                      const DecisionConfig& config = {});

}  // namespace cookiepicker::core
