// Human-readable explanations for usefulness decisions.
//
// The paper's recovery button exists because users only see *that* a page
// broke; a production extension additionally wants to show *why* a cookie
// was kept or blocked. This module diffs the regular and hidden page
// versions at the level the detection algorithms work on and renders the
// evidence: which structural regions only exist in one version, and which
// text content appeared or disappeared.
//
// Evidence is read from the two snapshots the decision already compared,
// plus each copy's retained HTML. Structure counts rows by interned path
// ID; text re-runs the CVCE feature extraction and diffs (context, hash)
// features. Strings are built only for what a list reports, and a reported
// text row's words are recovered by re-running the streaming builder over
// that copy's HTML. The differential tests compare every list with the
// node-tree oracle in tests/oracle/.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/decision.h"
#include "dom/snapshot.h"
#include "html/stream_snapshot.h"

namespace cookiepicker::core {

struct DifferenceExplanation {
  DecisionResult decision;

  // Structural regions (element paths like "body>div>main>section") present
  // in only one version, largest first, capped at `maxItems`.
  std::vector<std::string> structureOnlyInRegular;
  std::vector<std::string> structureOnlyInHidden;

  // Context-content strings unique to each version, in string order (same
  // cap).
  std::vector<std::string> textOnlyInRegular;
  std::vector<std::string> textOnlyInHidden;

  // One-paragraph rendering for logs / the recovery dialog.
  std::string summary() const;
};

struct ExplainOptions {
  DecisionConfig decision;
  std::size_t maxItems = 5;
};

// One copy of a page as the detector saw it: its snapshot and the HTML the
// snapshot was built from.
struct PageCopy {
  const dom::TreeSnapshot& snapshot;
  std::string_view html;
};

// Reusable scratch for snapshot evidence: one per engine, not thread-safe.
struct EvidenceScratch {
  CvceScratch cvce;
  std::vector<LocatedFeature> regularFeatures;
  std::vector<LocatedFeature> hiddenFeatures;
  std::vector<LocatedFeature> oneSided;
  // Countable rows' path IDs, sorted; the walk's open frames.
  std::vector<dom::ContextId> regularPaths;
  std::vector<dom::ContextId> hiddenPaths;
  struct PathFrame {
    std::uint32_t row;
    dom::ContextId path;
    int level;
  };
  std::vector<PathFrame> pathStack;
  // A path's tag chain, and tag names by SymbolId.
  std::vector<dom::SymbolId> chain;
  std::vector<std::optional<std::string>> symbolNames;
  // Re-runs a copy's HTML to recover the text of reported rows.
  html::StreamingSnapshotBuilder builder;
  std::string collapsed;
};

// The structure lists' rendering, shared with the node-tree oracle: paths
// with a positive excess multiplicity as "path (xN)", ordered by excess
// (larger first), then path, capped at `maxItems`.
std::vector<std::string> renderPathExcess(
    std::vector<std::pair<int, std::string>> excess, std::size_t maxItems);

// Runs the decision algorithms and gathers the supporting evidence.
DifferenceExplanation explainDifference(PageCopy regular, PageCopy hidden,
                                        const ExplainOptions& options = {});

// Evidence-gathering half of explainDifference: fills the four
// structure/text lists without re-running the decision (the caller supplies
// `explanation.decision` itself, typically from a verdict it already has —
// the audit trail uses this to attach evidence to cookie-caused verdicts).
// Counts two CVCE extractions.
void collectDifferenceEvidence(PageCopy regular, PageCopy hidden,
                               const ExplainOptions& options,
                               EvidenceScratch& scratch,
                               DifferenceExplanation& explanation);

}  // namespace cookiepicker::core
