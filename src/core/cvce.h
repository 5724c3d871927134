// Context-aware Visual Content Extraction (CVCE) and the normalized
// context-content similarity NTextSim — Section 4.2 / Figure 4 / Formula 3.
//
// Every non-noise text node contributes one "context-content string":
// the element-name path from the comparison root down to the text node,
// a separator, then the (whitespace-collapsed) text itself. Comparing the
// two string sets detects the visual content difference a user would
// perceive; the `s` term forgives text *replacement within an identical
// context* (rotating headlines, ad copy), which the paper found essential
// for filtering page dynamics.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "dom/snapshot.h"

namespace cookiepicker::core {

inline constexpr char kContextSeparator[] = "|>";

struct CvceOptions {
  // The paper's noise rules (Section 4.2, after [4]):
  bool filterScriptsAndStyles = true;   // always sensible; togglable for tests
  bool filterAdvertisement = true;      // class/id heuristic
  bool filterDateTime = true;           // "12:30:05", "2007-01-17", ...
  bool filterOptionText = true;         // dropdown lists (country, language)
  bool filterNonAlphanumeric = true;    // pure punctuation/whitespace
};

// The interned form of a context-content string: the context path as a
// global ContextId and the collapsed text as a 64-bit hash. A sorted
// deduplicated vector of these plays the role of the paper's string set S,
// with NTextSim reduced to a linear merge. The string-set reference the
// differential tests compare against lives in tests/oracle/.
struct CvceFeature {
  dom::ContextId contextId = 0;
  std::uint64_t textHash = 0;

  friend bool operator==(const CvceFeature& a, const CvceFeature& b) {
    return a.contextId == b.contextId && a.textHash == b.textHash;
  }
  friend bool operator<(const CvceFeature& a, const CvceFeature& b) {
    return a.contextId != b.contextId ? a.contextId < b.contextId
                                      : a.textHash < b.textHash;
  }
};

using CvceFeatureSet = std::vector<CvceFeature>;

// Reusable scratch for extraction and the merge — reused across detection
// steps so the steady state allocates nothing. Not thread-safe; one per
// engine/thread.
struct CvceScratch {
  // Extraction: open element frames as (subtreeEnd, contextId).
  std::vector<std::pair<std::uint32_t, dom::ContextId>> stack;
  // Merge: per-context counts of each side's unique features.
  std::vector<std::pair<dom::ContextId, std::size_t>> unique1;
  std::vector<std::pair<dom::ContextId, std::size_t>> unique2;
};

// Figure 4's contentExtract over a snapshot: a preorder traversal from
// `root` (typically the snapshot's comparison root) with the noise rules
// precomputed per row at snapshot build, emitting sorted deduplicated
// (contextId, textHash) pairs into `output` (cleared first). The root
// element's own name seeds the context.
void extractContextContentFeatures(const dom::TreeSnapshot& snapshot,
                                   std::uint32_t root,
                                   const CvceOptions& options,
                                   CvceScratch& scratch,
                                   CvceFeatureSet& output);

// A feature plus the preorder row of the first text node that produced it
// — what the audit evidence needs to recover the text behind a hash.
struct LocatedFeature {
  CvceFeature feature;
  std::uint32_t row = 0;
};

// The same extraction (one traversal, same rules, same counters), reporting
// each feature's first row. `output` is sorted by feature and deduplicated.
void extractContextContentFeatures(const dom::TreeSnapshot& snapshot,
                                   std::uint32_t root,
                                   const CvceOptions& options,
                                   CvceScratch& scratch,
                                   std::vector<LocatedFeature>& output);

// Formula 3: NTextSim(S1, S2) = (|S1 ∩ S2| + s) / |S1 ∪ S2|, where s
// counts features unique to one set whose context also appears among the
// other set's unique features (text replacement in the same context). A
// linear merge over two sorted feature sets, with s computed from
// context-bucketed unique counts. Both-empty sets are similarity 1.
// Setting `sameContextCredit` to false drops the s term — plain Jaccard —
// for the noise ablation.
double nTextSim(const CvceFeatureSet& s1, const CvceFeatureSet& s2,
                CvceScratch& scratch, bool sameContextCredit = true);

}  // namespace cookiepicker::core
