// The detection algorithms over dom::Node trees — the reference
// implementations of RSTM (Figure 2), CVCE (Figure 4), the Figure 5
// decision and the audit evidence, written straight from the paper over
// string tag names and std::set<std::string> context-content sets. The
// differential suites hold the snapshot versions in src/core/ to
// bit-identical similarities, verdicts and lists.
#pragma once

#include <cstddef>
#include <set>
#include <string>

#include "core/cvce.h"
#include "core/decision.h"
#include "core/explain.h"
#include "core/rstm.h"
#include "dom/node.h"

namespace cookiepicker::core {

// Figure 2, literally: RSTM(A, B, level) with level starting at 0 for the
// roots; pairs at depth >= maxLevel, leaf pairs, and non-visual pairs
// contribute nothing (and prune their subtrees).
std::size_t restrictedSimpleTreeMatching(const dom::Node& a,
                                         const dom::Node& b,
                                         int maxLevel = kDefaultMaxLevel);

// N(A, l): the number of nodes RSTM(A, A, l) would count — non-leaf visible
// nodes in the upper l levels, reachable through counted ancestors.
std::size_t countRestrictedNodes(const dom::Node& root,
                                 int maxLevel = kDefaultMaxLevel);

// Formula 2 over node trees; both-empty trees are similarity 1.
double nTreeSim(const dom::Node& a, const dom::Node& b,
                int maxLevel = kDefaultMaxLevel);

// The comparison root the paper uses: "the top five level of DOM tree
// starting from the body HTML node". Returns the <body> element if the
// document has one, otherwise the document node itself.
const dom::Node& comparisonRoot(const dom::Node& document);

// True if RSTM counts this node: an element with visual effect, or the
// document node. (Leafness and depth are checked by the recursion.)
bool isVisibleStructuralNode(const dom::Node& node);

// Figure 4's contentExtract: preorder traversal collecting the set S of
// context-content strings. `root` is typically comparisonRoot(document).
std::set<std::string> extractContextContent(const dom::Node& root,
                                            const CvceOptions& options = {});

// Formula 3 over string sets: s counts strings unique to one set whose
// context prefix also appears among the other set's unique strings.
double nTextSim(const std::set<std::string>& s1,
                const std::set<std::string>& s2,
                bool sameContextCredit = true);

// The context prefix of a context-content string (everything before the
// separator); the whole string if no separator is present.
std::string contextOf(const std::string& contextContent);

// Runs both detection algorithms on the two *documents* (comparison is
// rooted at each document's <body>, per Section 5.2) and applies Figure 5.
DecisionResult decideCookieUsefulness(const dom::Node& regularDocument,
                                      const dom::Node& hiddenDocument,
                                      const DecisionConfig& config = {});

// The decision plus the four evidence lists, from parsed node trees.
DifferenceExplanation explainDifference(const dom::Node& regularDocument,
                                        const dom::Node& hiddenDocument,
                                        const ExplainOptions& options = {});
void collectDifferenceEvidence(const dom::Node& regularDocument,
                               const dom::Node& hiddenDocument,
                               const ExplainOptions& options,
                               DifferenceExplanation& explanation);

}  // namespace cookiepicker::core
