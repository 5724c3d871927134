#include "core/node_detection.h"

#include <algorithm>
#include <map>
#include <vector>

#include "html/tags.h"
#include "obs/recorder.h"
#include "util/clock.h"
#include "util/strings.h"

namespace cookiepicker::core {

namespace {

using dom::Node;

// Figure 2. `level` is the level of A and B's *parents* per the paper's
// phrasing; the roots of the whole comparison are called with level 0 and
// occupy currentLevel 1.
std::size_t rstmRecursive(const Node& a, const Node& b, int level,
                          int maxLevel) {
  // Line 1-3: different symbols → no match at all.
  if (a.name() != b.name()) return 0;
  // Line 4.
  const int currentLevel = level + 1;
  // Lines 5-8: leaf pairs, non-visible pairs, and pairs beyond the level
  // restriction contribute nothing (and are not descended into).
  if (a.childCount() == 0 || b.childCount() == 0 ||
      !isVisibleStructuralNode(a) || !isVisibleStructuralNode(b) ||
      currentLevel > maxLevel) {
    return 0;
  }
  // Lines 9-19: DP over first-level subtrees.
  const std::size_t m = a.childCount();
  const std::size_t n = b.childCount();
  std::vector<std::vector<std::size_t>> M(m + 1,
                                          std::vector<std::size_t>(n + 1, 0));
  for (std::size_t i = 1; i <= m; ++i) {
    for (std::size_t j = 1; j <= n; ++j) {
      const std::size_t w =
          rstmRecursive(a.child(i - 1), b.child(j - 1), currentLevel,
                        maxLevel);
      M[i][j] = std::max({M[i][j - 1], M[i - 1][j], M[i - 1][j - 1] + w});
    }
  }
  // Line 20.
  return M[m][n] + 1;
}

std::size_t countRecursive(const Node& node, int level, int maxLevel) {
  const int currentLevel = level + 1;
  if (node.childCount() == 0 || !isVisibleStructuralNode(node) ||
      currentLevel > maxLevel) {
    return 0;
  }
  std::size_t total = 1;
  for (const auto& child : node.children()) {
    total += countRecursive(*child, currentLevel, maxLevel);
  }
  return total;
}

// True if an element subtree is "obvious advertisement" by the class/id
// heuristic ("ad", "ads", "advert", "sponsor", "banner", "promo" tokens).
bool looksLikeAdvertisementContainer(const Node& element) {
  // Token-wise match (util::hasAdSignalToken) so "download" or "shadow" do
  // not trip the filter; a single string_view scan per attribute.
  if (!element.isElement()) return false;
  if (const auto classAttr = element.attribute("class");
      classAttr.has_value() && util::hasAdSignalToken(*classAttr)) {
    return true;
  }
  if (const auto idAttr = element.attribute("id");
      idAttr.has_value() && util::hasAdSignalToken(*idAttr)) {
    return true;
  }
  return false;
}

void extractRecursive(const Node& node, const std::string& context,
                      const CvceOptions& options,
                      std::set<std::string>& output) {
  if (node.isText()) {
    const std::string text = dom::collapseWhitespace(node.value());
    if (text.empty()) return;
    if (options.filterNonAlphanumeric && !util::hasAlphanumeric(text)) {
      return;
    }
    if (options.filterDateTime && util::looksLikeDateOrTime(text)) return;
    output.insert(context + kContextSeparator + text);
    return;
  }
  if (node.isComment()) return;

  if (node.isElement()) {
    const std::string& tag = node.name();
    if (options.filterScriptsAndStyles &&
        (tag == "script" || tag == "style" || tag == "noscript")) {
      return;
    }
    if (options.filterOptionText && tag == "option") return;
    if (options.filterAdvertisement &&
        looksLikeAdvertisementContainer(node)) {
      return;
    }
    const std::string currentContext = context + ":" + tag;
    for (const auto& child : node.children()) {
      extractRecursive(*child, currentContext, options, output);
    }
    return;
  }
  // Document / doctype containers: descend without extending the context.
  for (const auto& child : node.children()) {
    extractRecursive(*child, context, options, output);
  }
}

// Collects, for every countable (visible, non-leaf, within-level) node, its
// element path from the comparison root, with a multiplicity count.
void collectPaths(const Node& node, const std::string& prefix, int level,
                  int maxLevel, std::map<std::string, int>& paths) {
  const int currentLevel = level + 1;
  if (node.childCount() == 0 || !isVisibleStructuralNode(node) ||
      currentLevel > maxLevel) {
    return;
  }
  const std::string path =
      prefix.empty() ? node.name() : prefix + ">" + node.name();
  ++paths[path];
  for (const auto& child : node.children()) {
    collectPaths(*child, path, currentLevel, maxLevel, paths);
  }
}

// Paths with higher multiplicity on `left` than on `right`.
std::vector<std::string> pathExcess(const std::map<std::string, int>& left,
                                    const std::map<std::string, int>& right,
                                    std::size_t maxItems) {
  std::vector<std::pair<int, std::string>> excess;
  for (const auto& [path, count] : left) {
    const auto it = right.find(path);
    const int delta = count - (it == right.end() ? 0 : it->second);
    if (delta > 0) excess.emplace_back(delta, path);
  }
  return renderPathExcess(std::move(excess), maxItems);
}

std::vector<std::string> setOnly(const std::set<std::string>& left,
                                 const std::set<std::string>& right,
                                 std::size_t maxItems) {
  std::vector<std::string> only;
  for (const std::string& entry : left) {
    if (only.size() >= maxItems) break;
    if (!right.contains(entry)) only.push_back(entry);
  }
  return only;
}

}  // namespace

bool isVisibleStructuralNode(const dom::Node& node) {
  if (node.isElement()) return !html::isNonVisualTag(node.name());
  // Document nodes act as containers when comparison starts above <body>.
  if (node.isDocument()) return true;
  // Comments have no visual effect; text nodes are leaves handled by CVCE.
  return false;
}

std::size_t restrictedSimpleTreeMatching(const dom::Node& a,
                                         const dom::Node& b, int maxLevel) {
  return rstmRecursive(a, b, /*level=*/0, maxLevel);
}

std::size_t countRestrictedNodes(const dom::Node& root, int maxLevel) {
  return countRecursive(root, /*level=*/0, maxLevel);
}

double nTreeSim(const dom::Node& a, const dom::Node& b, int maxLevel) {
  obs::ScopedTimer span(obs::Timer::RstmDp);
  obs::count(obs::Counter::RstmEvaluations);
  const auto matched =
      static_cast<double>(restrictedSimpleTreeMatching(a, b, maxLevel));
  const auto countA = static_cast<double>(countRestrictedNodes(a, maxLevel));
  const auto countB = static_cast<double>(countRestrictedNodes(b, maxLevel));
  const double denominator = countA + countB - matched;
  // Two trees with nothing countable in the compared region are trivially
  // identical as far as RSTM can see.
  return denominator <= 0.0 ? 1.0 : matched / denominator;
}

const dom::Node& comparisonRoot(const dom::Node& document) {
  const dom::Node* body = document.findFirst("body");
  return body != nullptr ? *body : document;
}

std::set<std::string> extractContextContent(const dom::Node& root,
                                            const CvceOptions& options) {
  obs::ScopedTimer span(obs::Timer::CvceExtract);
  obs::count(obs::Counter::CvceExtractions);
  std::set<std::string> output;
  // The root element's own name seeds the context, so paths are stable
  // regardless of what the root's parent looked like.
  if (root.isElement()) {
    const std::string seed = root.name();
    if (options.filterScriptsAndStyles &&
        (seed == "script" || seed == "style" || seed == "noscript")) {
      return output;
    }
    for (const auto& child : root.children()) {
      extractRecursive(*child, seed, options, output);
    }
  } else {
    for (const auto& child : root.children()) {
      extractRecursive(*child, "", options, output);
    }
  }
  return output;
}

std::string contextOf(const std::string& contextContent) {
  const std::size_t separator = contextContent.find(kContextSeparator);
  return separator == std::string::npos ? contextContent
                                        : contextContent.substr(0, separator);
}

double nTextSim(const std::set<std::string>& s1,
                const std::set<std::string>& s2, bool sameContextCredit) {
  obs::ScopedTimer span(obs::Timer::CvceMerge);
  obs::count(obs::Counter::CvceMerges);
  if (s1.empty() && s2.empty()) return 1.0;

  std::size_t intersection = 0;
  // Strings unique to each side, bucketed by context.
  std::map<std::string, std::size_t> unique1Contexts;
  std::map<std::string, std::size_t> unique2Contexts;

  for (const std::string& entry : s1) {
    if (s2.contains(entry)) {
      ++intersection;
    } else {
      ++unique1Contexts[contextOf(entry)];
    }
  }
  for (const std::string& entry : s2) {
    if (!s1.contains(entry)) {
      ++unique2Contexts[contextOf(entry)];
    }
  }

  const std::size_t unionSize = s1.size() + s2.size() - intersection;

  std::size_t sameContextPairs = 0;
  if (sameContextCredit) {
    for (const auto& [context, count1] : unique1Contexts) {
      const auto it = unique2Contexts.find(context);
      if (it == unique2Contexts.end()) continue;
      // A replacement consumes one string from each side; both were counted
      // in the union, so the credit is twice the number of pairs.
      sameContextPairs += 2 * std::min(count1, it->second);
    }
  }

  const double numerator =
      static_cast<double>(intersection + sameContextPairs);
  return unionSize == 0 ? 1.0 : numerator / static_cast<double>(unionSize);
}

DecisionResult decideCookieUsefulness(const dom::Node& regularDocument,
                                      const dom::Node& hiddenDocument,
                                      const DecisionConfig& config) {
  DecisionResult result;
  const util::StopWatch watch;
  obs::ScopedTimer span(obs::Timer::Decision);

  const dom::Node& regularRoot = comparisonRoot(regularDocument);
  const dom::Node& hiddenRoot = comparisonRoot(hiddenDocument);

  result.treeSim = nTreeSim(regularRoot, hiddenRoot, config.maxLevel);
  const std::set<std::string> regularContent =
      extractContextContent(regularRoot, config.cvce);
  const std::set<std::string> hiddenContent =
      extractContextContent(hiddenRoot, config.cvce);
  result.textSim =
      nTextSim(regularContent, hiddenContent, config.sameContextCredit);

  applyDecisionMode(result, config);
  obs::count(obs::Counter::Decisions);
  obs::count(result.causedByCookies ? obs::Counter::VerdictCookieCaused
                                    : obs::Counter::VerdictNoDifference);
  result.detectionTimeMs = watch.elapsedMs();
  return result;
}

DifferenceExplanation explainDifference(const dom::Node& regularDocument,
                                        const dom::Node& hiddenDocument,
                                        const ExplainOptions& options) {
  DifferenceExplanation explanation;
  explanation.decision = decideCookieUsefulness(
      regularDocument, hiddenDocument, options.decision);
  collectDifferenceEvidence(regularDocument, hiddenDocument, options,
                            explanation);
  return explanation;
}

void collectDifferenceEvidence(const dom::Node& regularDocument,
                               const dom::Node& hiddenDocument,
                               const ExplainOptions& options,
                               DifferenceExplanation& explanation) {
  const Node& regularRoot = comparisonRoot(regularDocument);
  const Node& hiddenRoot = comparisonRoot(hiddenDocument);

  std::map<std::string, int> regularPaths;
  std::map<std::string, int> hiddenPaths;
  collectPaths(regularRoot, "", 0, options.decision.maxLevel, regularPaths);
  collectPaths(hiddenRoot, "", 0, options.decision.maxLevel, hiddenPaths);
  explanation.structureOnlyInRegular =
      pathExcess(regularPaths, hiddenPaths, options.maxItems);
  explanation.structureOnlyInHidden =
      pathExcess(hiddenPaths, regularPaths, options.maxItems);

  const auto regularText =
      extractContextContent(regularRoot, options.decision.cvce);
  const auto hiddenText =
      extractContextContent(hiddenRoot, options.decision.cvce);
  explanation.textOnlyInRegular =
      setOnly(regularText, hiddenText, options.maxItems);
  explanation.textOnlyInHidden =
      setOnly(hiddenText, regularText, options.maxItems);
}

}  // namespace cookiepicker::core
