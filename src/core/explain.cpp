#include "core/explain.h"

#include <algorithm>
#include <stdexcept>

#include "core/cvce.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/text_hash.h"

namespace cookiepicker::core {

std::vector<std::string> renderPathExcess(
    std::vector<std::pair<int, std::string>> excess, std::size_t maxItems) {
  std::sort(excess.begin(), excess.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  std::vector<std::string> rendered;
  for (std::size_t i = 0; i < excess.size() && i < maxItems; ++i) {
    rendered.push_back(excess[i].second +
                       (excess[i].first > 1
                            ? " (x" + std::to_string(excess[i].first) + ")"
                            : ""));
  }
  return rendered;
}

namespace {

const std::string& symbolName(EvidenceScratch& scratch,
                              dom::SymbolId symbol) {
  auto& names = scratch.symbolNames;
  if (symbol >= names.size()) names.resize(symbol + 1);
  if (!names[symbol]) names[symbol] = dom::globalSymbolInterner().name(symbol);
  return *names[symbol];
}

// Appends the path `id` names, tags joined by `separator`. A chain that
// hangs off the empty context starts with the separator, as a CVCE context
// string ":html:..." does.
void appendPath(EvidenceScratch& scratch, dom::ContextId id, char separator,
                std::string& out) {
  const bool seeded = dom::globalContextInterner().tags(id, scratch.chain);
  for (std::size_t k = 0; k < scratch.chain.size(); ++k) {
    if (k > 0 || !seeded) out += separator;
    out += symbolName(scratch, scratch.chain[k]);
  }
}

// The path ID of every countable (visible, non-leaf, within-level) row under
// the comparison root, sorted. Path IDs are context IDs (seed the root,
// extend by each child's symbol), which map one-to-one to tag chains.
void collectPathIds(const dom::TreeSnapshot& snapshot, int maxLevel,
                    EvidenceScratch& scratch,
                    std::vector<dom::ContextId>& paths) {
  paths.clear();
  const auto countable = [&](std::uint32_t row, int level) {
    return snapshot.childCount(row) > 0 && snapshot.visibleStructural(row) &&
           level <= maxLevel;
  };
  const std::uint32_t root = snapshot.comparisonRootIndex();
  if (countable(root, 1)) {
    dom::ContextInterner& contexts = dom::globalContextInterner();
    auto& stack = scratch.pathStack;
    stack.clear();
    const dom::ContextId rootPath = contexts.seed(snapshot.symbol(root));
    paths.push_back(rootPath);
    stack.push_back({root, rootPath, 1});
    while (!stack.empty()) {
      const EvidenceScratch::PathFrame frame = stack.back();
      stack.pop_back();
      for (std::uint32_t k = 0; k < snapshot.childCount(frame.row); ++k) {
        const std::uint32_t child = snapshot.child(frame.row, k);
        if (!countable(child, frame.level + 1)) continue;
        const dom::ContextId path =
            contexts.extend(frame.path, snapshot.symbol(child));
        paths.push_back(path);
        stack.push_back({child, path, frame.level + 1});
      }
    }
  }
  std::sort(paths.begin(), paths.end());
}

// Paths with higher multiplicity in `left` than in `right`, over sorted
// path IDs; strings are built only for paths with a positive excess.
std::vector<std::string> pathExcess(const std::vector<dom::ContextId>& left,
                                    const std::vector<dom::ContextId>& right,
                                    std::size_t maxItems,
                                    EvidenceScratch& scratch) {
  std::vector<std::pair<int, std::string>> excess;
  std::size_t j = 0;
  for (std::size_t i = 0; i < left.size();) {
    const dom::ContextId path = left[i];
    const std::size_t leftEnd =
        std::upper_bound(left.begin() + i, left.end(), path) - left.begin();
    j = std::lower_bound(right.begin() + j, right.end(), path) -
        right.begin();
    const std::size_t rightEnd =
        std::upper_bound(right.begin() + j, right.end(), path) -
        right.begin();
    const auto delta = static_cast<int>(leftEnd - i) -
                       static_cast<int>(rightEnd - j);
    if (delta > 0) {
      std::string rendered;
      appendPath(scratch, path, '>', rendered);
      excess.emplace_back(delta, std::move(rendered));
    }
    i = leftEnd;
    j = rightEnd;
  }
  return renderPathExcess(std::move(excess), maxItems);
}

// Features of `left` that `right` lacks (both sorted by feature).
void featuresOnlyIn(const std::vector<LocatedFeature>& left,
                    const std::vector<LocatedFeature>& right,
                    std::vector<LocatedFeature>& only) {
  only.clear();
  std::size_t j = 0;
  for (const LocatedFeature& entry : left) {
    while (j < right.size() && right[j].feature < entry.feature) ++j;
    if (j == right.size() || !(right[j].feature == entry.feature)) {
      only.push_back(entry);
    }
  }
}

// The first `maxItems`, in string order, of the context-content strings
// "context|>text" that the features in `only` stand for.
std::vector<std::string> textOnly(const std::vector<LocatedFeature>& only,
                                  PageCopy copy, std::size_t maxItems,
                                  EvidenceScratch& scratch) {
  std::vector<std::string> lines;
  if (only.empty() || maxItems == 0) return lines;

  // One "context|>" prefix per context; `only` is sorted by context, so
  // each context is one run of it. Distinct contexts render distinct
  // prefixes (while no tag name contains ':', as the interner assumes) and
  // a context never contains "|>", so no prefix starts another: prefix
  // order is string order, and only a run that shares one prefix needs its
  // text to be ordered.
  struct Run {
    std::string prefix;
    std::size_t begin;
    std::size_t end;
  };
  std::vector<Run> runs;
  for (std::size_t i = 0; i < only.size();) {
    std::size_t end = i + 1;
    while (end < only.size() &&
           only[end].feature.contextId == only[i].feature.contextId) {
      ++end;
    }
    Run& run = runs.emplace_back();
    appendPath(scratch, only[i].feature.contextId, ':', run.prefix);
    run.prefix += kContextSeparator;
    run.begin = i;
    run.end = end;
    i = end;
  }
  std::sort(runs.begin(), runs.end(), [](const Run& a, const Run& b) {
    return a.prefix < b.prefix;
  });

  // Text only for the runs that reach the first `maxItems` lines, read
  // back from a scan that stops once their rows are final.
  std::size_t needed = 0;
  std::size_t features = 0;
  std::uint32_t lastRow = 0;
  while (needed < runs.size() && features < maxItems) {
    const Run& run = runs[needed++];
    features += run.end - run.begin;
    for (std::size_t k = run.begin; k < run.end; ++k) {
      lastRow = std::max(lastRow, only[k].row);
    }
  }
  scratch.builder.scanText(copy.html, lastRow);
  for (std::size_t r = 0; r < needed; ++r) {
    const Run& run = runs[r];
    const std::size_t first = lines.size();
    for (std::size_t k = run.begin; k < run.end; ++k) {
      const std::string_view text = util::collapseWhitespaceView(
          scratch.builder.textRowContent(only[k].row), scratch.collapsed);
      if (util::textHash64(text) != only[k].feature.textHash) {
        throw std::logic_error(
            "collectDifferenceEvidence: html is not the snapshot's source");
      }
      std::string& line = lines.emplace_back(run.prefix);
      line += text;
    }
    std::sort(lines.begin() + static_cast<std::ptrdiff_t>(first),
              lines.end());
  }
  if (lines.size() > maxItems) lines.resize(maxItems);
  return lines;
}

void appendList(std::string& out, const char* heading,
                const std::vector<std::string>& items) {
  if (items.empty()) return;
  out += heading;
  for (const std::string& item : items) {
    out += "\n    " + item;
  }
  out += "\n";
}

}  // namespace

std::string DifferenceExplanation::summary() const {
  std::string out;
  out += "NTreeSim=" + util::TextTable::formatDouble(decision.treeSim, 3) +
         " NTextSim=" + util::TextTable::formatDouble(decision.textSim, 3) +
         " -> " +
         (decision.causedByCookies ? "difference attributed to cookies"
                                   : "no cookie-caused difference") +
         "\n";
  appendList(out, "  structure only with cookies:", structureOnlyInRegular);
  appendList(out, "  structure only without cookies:",
             structureOnlyInHidden);
  appendList(out, "  text only with cookies:", textOnlyInRegular);
  appendList(out, "  text only without cookies:", textOnlyInHidden);
  return out;
}

DifferenceExplanation explainDifference(PageCopy regular, PageCopy hidden,
                                        const ExplainOptions& options) {
  DifferenceExplanation explanation;
  DetectionScratch detection;
  explanation.decision = decideCookieUsefulness(
      regular.snapshot, hidden.snapshot, detection, options.decision);
  EvidenceScratch scratch;
  collectDifferenceEvidence(regular, hidden, options, scratch, explanation);
  return explanation;
}

void collectDifferenceEvidence(PageCopy regular, PageCopy hidden,
                               const ExplainOptions& options,
                               EvidenceScratch& scratch,
                               DifferenceExplanation& explanation) {
  const int maxLevel = options.decision.maxLevel;
  collectPathIds(regular.snapshot, maxLevel, scratch, scratch.regularPaths);
  collectPathIds(hidden.snapshot, maxLevel, scratch, scratch.hiddenPaths);
  explanation.structureOnlyInRegular = pathExcess(
      scratch.regularPaths, scratch.hiddenPaths, options.maxItems, scratch);
  explanation.structureOnlyInHidden = pathExcess(
      scratch.hiddenPaths, scratch.regularPaths, options.maxItems, scratch);

  const CvceOptions& cvce = options.decision.cvce;
  extractContextContentFeatures(regular.snapshot,
                                regular.snapshot.comparisonRootIndex(), cvce,
                                scratch.cvce, scratch.regularFeatures);
  extractContextContentFeatures(hidden.snapshot,
                                hidden.snapshot.comparisonRootIndex(), cvce,
                                scratch.cvce, scratch.hiddenFeatures);
  featuresOnlyIn(scratch.regularFeatures, scratch.hiddenFeatures,
                 scratch.oneSided);
  explanation.textOnlyInRegular =
      textOnly(scratch.oneSided, regular, options.maxItems, scratch);
  featuresOnlyIn(scratch.hiddenFeatures, scratch.regularFeatures,
                 scratch.oneSided);
  explanation.textOnlyInHidden =
      textOnly(scratch.oneSided, hidden, options.maxItems, scratch);
}

}  // namespace cookiepicker::core
