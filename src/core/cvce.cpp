#include "core/cvce.h"

#include <algorithm>

#include "obs/recorder.h"

namespace cookiepicker::core {

namespace {

// Figure 4's traversal over a snapshot, calling emit(contextId, row) for
// every text row that survives the noise rules. Both extraction entry
// points run this one walk, so the filters live in exactly one place.
template <typename Emit>
void walkContextContent(const dom::TreeSnapshot& snapshot, std::uint32_t root,
                        const CvceOptions& options, CvceScratch& scratch,
                        Emit&& emit) {
  auto& stack = scratch.stack;
  stack.clear();
  dom::ContextInterner& contexts = dom::globalContextInterner();

  // Seed the context as the reference extractContextContent does: the root
  // element's own name (subject only to the script/style filter), or the
  // empty context when comparison starts above an element.
  dom::ContextId rootContext = dom::ContextInterner::kEmpty;
  if (snapshot.isElement(root)) {
    if (options.filterScriptsAndStyles && snapshot.isScriptish(root)) return;
    rootContext = contexts.seed(snapshot.symbol(root));
  }
  stack.emplace_back(snapshot.subtreeEnd(root), rootContext);

  const std::uint32_t end = snapshot.subtreeEnd(root);
  for (std::uint32_t i = root + 1; i < end;) {
    while (stack.back().first <= i) stack.pop_back();
    const dom::ContextId context = stack.back().second;
    if (snapshot.isText(i)) {
      if (snapshot.textNonEmpty(i) &&
          (!options.filterNonAlphanumeric ||
           snapshot.textHasAlphanumeric(i)) &&
          (!options.filterDateTime || !snapshot.textLooksLikeDateTime(i))) {
        emit(context, i);
      }
      // The reference never descends below a text node; on well-formed DOM
      // this is ++i, but degenerate trees can carry subtrees here.
      i = snapshot.subtreeEnd(i);
    } else if (snapshot.isElement(i)) {
      if ((options.filterScriptsAndStyles && snapshot.isScriptish(i)) ||
          (options.filterOptionText && snapshot.isOption(i)) ||
          (options.filterAdvertisement && snapshot.isAdContainer(i))) {
        i = snapshot.subtreeEnd(i);  // prune the filtered subtree
      } else {
        stack.emplace_back(snapshot.subtreeEnd(i),
                           contexts.extend(context, snapshot.symbol(i)));
        ++i;
      }
    } else if (snapshot.isComment(i)) {
      i = snapshot.subtreeEnd(i);  // reference prunes below comments too
    } else {
      // Document/doctype containers descend without extending the context
      // (no frame needed — theirs is the parent's).
      ++i;
    }
  }
}

}  // namespace

void extractContextContentFeatures(const dom::TreeSnapshot& snapshot,
                                   std::uint32_t root,
                                   const CvceOptions& options,
                                   CvceScratch& scratch,
                                   CvceFeatureSet& output) {
  obs::ScopedTimer span(obs::Timer::CvceExtract);
  obs::count(obs::Counter::CvceExtractions);
  output.clear();
  walkContextContent(snapshot, root, options, scratch,
                     [&](dom::ContextId context, std::uint32_t row) {
                       output.push_back({context, snapshot.textHash(row)});
                     });
  std::sort(output.begin(), output.end());
  output.erase(std::unique(output.begin(), output.end()), output.end());
}

void extractContextContentFeatures(const dom::TreeSnapshot& snapshot,
                                   std::uint32_t root,
                                   const CvceOptions& options,
                                   CvceScratch& scratch,
                                   std::vector<LocatedFeature>& output) {
  obs::ScopedTimer span(obs::Timer::CvceExtract);
  obs::count(obs::Counter::CvceExtractions);
  output.clear();
  walkContextContent(snapshot, root, options, scratch,
                     [&](dom::ContextId context, std::uint32_t row) {
                       output.push_back({{context, snapshot.textHash(row)},
                                         row});
                     });
  // Rows ascend within equal features, so the survivor of each run is the
  // feature's first row.
  std::sort(output.begin(), output.end(),
            [](const LocatedFeature& a, const LocatedFeature& b) {
              return a.feature == b.feature ? a.row < b.row
                                            : a.feature < b.feature;
            });
  output.erase(std::unique(output.begin(), output.end(),
                           [](const LocatedFeature& a,
                              const LocatedFeature& b) {
                             return a.feature == b.feature;
                           }),
               output.end());
}

namespace {

// Counts a unique feature toward its context bucket. Features arrive in
// sorted order, so equal contexts are consecutive and the buckets come out
// sorted by ContextId.
void bumpContext(std::vector<std::pair<dom::ContextId, std::size_t>>& buckets,
                 dom::ContextId context) {
  if (!buckets.empty() && buckets.back().first == context) {
    ++buckets.back().second;
  } else {
    buckets.emplace_back(context, 1);
  }
}

}  // namespace

double nTextSim(const CvceFeatureSet& s1, const CvceFeatureSet& s2,
                CvceScratch& scratch, bool sameContextCredit) {
  obs::ScopedTimer span(obs::Timer::CvceMerge);
  obs::count(obs::Counter::CvceMerges);
  if (s1.empty() && s2.empty()) return 1.0;

  auto& unique1 = scratch.unique1;
  auto& unique2 = scratch.unique2;
  unique1.clear();
  unique2.clear();

  std::size_t intersection = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < s1.size() && j < s2.size()) {
    if (s1[i] == s2[j]) {
      ++intersection;
      ++i;
      ++j;
    } else if (s1[i] < s2[j]) {
      bumpContext(unique1, s1[i].contextId);
      ++i;
    } else {
      bumpContext(unique2, s2[j].contextId);
      ++j;
    }
  }
  for (; i < s1.size(); ++i) bumpContext(unique1, s1[i].contextId);
  for (; j < s2.size(); ++j) bumpContext(unique2, s2[j].contextId);

  const std::size_t unionSize = s1.size() + s2.size() - intersection;

  std::size_t sameContextPairs = 0;
  if (sameContextCredit) {
    std::size_t a = 0;
    std::size_t b = 0;
    while (a < unique1.size() && b < unique2.size()) {
      if (unique1[a].first == unique2[b].first) {
        sameContextPairs += 2 * std::min(unique1[a].second, unique2[b].second);
        ++a;
        ++b;
      } else if (unique1[a].first < unique2[b].first) {
        ++a;
      } else {
        ++b;
      }
    }
  }

  const double numerator =
      static_cast<double>(intersection + sameContextPairs);
  return unionSize == 0 ? 1.0 : numerator / static_cast<double>(unionSize);
}

}  // namespace cookiepicker::core
