#include "dom/snapshot.h"

#include "util/strings.h"
#include "util/text_hash.h"

namespace cookiepicker::dom {

namespace {

bool nodeVisibleStructural(const Node& node) {
  // Mirrors core::isVisibleStructuralNode; kept literal so the snapshot
  // predicate and the reference predicate can only diverge if this file or
  // rstm.cpp changes — which the differential test catches.
  if (node.isElement()) return !isNonVisualTag(node.name());
  if (node.isDocument()) return true;
  return false;
}

}  // namespace

TreeSnapshot::TreeSnapshot(const Node& root) : TreeSnapshot(root, false) {}

TreeSnapshot::TreeSnapshot(const Node& root, bool stampTaint)
    : stampTaint_(stampTaint) {
  const std::size_t count = root.subtreeSize();
  symbols_.reserve(count);
  subtreeEnd_.reserve(count);
  levels_.reserve(count);
  flags_.reserve(count);
  textHashes_.reserve(count);
  if (stampTaint_) taintSets_.reserve(count);

  flatten(root, 0, 0);
  finish();
}

void TreeSnapshot::finish() {
  // Child spans: one linear pass over the preorder arrays. Children of i
  // start at i + 1 and hop subtree to subtree; grouping the index lists in
  // node order keeps the offsets monotone.
  const auto n = static_cast<std::uint32_t>(symbols_.size());
  childOffset_.resize(n + 1, 0);
  childIndex_.reserve(n == 0 ? 0 : n - 1);
  for (std::uint32_t i = 0; i < n; ++i) {
    childOffset_[i] = static_cast<std::uint32_t>(childIndex_.size());
    for (std::uint32_t c = i + 1; c < subtreeEnd_[i]; c = subtreeEnd_[c]) {
      childIndex_.push_back(c);
    }
  }
  childOffset_[n] = static_cast<std::uint32_t>(childIndex_.size());

  // The paper's comparison root: the first preorder <body> element, the
  // snapshot root otherwise (dom::Node::findFirst semantics). Interned IDs
  // never change once assigned, so the lookup runs once per process.
  static const SymbolId bodySymbol = globalSymbolInterner().intern("body");
  for (std::uint32_t i = 0; i < n; ++i) {
    if (isElement(i) && symbols_[i] == bodySymbol) {
      comparisonRoot_ = i;
      break;
    }
  }
}

std::uint32_t TreeSnapshot::flatten(const Node& node, std::int32_t level,
                                    std::uint32_t inheritedTaint) {
  const auto index = static_cast<std::uint32_t>(symbols_.size());
  SymbolInterner& interner = globalSymbolInterner();

  // Effective taint is the lattice join down the root path — exactly what
  // the streaming producer reads back from the normalized ProvenanceMap.
  const std::uint32_t effectiveTaint = inheritedTaint | node.taintLabels();
  if (stampTaint_) taintSets_.push_back(effectiveTaint);

  symbols_.push_back(interner.intern(node.name()));
  subtreeEnd_.push_back(0);  // patched after the children are flattened
  levels_.push_back(level);

  std::uint16_t flags = 0;
  std::uint64_t textHash = 0;
  if (node.isElement()) {
    flags |= kElement;
    const std::string& tag = node.name();
    if (tag == "script" || tag == "style" || tag == "noscript") {
      flags |= kScriptish;
    }
    if (tag == "option") flags |= kOption;
    const auto classAttr = node.attribute("class");
    const auto idAttr = node.attribute("id");
    if ((classAttr.has_value() && util::hasAdSignalToken(*classAttr)) ||
        (idAttr.has_value() && util::hasAdSignalToken(*idAttr))) {
      flags |= kAdContainer;
    }
  } else if (node.isText()) {
    flags |= kText;
    std::string scratch;
    const std::string_view collapsed =
        util::collapseWhitespaceView(node.value(), scratch);
    if (!collapsed.empty()) {
      flags |= kTextNonEmpty;
      if (util::hasAlphanumeric(collapsed)) flags |= kTextHasAlnum;
      if (util::looksLikeDateOrTime(collapsed)) flags |= kTextDateLike;
      textHash = util::textHash64(collapsed);
    }
  } else if (node.isComment()) {
    flags |= kComment;
  }
  if (nodeVisibleStructural(node)) flags |= kVisibleStructural;
  flags_.push_back(flags);
  textHashes_.push_back(textHash);

  for (const auto& child : node.children()) {
    flatten(*child, level + 1, effectiveTaint);
  }
  subtreeEnd_[index] = static_cast<std::uint32_t>(symbols_.size());
  return index;
}

std::size_t TreeSnapshot::memoryBytes() const {
  return symbols_.capacity() * sizeof(SymbolId) +
         subtreeEnd_.capacity() * sizeof(std::uint32_t) +
         levels_.capacity() * sizeof(std::int32_t) +
         flags_.capacity() * sizeof(std::uint16_t) +
         textHashes_.capacity() * sizeof(std::uint64_t) +
         childOffset_.capacity() * sizeof(std::uint32_t) +
         childIndex_.capacity() * sizeof(std::uint32_t) +
         taintSets_.capacity() * sizeof(provenance::TaintSetId);
}

}  // namespace cookiepicker::dom
