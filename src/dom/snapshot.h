// Flattened DOM snapshot — the cache-friendly substrate of the detection
// hot path.
//
// A TreeSnapshot is a one-pass preorder flattening of a document into
// parallel arrays: interned name symbols, subtree extents, child
// spans, depth, and the per-node predicates RSTM and CVCE would otherwise
// recompute from strings on every comparison (visibility, script/option
// tags, ad-container class/id heuristic, text noise filters, a 64-bit
// hash of each text node's collapsed content). Built exactly once
// per document — at parse time, cached on the PageView — and then read by
// every detection step over that document with integer compares and zero
// further allocation.
//
// html::StreamingSnapshotBuilder fills the arrays directly from the token
// stream. The test oracle's TreeFlattener is the second producer: it
// flattens the reference parser's node tree into the same rows. Both
// funnel through finish(), so the derived child spans and comparison root
// come from one shared pass, and the differential fuzz suite asserts the
// raw arrays of the two producers are byte-identical.
//
// The snapshot is immutable after construction and safe to share across
// threads; the interners it writes through are globally synchronized.
#pragma once

#include <cstdint>
#include <vector>

#include "dom/interner.h"
#include "provenance/taint.h"

namespace cookiepicker::html {
class StreamingSnapshotBuilder;
}  // namespace cookiepicker::html

namespace cookiepicker::dom {

class TreeFlattener;

// Node indices below are preorder positions, the document row at 0.
class TreeSnapshot {
 public:
  std::uint32_t nodeCount() const {
    return static_cast<std::uint32_t>(symbols_.size());
  }

  // The paper's comparison root: first preorder <body> element, else 0.
  std::uint32_t comparisonRootIndex() const { return comparisonRoot_; }

  // --- per-node structure -------------------------------------------------
  SymbolId symbol(std::uint32_t i) const { return symbols_[i]; }
  // One past the last preorder index of i's subtree.
  std::uint32_t subtreeEnd(std::uint32_t i) const { return subtreeEnd_[i]; }
  // Depth below the snapshot root (root = 0).
  std::int32_t level(std::uint32_t i) const { return levels_[i]; }
  std::uint32_t childCount(std::uint32_t i) const {
    return childOffset_[i + 1] - childOffset_[i];
  }
  // Preorder index of i's k-th child, O(1).
  std::uint32_t child(std::uint32_t i, std::uint32_t k) const {
    return childIndex_[childOffset_[i] + k];
  }

  // --- per-node predicates (precomputed) ----------------------------------
  bool isElement(std::uint32_t i) const { return flag(i, kElement); }
  bool isText(std::uint32_t i) const { return flag(i, kText); }
  bool isComment(std::uint32_t i) const { return flag(i, kComment); }
  // What RSTM counts: the document row, or an element with visual effect
  // (html::isNonVisualTag false).
  bool visibleStructural(std::uint32_t i) const {
    return flag(i, kVisibleStructural);
  }
  // Element tag in {script, style, noscript}.
  bool isScriptish(std::uint32_t i) const { return flag(i, kScriptish); }
  bool isOption(std::uint32_t i) const { return flag(i, kOption); }
  // Element whose class/id carries an ad marker token.
  bool isAdContainer(std::uint32_t i) const { return flag(i, kAdContainer); }

  // --- text-node content, canonicalized at build time ---------------------
  // All three refer to the whitespace-collapsed text.
  bool textNonEmpty(std::uint32_t i) const { return flag(i, kTextNonEmpty); }
  bool textHasAlphanumeric(std::uint32_t i) const {
    return flag(i, kTextHasAlnum);
  }
  bool textLooksLikeDateTime(std::uint32_t i) const {
    return flag(i, kTextDateLike);
  }
  // util::textHash64 of the collapsed text (0 for non-text nodes and
  // whitespace-only text). An in-memory identity like the interned symbols:
  // read only by comparisons that count equal hashes (CVCE features, the
  // attribution row fingerprint), never serialized or persisted.
  std::uint64_t textHash(std::uint32_t i) const { return textHashes_[i]; }

  // --- taint provenance (attribution tier) --------------------------------
  // Per-row interned label-set stamps. Present only when a producer was
  // given provenance (the vector stays empty otherwise, so ordinary
  // snapshots pay nothing); rows outside every tainted range stamp 0.
  bool hasProvenance() const { return !taintSets_.empty(); }
  provenance::TaintSetId taintSet(std::uint32_t i) const {
    return taintSets_.empty() ? 0 : taintSets_[i];
  }

  // The raw flag word for node i — exposed so the differential tests can
  // compare the streaming and reference builds bit for bit rather than
  // predicate by predicate.
  std::uint16_t rawFlags(std::uint32_t i) const { return flags_[i]; }

  enum Flag : std::uint16_t {
    kElement = 1U << 0,
    kText = 1U << 1,
    kComment = 1U << 2,
    kVisibleStructural = 1U << 3,
    kScriptish = 1U << 4,
    kOption = 1U << 5,
    kAdContainer = 1U << 6,
    kTextNonEmpty = 1U << 7,
    kTextHasAlnum = 1U << 8,
    kTextDateLike = 1U << 9,
  };

 private:
  friend class ::cookiepicker::html::StreamingSnapshotBuilder;
  friend class TreeFlattener;

  // Empty snapshot for a producer to fill row by row.
  TreeSnapshot() = default;

  bool flag(std::uint32_t i, Flag bit) const {
    return (flags_[i] & bit) != 0;
  }

  // Derives child spans and the comparison root from the preorder rows.
  // Shared by both producers — any row-level divergence between them shows
  // up verbatim in the derived arrays instead of being masked by a second
  // implementation of this pass.
  void finish();

  std::vector<SymbolId> symbols_;
  std::vector<std::uint32_t> subtreeEnd_;
  std::vector<std::int32_t> levels_;
  std::vector<std::uint16_t> flags_;
  std::vector<std::uint64_t> textHashes_;
  // Children of node i are childIndex_[childOffset_[i] .. childOffset_[i+1]).
  std::vector<std::uint32_t> childOffset_;
  std::vector<std::uint32_t> childIndex_;
  std::vector<provenance::TaintSetId> taintSets_;
  std::uint32_t comparisonRoot_ = 0;
};

}  // namespace cookiepicker::dom
