// Streaming tokenizer→snapshot pipeline.
//
// StreamingSnapshotBuilder is the page parser of Section 3.2: the regular
// and the hidden copy of a page both go through it. It builds the
// dom::TreeSnapshot rows directly from the token stream, never
// materializing a node tree. The open-tag stack applies the placement
// rules of a lenient tree builder (implicit html/head/body skeleton, head
// content before <body>, optional-end-tag closing, inter-element
// whitespace dropping, adjacent text merging) and emits preorder rows
// inline: because the builder only ever appends to the rightmost spine of
// the growing tree, emission order *is* preorder order, so each row's index
// is final the moment its start tag (or text/comment token) arrives. Three
// things cannot be known at emission time and are patched later, by index:
//
//  * subtree extents — finalized to the current row count when an element
//    is popped (implicitly, by end tag, or at EOF);
//  * merged text content — a text row is a view of the input while it comes
//    from one token with no character references, and owns a buffer only
//    once adjacent tokens merge into it or a reference was decoded; flags
//    and the text hash are computed from the full merged value in one EOF
//    pass, directly on the view when the text is already collapse-clean;
//  * html/head/body ad-container flags — duplicated structural tags merge
//    attributes first-wins, so class/id are accumulated and flagged at EOF.
//
// Child spans and the comparison root come from the shared
// TreeSnapshot::finish() pass. The differential fuzz suite
// (tests/snapshot_differential_test.cpp) asserts that the rows equal, byte
// for byte, those of the test oracle's reference tree builder plus its
// tree flattener (tests/oracle/) across seeded random and mutated
// documents.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dom/interner.h"
#include "dom/snapshot.h"
#include "html/tags.h"
#include "html/tokenizer.h"
#include "provenance/taint.h"

namespace cookiepicker::html {

// What the browser needs from a page besides the snapshot, collected during
// the same streaming pass: the effective <base href> and the raw subresource
// references (img/script/iframe/embed src, stylesheet link href) in preorder.
// References are unresolved strings — URL resolution needs the document URL,
// which is the browser's business.
struct StreamPageInfo {
  // First <base> element's non-empty href; empty when the document URL is
  // the base (no <base>, or its href is missing/empty).
  std::string baseHref;
  std::vector<std::string> subresourceRefs;
};

struct StreamParseResult {
  std::shared_ptr<const dom::TreeSnapshot> snapshot;
  StreamPageInfo page;
};

class StreamingSnapshotBuilder {
 public:
  StreamingSnapshotBuilder();

  // Tokenizes `htmlText` and builds snapshot + page info in one pass.
  // Scratch state (tokenizer scratch, open stack, text buffers, per-tag
  // info cache) lives on the builder and is reused across calls, so a
  // retained builder's steady-state allocations are the snapshot arrays
  // themselves, the page info strings, plus interner misses.
  //
  // When `provenance` is non-null, every token-driven row is stamped with
  // the label-set effective at the token's source byte (one interval lookup
  // per row, no allocation — the bit-vector is its own interning); synthetic
  // skeleton rows stamp 0. Without a map, rows pay a single branch and the
  // snapshot carries no taint vector at all.
  StreamParseResult build(std::string_view htmlText,
                          const provenance::ProvenanceMap* provenance =
                              nullptr);

  // The page info `build(htmlText)` would return, without building a
  // snapshot: the same tokenizer, asked only for the start tags that carry
  // a reference (Tokenizer::nextReferenceTag), into the same reference
  // filter. No rows, text, entity decoding, interning or finish pass. For
  // page views no comparison will read (Browser::visit without a snapshot).
  StreamPageInfo scanPageInfo(std::string_view htmlText);

  // Runs the same pass over `htmlText` only until
  // the content of every text row up to `lastRow` is final, into rows the
  // builder reuses: no snapshot, page info, text hashes or child spans. For
  // reading a few rows' text back with textRowContent.
  void scanText(std::string_view htmlText, std::uint32_t lastRow);

  // The merged, entity-decoded content of text row `row` from the last
  // build or scan, before whitespace collapse; empty when `row` is not a
  // text row. Valid until the next build or scan, and only while that
  // pass's input lives.
  std::string_view textRowContent(std::uint32_t row) const;

 private:
  // Optional-end-tag rules as bit tests: an open element is implicitly
  // closed when (incoming.closeMask & open.openClass) != 0. Encodes the
  // reference tree builder's impliesEndOf (tests/oracle/html/parser.cpp);
  // the differential suite pins the equivalence.
  enum ClassBit : std::uint8_t {
    kClassP = 1U << 0,
    kClassLi = 1U << 1,
    kClassDtDd = 1U << 2,
    kClassOption = 1U << 3,
    kClassCell = 1U << 4,     // td/th
    kClassRow = 1U << 5,      // tr
    kClassSection = 1U << 6,  // thead/tbody/tfoot
  };

  // Everything the builder needs to know about a tag, computed once per
  // distinct tag name and cached by symbol ID.
  struct TagInfo {
    bool known = false;
    bool isVoid = false;
    bool headPlacement = false;  // head-content tags + script
    bool headRawText = false;    // title/style/script (head raw text)
    bool rawTextTag = false;     // + textarea
    bool preformatted = false;   // pre/textarea
    bool scriptish = false;      // script/style/noscript
    bool isOption = false;
    bool nonVisual = false;
    std::uint8_t structural = 0;  // 1 html, 2 head, 3 body
    ReferenceKind reference = ReferenceKind::None;
    std::uint8_t openClass = 0;
    std::uint8_t closeMask = 0;
  };

  // An element on the open stack. Copies the TagInfo bits it needs —
  // infoBySymbol_ may reallocate when a new tag is interned mid-document,
  // so holding a TagInfo pointer across pushes would dangle.
  struct Open {
    std::uint32_t row = 0;
    dom::SymbolId symbol = 0;
    std::int32_t level = 0;
    std::int64_t lastTextSlot = -1;  // textRows_ slot, -1: last child not text
    std::uint8_t openClass = 0;
    bool rawTextTag = false;
    bool headRawText = false;
    bool preformatted = false;
  };

  // One of the implicit structural elements (document/html/head/body).
  struct Frame {
    std::int64_t row = -1;
    std::int64_t lastTextSlot = -1;
    bool hasClass = false;
    bool hasId = false;
    std::string classValue;
    std::string idValue;
  };

  const TagInfo& tagInfo(dom::SymbolId symbol, std::string_view name);

  // Resets the per-pass state and emits the document row into `snapshot`;
  // `page` may be null (no references collected).
  void begin(dom::TreeSnapshot& snapshot, StreamPageInfo* page,
             std::string_view htmlText,
             const provenance::ProvenanceMap* provenance);
  // Feeds tokens until the input ends or `rowLimit` rows exist.
  void consume(std::uint32_t rowLimit);

  // Direct-mapped cache in front of the global symbol interner. The global
  // interner is thread-safe (shared_mutex + string hash) and every start and
  // end tag used to pay that cost; a page uses a couple dozen distinct tag
  // names, so a tiny per-builder cache keyed by a one-multiply word hash
  // turns almost every intern into an index plus a short compare, no
  // lock. Collisions simply fall through to the global interner (and take
  // over a slot), so the returned IDs are always the global ones. Names are
  // stored inline as two zero-padded words; empty names and names longer
  // than kMaxCachedName always take the global path.
  dom::SymbolId localSymbol(std::string_view name);

  std::uint32_t rowCount() const;
  std::uint32_t emitRow(dom::SymbolId symbol, std::int32_t level,
                        std::uint16_t flags,
                        provenance::TaintSetId taint = 0);
  // Label-set effective at the current token's source byte; 0 without a map.
  provenance::TaintSetId tokenTaint() const;
  void processStartTag();
  void processEndTag();
  void processText();
  void processComment();
  void processDoctype();
  void appendTextTo(std::int64_t& lastTextSlot, std::int32_t parentLevel);
  void recordReferences(ReferenceKind kind);
  void mergeStructuralAttributes(Frame& frame);
  void finalizeStructuralFlags(const Frame& frame);
  void finalizeTextRows();
  void resetFrame(Frame& frame);
  void ensureHtml();
  void ensureHead();
  void ensureBody();
  void pushOpen(std::uint32_t row, dom::SymbolId symbol, const TagInfo& info,
                std::int32_t level);
  void popOpen();

  // Cached symbols for the rows every document emits.
  dom::SymbolId documentSymbol_;
  dom::SymbolId textSymbol_;
  dom::SymbolId commentSymbol_;
  dom::SymbolId htmlSymbol_;
  dom::SymbolId headSymbol_;
  dom::SymbolId bodySymbol_;

  std::vector<TagInfo> infoBySymbol_;

  static constexpr std::size_t kMaxCachedName = 16;
  struct SymbolSlot {
    std::uint64_t low = 0;   // name bytes 0-7, zero-padded
    std::uint64_t high = 0;  // name bytes 8-15, zero-padded
    std::uint32_t size = 0;  // 0: empty slot
    dom::SymbolId symbol = 0;
  };
  static constexpr std::size_t kSymbolCacheSize = 256;
  // Direct-mapped; persists across builds like infoBySymbol_.
  std::array<SymbolSlot, kSymbolCacheSize> symbolCache_{};

  // --- per-build state, reset by build() ---
  dom::TreeSnapshot* snap_ = nullptr;
  StreamPageInfo* page_ = nullptr;
  const provenance::ProvenanceMap* prov_ = nullptr;
  Tokenizer tokenizer_;
  Token token_;
  Frame document_;
  Frame html_;
  Frame head_;
  Frame body_;
  std::vector<Open> open_;
  int preformattedDepth_ = 0;
  bool sawBase_ = false;
  // A text row's accumulated raw (entity-decoded) content: a view of the
  // build's input until a merge or a decoded reference forces a copy into
  // `buffer`.
  struct TextRow {
    std::uint32_t row = 0;
    bool owned = false;
    std::string_view view;  // the content while !owned
    std::string buffer;     // the content while owned; keeps its capacity
  };
  // Slots [0, textRowCount_) are live this build.
  std::vector<TextRow> textRows_;
  std::size_t textRowCount_ = 0;
  std::string collapseScratch_;
  // The rows scanText emits into; kept, so repeated scans reuse capacity.
  dom::TreeSnapshot scanRows_;
};

// One-shot convenience for tests and tools (constructs a fresh builder).
StreamParseResult buildSnapshotStreaming(
    std::string_view htmlText,
    const provenance::ProvenanceMap* provenance = nullptr);

}  // namespace cookiepicker::html
