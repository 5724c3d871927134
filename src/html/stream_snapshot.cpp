#include "html/stream_snapshot.h"

#include <algorithm>
#include <limits>

#include "util/strings.h"
#include "util/text_hash.h"

namespace cookiepicker::html {

namespace {

using dom::TreeSnapshot;

// Whitespace-only text: ' ', '\t', '\r', '\n' and '\f' ('\v' excluded).
bool isWhitespaceOnlyText(std::string_view text) {
  return std::all_of(text.begin(), text.end(), [](char ch) {
    return ch == ' ' || ch == '\t' || ch == '\r' || ch == '\n' || ch == '\f';
  });
}

// The symbols of the rows every document emits. Interned IDs never change
// once assigned, so each process interns them once, not once per builder
// (a fresh builder is made for every session).
struct CommonSymbols {
  dom::SymbolId document;
  dom::SymbolId text;
  dom::SymbolId comment;
  dom::SymbolId html;
  dom::SymbolId head;
  dom::SymbolId body;
};

const CommonSymbols& commonSymbols() {
  static const CommonSymbols symbols = [] {
    dom::SymbolInterner& interner = dom::globalSymbolInterner();
    return CommonSymbols{interner.intern("#document"),
                         interner.intern("#text"),
                         interner.intern("#comment"),
                         interner.intern("html"),
                         interner.intern("head"),
                         interner.intern("body")};
  }();
  return symbols;
}

}  // namespace

StreamingSnapshotBuilder::StreamingSnapshotBuilder() {
  const CommonSymbols& symbols = commonSymbols();
  documentSymbol_ = symbols.document;
  textSymbol_ = symbols.text;
  commentSymbol_ = symbols.comment;
  htmlSymbol_ = symbols.html;
  headSymbol_ = symbols.head;
  bodySymbol_ = symbols.body;
}

dom::SymbolId StreamingSnapshotBuilder::localSymbol(std::string_view name) {
  if (name.empty() || name.size() > kMaxCachedName) {
    return dom::globalSymbolInterner().intern(name);
  }
  // The name's bytes, zero-padded into two words.
  const std::size_t n = name.size();
  std::uint64_t low = 0;
  std::uint64_t high = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t byte = static_cast<unsigned char>(name[i]);
    (i < 8 ? low : high) |= byte << (8 * (i & 7));
  }
  // Two probes — the slot and its neighbour — so two hot tags that share
  // a slot do not evict each other on every use; a wrong guess only costs
  // one global intern.
  const std::uint64_t key = low ^ (high * 0xff51afd7ed558ccdULL) ^ n;
  const std::size_t slot =
      static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> 56) &
      (kSymbolCacheSize - 1);
  SymbolSlot& first = symbolCache_[slot];
  SymbolSlot& second = symbolCache_[(slot + 1) & (kSymbolCacheSize - 1)];
  if (first.low == low && first.high == high && first.size == n) {
    return first.symbol;
  }
  if (second.low == low && second.high == high && second.size == n) {
    return second.symbol;
  }
  const dom::SymbolId symbol = dom::globalSymbolInterner().intern(name);
  SymbolSlot& entry = first.size == 0 ? first : second;
  entry.low = low;
  entry.high = high;
  entry.size = static_cast<std::uint32_t>(n);
  entry.symbol = symbol;
  return symbol;
}

const StreamingSnapshotBuilder::TagInfo& StreamingSnapshotBuilder::tagInfo(
    dom::SymbolId symbol, std::string_view name) {
  if (symbol >= infoBySymbol_.size()) {
    infoBySymbol_.resize(static_cast<std::size_t>(symbol) + 1);
  }
  TagInfo& info = infoBySymbol_[symbol];
  if (info.known) return info;
  info.known = true;
  info.isVoid = isVoidElement(name);
  info.headPlacement = isHeadContentTag(name) || name == "script";
  info.headRawText = name == "title" || name == "style" || name == "script";
  info.rawTextTag = isRawTextTag(name);
  info.preformatted = name == "pre" || name == "textarea";
  info.scriptish = name == "script" || name == "style" || name == "noscript";
  info.isOption = name == "option";
  info.nonVisual = isNonVisualTag(name);
  if (name == "html") {
    info.structural = 1;
  } else if (name == "head") {
    info.structural = 2;
  } else if (name == "body") {
    info.structural = 3;
  }
  info.reference = referenceKind(name);
  if (name == "p") {
    info.openClass = kClassP;
  } else if (name == "li") {
    info.openClass = kClassLi;
  } else if (name == "dt" || name == "dd") {
    info.openClass = kClassDtDd;
  } else if (name == "option") {
    info.openClass = kClassOption;
  } else if (name == "td" || name == "th") {
    info.openClass = kClassCell;
  } else if (name == "tr") {
    info.openClass = kClassRow;
  } else if (name == "thead" || name == "tbody" || name == "tfoot") {
    info.openClass = kClassSection;
  }
  if (isBlockLevelTag(name)) info.closeMask |= kClassP;
  if (name == "li") info.closeMask |= kClassLi;
  if (name == "dt" || name == "dd") info.closeMask |= kClassDtDd;
  if (name == "option" || name == "optgroup") info.closeMask |= kClassOption;
  if (name == "td" || name == "th") info.closeMask |= kClassCell;
  if (name == "tr") info.closeMask |= kClassCell | kClassRow;
  if (name == "tbody" || name == "thead" || name == "tfoot") {
    info.closeMask |= kClassCell | kClassRow | kClassSection;
  }
  return info;
}

std::uint32_t StreamingSnapshotBuilder::rowCount() const {
  return static_cast<std::uint32_t>(snap_->symbols_.size());
}

std::uint32_t StreamingSnapshotBuilder::emitRow(dom::SymbolId symbol,
                                                std::int32_t level,
                                                std::uint16_t flags,
                                                provenance::TaintSetId taint) {
  const std::uint32_t row = rowCount();
  snap_->symbols_.push_back(symbol);
  // Leaf extent; rows that acquire children (open elements, the structural
  // skeleton) are re-patched when they close.
  snap_->subtreeEnd_.push_back(row + 1);
  snap_->levels_.push_back(level);
  snap_->flags_.push_back(flags);
  snap_->textHashes_.push_back(0);
  if (prov_ != nullptr) snap_->taintSets_.push_back(taint);
  return row;
}

provenance::TaintSetId StreamingSnapshotBuilder::tokenTaint() const {
  if (prov_ == nullptr) return 0;
  return prov_->labelsAt(static_cast<std::uint32_t>(token_.sourceStart));
}

void StreamingSnapshotBuilder::resetFrame(Frame& frame) {
  frame.row = -1;
  frame.lastTextSlot = -1;
  frame.hasClass = false;
  frame.hasId = false;
  frame.classValue.clear();
  frame.idValue.clear();
}

void StreamingSnapshotBuilder::begin(TreeSnapshot& snapshot,
                                     StreamPageInfo* page,
                                     std::string_view htmlText,
                                     const provenance::ProvenanceMap*
                                         provenance) {
  snap_ = &snapshot;
  page_ = page;
  prov_ = provenance != nullptr && !provenance->empty() ? provenance : nullptr;
  resetFrame(document_);
  resetFrame(html_);
  resetFrame(head_);
  resetFrame(body_);
  open_.clear();
  preformattedDepth_ = 0;
  sawBase_ = false;
  textRowCount_ = 0;
  document_.row =
      emitRow(documentSymbol_, 0, TreeSnapshot::kVisibleStructural);
  tokenizer_.reset(htmlText);
}

void StreamingSnapshotBuilder::consume(std::uint32_t rowLimit) {
  while (rowCount() < rowLimit && tokenizer_.next(token_)) {
    switch (token_.type) {
      case TokenType::Doctype:
        processDoctype();
        break;
      case TokenType::Comment:
        processComment();
        break;
      case TokenType::Text:
        processText();
        break;
      case TokenType::StartTag:
        processStartTag();
        break;
      case TokenType::EndTag:
        processEndTag();
        break;
      case TokenType::EndOfFile:
        break;
    }
  }
}

StreamParseResult StreamingSnapshotBuilder::build(
    std::string_view htmlText, const provenance::ProvenanceMap* provenance) {
  StreamParseResult result;
  auto snapshot = std::shared_ptr<TreeSnapshot>(new TreeSnapshot());
  // Dense markup runs a few bytes per node; a light reserve skips the first
  // few geometric regrowths without overcommitting on text-heavy pages.
  const std::size_t rowGuess = htmlText.size() / 16 + 8;
  snapshot->symbols_.reserve(rowGuess);
  snapshot->subtreeEnd_.reserve(rowGuess);
  snapshot->levels_.reserve(rowGuess);
  snapshot->flags_.reserve(rowGuess);
  snapshot->textHashes_.reserve(rowGuess);
  if (provenance != nullptr && !provenance->empty()) {
    snapshot->taintSets_.reserve(rowGuess);
  }
  begin(*snapshot, &result.page, htmlText, provenance);
  consume(std::numeric_limits<std::uint32_t>::max());

  // Mirror TreeBuilder::build's trailing ensureBody (the skeleton exists
  // even for empty input); anything still open extends to the last row.
  ensureBody();
  while (!open_.empty()) popOpen();
  const std::uint32_t n = rowCount();
  snap_->subtreeEnd_[static_cast<std::size_t>(document_.row)] = n;
  snap_->subtreeEnd_[static_cast<std::size_t>(html_.row)] = n;
  snap_->subtreeEnd_[static_cast<std::size_t>(body_.row)] = n;
  // head's extent was fixed when body was created.

  finalizeTextRows();
  finalizeStructuralFlags(html_);
  finalizeStructuralFlags(head_);
  finalizeStructuralFlags(body_);
  snap_->finish();

  result.snapshot = std::move(snapshot);
  snap_ = nullptr;
  page_ = nullptr;
  prov_ = nullptr;
  return result;
}

StreamPageInfo StreamingSnapshotBuilder::scanPageInfo(
    std::string_view htmlText) {
  StreamPageInfo page;
  page_ = &page;
  sawBase_ = false;
  tokenizer_.reset(htmlText);
  for (ReferenceKind kind = tokenizer_.nextReferenceTag(token_);
       kind != ReferenceKind::None;
       kind = tokenizer_.nextReferenceTag(token_)) {
    recordReferences(kind);
  }
  page_ = nullptr;
  return page;
}

void StreamingSnapshotBuilder::scanText(std::string_view htmlText,
                                        std::uint32_t lastRow) {
  // The same token loop into rows the builder keeps, stopped as soon as a
  // row past `lastRow` exists: a text row only grows while no later row
  // has been emitted, so every text row up to `lastRow` is final by then.
  scanRows_.symbols_.clear();
  scanRows_.subtreeEnd_.clear();
  scanRows_.levels_.clear();
  scanRows_.flags_.clear();
  scanRows_.textHashes_.clear();
  begin(scanRows_, nullptr, htmlText, nullptr);
  consume(lastRow + 2);
  snap_ = nullptr;
}

std::string_view StreamingSnapshotBuilder::textRowContent(
    std::uint32_t row) const {
  // Text rows are emitted in preorder, so the live slots ascend by row.
  const auto live = textRows_.begin() +
                    static_cast<std::ptrdiff_t>(textRowCount_);
  const auto it = std::lower_bound(
      textRows_.begin(), live, row,
      [](const TextRow& text, std::uint32_t value) { return text.row < value; });
  if (it == live || it->row != row) return {};
  return it->owned ? std::string_view(it->buffer) : it->view;
}

void StreamingSnapshotBuilder::processDoctype() {
  if (html_.row != -1) return;  // doctype after <html>: dropped
  document_.lastTextSlot = -1;
  emitRow(localSymbol(token_.name), 1, 0, tokenTaint());
}

void StreamingSnapshotBuilder::processComment() {
  // TreeBuilder's insertionPoint chain: open stack top, else body, else
  // head, else html, else the document.
  std::int32_t level = 0;
  if (!open_.empty()) {
    Open& top = open_.back();
    top.lastTextSlot = -1;
    level = top.level + 1;
  } else if (body_.row != -1) {
    body_.lastTextSlot = -1;
    level = 3;
  } else if (head_.row != -1) {
    head_.lastTextSlot = -1;
    level = 3;
  } else if (html_.row != -1) {
    html_.lastTextSlot = -1;
    level = 2;
  } else {
    document_.lastTextSlot = -1;
    level = 1;
  }
  emitRow(commentSymbol_, level, TreeSnapshot::kComment, tokenTaint());
}

void StreamingSnapshotBuilder::processText() {
  const std::string_view text = token_.text;
  if (text.empty()) return;
  if (isWhitespaceOnlyText(text)) {
    if (body_.row == -1) return;  // whitespace before body: always dropped
    const bool insideRaw = !open_.empty() && open_.back().rawTextTag;
    if (!insideRaw && preformattedDepth_ == 0) return;
  }
  const bool insideHeadRaw = !open_.empty() && open_.back().headRawText;
  if (body_.row == -1 && !insideHeadRaw) ensureBody();
  if (!open_.empty()) {
    Open& top = open_.back();
    appendTextTo(top.lastTextSlot, top.level);
  } else {
    appendTextTo(body_.lastTextSlot, 2);
  }
}

void StreamingSnapshotBuilder::appendTextTo(std::int64_t& lastTextSlot,
                                            std::int32_t parentLevel) {
  if (lastTextSlot >= 0) {
    // Adjacent text tokens merge into one DOM text node; the row already
    // exists, only its pending content grows — into the row's own buffer,
    // since the merged bytes are no longer one slice of the input.
    TextRow& text = textRows_[static_cast<std::size_t>(lastTextSlot)];
    if (!text.owned) {
      text.buffer.assign(text.view);
      text.owned = true;
    }
    text.buffer.append(token_.text);
    return;
  }
  const std::uint32_t row =
      emitRow(textSymbol_, parentLevel + 1, TreeSnapshot::kText, tokenTaint());
  if (textRowCount_ == textRows_.size()) textRows_.emplace_back();
  TextRow& text = textRows_[textRowCount_];
  text.row = row;
  // Decoded text lives in tokenizer scratch until the next token: copy it.
  text.owned = !token_.textInInput;
  if (text.owned) {
    text.buffer.assign(token_.text);
  } else {
    text.view = token_.text;
  }
  lastTextSlot = static_cast<std::int64_t>(textRowCount_++);
}

void StreamingSnapshotBuilder::processStartTag() {
  const dom::SymbolId symbol = localSymbol(token_.name);
  const TagInfo& info = tagInfo(symbol, token_.name);

  if (info.structural == 1) {
    ensureHtml();
    mergeStructuralAttributes(html_);
    return;
  }
  if (info.structural == 2) {
    ensureHead();
    mergeStructuralAttributes(head_);
    return;
  }
  if (info.structural == 3) {
    ensureBody();
    mergeStructuralAttributes(body_);
    return;
  }

  std::uint16_t flags = TreeSnapshot::kElement;
  if (info.scriptish) flags |= TreeSnapshot::kScriptish;
  if (info.isOption) flags |= TreeSnapshot::kOption;
  if (!info.nonVisual) flags |= TreeSnapshot::kVisibleStructural;
  for (const TokenAttribute& attribute : token_.attributes) {
    if ((attribute.name == "class" || attribute.name == "id") &&
        util::hasAdSignalToken(attribute.value)) {
      flags |= TreeSnapshot::kAdContainer;
      break;
    }
  }

  if (body_.row == -1 && open_.empty() && info.headPlacement) {
    ensureHead();
    head_.lastTextSlot = -1;
    const std::uint32_t row = emitRow(symbol, 3, flags, tokenTaint());
    recordReferences(info.reference);
    if (!info.isVoid && !token_.selfClosing) {
      pushOpen(row, symbol, info, 3);
    }
    return;
  }

  ensureBody();
  while (!open_.empty() && (info.closeMask & open_.back().openClass) != 0) {
    popOpen();
  }
  std::int32_t level;
  if (!open_.empty()) {
    open_.back().lastTextSlot = -1;
    level = open_.back().level + 1;
  } else {
    body_.lastTextSlot = -1;
    level = 3;
  }
  const std::uint32_t row = emitRow(symbol, level, flags, tokenTaint());
  recordReferences(info.reference);
  if (!info.isVoid && !token_.selfClosing) {
    pushOpen(row, symbol, info, level);
  }
}

void StreamingSnapshotBuilder::processEndTag() {
  const dom::SymbolId symbol = localSymbol(token_.name);
  if (symbol == htmlSymbol_ || symbol == bodySymbol_) return;
  if (symbol == headSymbol_) {
    // head_/body_ never sit on the open stack, so "pop down to them" pops
    // everything — exactly TreeBuilder's </head> handling.
    while (!open_.empty()) popOpen();
    return;
  }
  for (std::size_t i = open_.size(); i > 0; --i) {
    if (open_[i - 1].symbol == symbol) {
      while (open_.size() >= i) popOpen();
      return;
    }
  }
  // No match: stray end tag, ignored.
}

void StreamingSnapshotBuilder::recordReferences(ReferenceKind kind) {
  if (kind == ReferenceKind::None || page_ == nullptr) return;
  if (kind == ReferenceKind::Base) {  // only the first element counts
    if (sawBase_) return;
    sawBase_ = true;
    for (const TokenAttribute& attribute : token_.attributes) {
      if (attribute.name == "href") {
        if (!attribute.value.empty()) page_->baseHref = attribute.value;
        return;
      }
    }
    return;
  }
  if (kind == ReferenceKind::Src) {
    for (const TokenAttribute& attribute : token_.attributes) {
      if (attribute.name == "src") {
        if (!attribute.value.empty()) {
          page_->subresourceRefs.emplace_back(attribute.value);
        }
        return;
      }
    }
    return;
  }
  // <link rel~=stylesheet href=...>
  const TokenAttribute* rel = nullptr;
  const TokenAttribute* href = nullptr;
  for (const TokenAttribute& attribute : token_.attributes) {
    if (attribute.name == "rel") {
      rel = &attribute;
    } else if (attribute.name == "href") {
      href = &attribute;
    }
  }
  if (rel != nullptr && util::containsIgnoreCase(rel->value, "stylesheet") &&
      href != nullptr && !href->value.empty()) {
    page_->subresourceRefs.emplace_back(href->value);
  }
}

void StreamingSnapshotBuilder::mergeStructuralAttributes(Frame& frame) {
  // mergeAttributes semantics: across repeated <html>/<head>/<body> tags
  // the first occurrence of each attribute wins. Only class/id feed the
  // ad-container flag, so only they are tracked.
  for (const TokenAttribute& attribute : token_.attributes) {
    if (attribute.name == "class") {
      if (!frame.hasClass) {
        frame.hasClass = true;
        frame.classValue = attribute.value;
      }
    } else if (attribute.name == "id") {
      if (!frame.hasId) {
        frame.hasId = true;
        frame.idValue = attribute.value;
      }
    }
  }
}

void StreamingSnapshotBuilder::finalizeStructuralFlags(const Frame& frame) {
  if (frame.row == -1) return;
  if ((frame.hasClass && util::hasAdSignalToken(frame.classValue)) ||
      (frame.hasId && util::hasAdSignalToken(frame.idValue))) {
    snap_->flags_[static_cast<std::size_t>(frame.row)] |=
        TreeSnapshot::kAdContainer;
  }
}

void StreamingSnapshotBuilder::finalizeTextRows() {
  for (std::size_t slot = 0; slot < textRowCount_; ++slot) {
    const TextRow& text = textRows_[slot];
    // Collapse-clean text (the common case) is hashed and flagged in
    // place; only messy text is collapsed into the scratch first.
    const std::string_view collapsed = util::collapseWhitespaceView(
        text.owned ? std::string_view(text.buffer) : text.view,
        collapseScratch_);
    if (collapsed.empty()) continue;
    std::uint16_t flags =
        snap_->flags_[text.row] | TreeSnapshot::kTextNonEmpty;
    if (util::hasAlphanumeric(collapsed)) {
      flags |= TreeSnapshot::kTextHasAlnum;
    }
    if (util::looksLikeDateOrTime(collapsed)) {
      flags |= TreeSnapshot::kTextDateLike;
    }
    snap_->flags_[text.row] = flags;
    snap_->textHashes_[text.row] = util::textHash64(collapsed);
  }
}

void StreamingSnapshotBuilder::ensureHtml() {
  if (html_.row != -1) return;
  document_.lastTextSlot = -1;
  html_.row = emitRow(
      htmlSymbol_, 1,
      TreeSnapshot::kElement | TreeSnapshot::kVisibleStructural);
}

void StreamingSnapshotBuilder::ensureHead() {
  ensureHtml();
  if (head_.row != -1) return;
  html_.lastTextSlot = -1;
  // <head> is a non-visual tag: kElement only.
  head_.row = emitRow(headSymbol_, 2, TreeSnapshot::kElement);
}

void StreamingSnapshotBuilder::ensureBody() {
  ensureHead();
  if (body_.row != -1) return;
  // Anything still open belonged to head content; it closes here, before
  // the body row exists, so head's extent ends exactly at the body row.
  while (!open_.empty()) popOpen();
  snap_->subtreeEnd_[static_cast<std::size_t>(head_.row)] = rowCount();
  html_.lastTextSlot = -1;
  body_.row = emitRow(
      bodySymbol_, 2,
      TreeSnapshot::kElement | TreeSnapshot::kVisibleStructural);
}

void StreamingSnapshotBuilder::pushOpen(std::uint32_t row,
                                        dom::SymbolId symbol,
                                        const TagInfo& info,
                                        std::int32_t level) {
  if (info.preformatted) ++preformattedDepth_;
  // Filled in place: a stack-built copy stalls on the store-to-load
  // forward of its packed flag bytes.
  Open& open = open_.emplace_back();
  open.row = row;
  open.symbol = symbol;
  open.level = level;
  open.openClass = info.openClass;
  open.rawTextTag = info.rawTextTag;
  open.headRawText = info.headRawText;
  open.preformatted = info.preformatted;
}

void StreamingSnapshotBuilder::popOpen() {
  Open& top = open_.back();
  snap_->subtreeEnd_[top.row] = rowCount();
  if (top.preformatted) --preformattedDepth_;
  open_.pop_back();
}

StreamParseResult buildSnapshotStreaming(
    std::string_view htmlText, const provenance::ProvenanceMap* provenance) {
  StreamingSnapshotBuilder builder;
  return builder.build(htmlText, provenance);
}

}  // namespace cookiepicker::html
