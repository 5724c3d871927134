// The page model a container render edits, and the block emitter.
//
// A container page is a fixed skeleton (head, nav, footer: a pure function
// of the site config and path) around the parts behaviors change. Those
// parts are rendered HTML blocks, so a render never builds a tree: behaviors
// insert, replace, reorder or drop blocks, and noise fills the typed holes
// inside them. WebSite then appends the skeleton and every block straight
// into the response body, recording the byte range of each tainted piece as
// it is appended.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "provenance/taint.h"

namespace cookiepicker::server {

// Per-fetch content spliced into a block on emission: the inside of an ad
// slot, a rotating headline or the footer timestamp.
enum class HoleKind : std::uint8_t { AdSlot, Headline, Timestamp };

struct Hole {
  HoleKind kind = HoleKind::AdSlot;
  std::uint32_t offset = 0;  // byte offset into the owning block's html
  std::string text;          // HTML, already escaped
};

// `Content` marks the skeleton's generic content sections, the blocks
// page-dominating personalization replaces.
enum class BlockKind : std::uint8_t { Content, Other };

struct Block {
  Block() = default;
  Block(provenance::LabelSet labels, std::string bytes)
      : taint(labels), html(std::move(bytes)) {}

  BlockKind kind = BlockKind::Other;
  // The cookie reads this block is a consequence of; its whole byte range
  // carries them in the provenance map.
  provenance::LabelSet taint = 0;
  std::string html;
  std::vector<Hole> holes;  // ascending offsets

  // Opens a hole at the current end of `html`.
  void addHole(HoleKind kind, std::string text = {}) {
    holes.push_back({kind, static_cast<std::uint32_t>(html.size()),
                     std::move(text)});
  }

  // Bytes emitBlock appends for this block.
  std::size_t emittedSize() const {
    std::size_t size = html.size();
    for (const Hole& hole : holes) size += hole.text.size();
    return size;
  }
};

struct Page {
  std::string heading;  // <h1> text, unescaped
  provenance::LabelSet headingTaint = 0;
  std::vector<Block> header;      // inside <header>, after <nav>
  std::vector<Block> beforeMain;  // between </header> and <main>
  std::vector<Block> main;        // the children of <main>
  provenance::LabelSet mainTaint = 0;
  Block footer;
  std::vector<Block> tail;  // after the page <div>, before </body>

  // Calls fn(hole.text) for every hole of `kind`, in document order.
  template <typename Fn>
  void forEachHole(HoleKind kind, Fn&& fn) {
    const auto visit = [&](Block& block) {
      for (Hole& hole : block.holes) {
        if (hole.kind == kind) fn(hole.text);
      }
    };
    for (std::vector<Block>* blocks : {&header, &beforeMain, &main}) {
      for (Block& block : *blocks) visit(block);
    }
    visit(footer);
    for (Block& block : tail) visit(block);
  }
};

// Appends `text` escaped as HTML text content, exactly as dom::toHtml
// escapes text nodes: & < > become entities.
inline void appendEscapedText(std::string& out, std::string_view text) {
  for (const char ch : text) {
    switch (ch) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      default: out += ch;
    }
  }
}

// Appends `block` with its holes spliced in. With a map, a tainted block's
// byte range is recorded as it is appended.
inline void emitBlock(std::string& out, const Block& block,
                      provenance::ProvenanceMap* map) {
  const std::size_t start = out.size();
  std::size_t copied = 0;
  for (const Hole& hole : block.holes) {
    out.append(block.html, copied, hole.offset - copied);
    out += hole.text;
    copied = hole.offset;
  }
  out.append(block.html, copied);
  if (map != nullptr) {
    map->add(static_cast<std::uint32_t>(start),
             static_cast<std::uint32_t>(out.size()), block.taint);
  }
}

}  // namespace cookiepicker::server
