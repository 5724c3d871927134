// Tag-name predicates shared by the streaming snapshot builder and the
// reference tree builder the differential suites compare it with, so both
// producers place and flag every tag by the same rules.
#pragma once

#include <cstdint>
#include <string_view>

namespace cookiepicker::html {

// The reference a start tag can add to a page's subresource list
// (StreamPageInfo): the `src` of img/script/iframe/embed, the `href` of a
// link whose `rel` names a stylesheet, or the document base from the first
// <base href>. The snapshot build and the start-tag scan both classify by
// it, and the tokenizer reads attributes only for tags it names.
enum class ReferenceKind : std::uint8_t { None, Src, Link, Base };

inline ReferenceKind referenceKind(std::string_view tagName) {
  switch (tagName.size()) {
    case 3:
      return tagName == "img" ? ReferenceKind::Src : ReferenceKind::None;
    case 4:
      if (tagName == "link") return ReferenceKind::Link;
      return tagName == "base" ? ReferenceKind::Base : ReferenceKind::None;
    case 5:
      return tagName == "embed" ? ReferenceKind::Src : ReferenceKind::None;
    case 6:
      return tagName == "script" || tagName == "iframe" ? ReferenceKind::Src
                                                         : ReferenceKind::None;
    default:
      return ReferenceKind::None;
  }
}

// Tags that never produce visual output; RSTM and CVCE skip them.
bool isNonVisualTag(std::string_view tagName);

// True for elements that cannot have children (<br>, <img>, ...).
bool isVoidElement(std::string_view tagName);

// Elements whose start tag belongs in <head> when seen before <body>.
bool isHeadContentTag(std::string_view tagName);

// Block-level elements; an open <p> is implicitly closed when one arrives.
bool isBlockLevelTag(std::string_view tagName);

}  // namespace cookiepicker::html
