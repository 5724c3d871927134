#include "html/tags.h"

#include <algorithm>
#include <array>

namespace cookiepicker::html {

bool isNonVisualTag(std::string_view tagName) {
  // script/style/noscript/template produce no rendered boxes; head wraps
  // metadata only. meta/link/title/base live inside head but guard anyway.
  return tagName == "script" || tagName == "style" || tagName == "noscript" ||
         tagName == "template" || tagName == "head" || tagName == "meta" ||
         tagName == "link" || tagName == "title" || tagName == "base";
}

bool isVoidElement(std::string_view tagName) {
  static const std::array<const char*, 14> kVoidTags = {
      "area",  "base",  "br",   "col",    "embed",  "hr",   "img",
      "input", "link",  "meta", "param",  "source", "track", "wbr"};
  return std::any_of(kVoidTags.begin(), kVoidTags.end(),
                     [&](const char* tag) { return tagName == tag; });
}

bool isHeadContentTag(std::string_view tagName) {
  return tagName == "title" || tagName == "meta" || tagName == "link" ||
         tagName == "base" || tagName == "style";
}

bool isBlockLevelTag(std::string_view tagName) {
  static const std::array<const char*, 24> kBlocks = {
      "address", "article", "aside",      "blockquote", "div",    "dl",
      "fieldset", "footer", "form",       "h1",         "h2",     "h3",
      "h4",       "h5",     "h6",         "header",     "hr",     "nav",
      "ol",       "p",      "pre",        "section",    "table",  "ul"};
  return std::any_of(kBlocks.begin(), kBlocks.end(),
                     [&](const char* tag) { return tagName == tag; });
}

}  // namespace cookiepicker::html
