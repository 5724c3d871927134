// Tag-name predicates shared by the streaming snapshot builder and the
// reference tree builder the differential suites compare it with, so both
// producers place and flag every tag by the same rules.
#pragma once

#include <string_view>

namespace cookiepicker::html {

// Tags that never produce visual output; RSTM and CVCE skip them.
bool isNonVisualTag(std::string_view tagName);

// True for elements that cannot have children (<br>, <img>, ...).
bool isVoidElement(std::string_view tagName);

// Elements whose start tag belongs in <head> when seen before <body>.
bool isHeadContentTag(std::string_view tagName);

// Block-level elements; an open <p> is implicitly closed when one arrives.
bool isBlockLevelTag(std::string_view tagName);

}  // namespace cookiepicker::html
