// Seeded HTML document generator and mutation operators shared by the
// differential fuzz suites (snapshot_differential_test,
// evidence_differential_test). Documents span every placement rule the
// streaming builder implements; mutations deliberately break
// well-formedness. COOKIEPICKER_FUZZ scales the per-seed trial counts.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace cookiepicker::testsupport {

// Trial multiplier for soak runs. 1 keeps the default suite fast (~1000
// generated documents across the seed axis); fuzz-soak sets 10+.
inline int fuzzScale() {
  const char* env = std::getenv("COOKIEPICKER_FUZZ");
  if (env == nullptr) return 1;
  const int value = std::atoi(env);
  return value > 0 ? value : 1;
}

// --- seeded document generator ----------------------------------------------

// Tag pool spanning every placement rule the builder implements: structural
// tags, head content, raw text, voids, optional-end-tag families,
// preformatted, scriptish, and plain containers.
constexpr const char* kContainers[] = {"div",  "span", "p",    "ul",
                                       "li",   "table", "tr",  "td",
                                       "th",   "tbody", "dl",  "dt",
                                       "dd",   "select", "option", "form",
                                       "h1",   "a",    "b",    "pre",
                                       "textarea", "script", "style",
                                       "noscript", "optgroup", "thead"};

constexpr const char* kVoids[] = {"br", "img", "hr", "input", "meta", "link",
                                  "base", "embed"};

constexpr const char* kClassValues[] = {"content", "header", "ad",
                                        "ads banner", "sidebar promo",
                                        "main", "download", "top-ad",
                                        "shadow"};

constexpr const char* kTexts[] = {
    "breaking news", "hello &amp; goodbye", "2007-01-17", "12:30:05",
    "***", "   ", "a  b\t c", "Weather: sunny &#65;", "x", "- - -",
    "cart total: 3 items", "&lt;tag&gt; soup", "today 12:30:05",
};

constexpr const char* kUrls[] = {"/a.css", "style.css", "img/banner.gif",
                                 "http://cdn.example/lib.js", "s.js",
                                 "../up.png", ""};

inline void appendRandomAttributes(util::Pcg32& rng, std::string& out) {
  const int count = static_cast<int>(rng.uniform(0, 2));
  for (int i = 0; i < count; ++i) {
    switch (rng.uniform(0, 3)) {
      case 0:
        out += " class=\"";
        out += kClassValues[rng.uniform(0, std::size(kClassValues) - 1)];
        out += '"';
        break;
      case 1:
        out += " id='";
        out += kClassValues[rng.uniform(0, std::size(kClassValues) - 1)];
        out += '\'';
        break;
      case 2:
        out += " data-x=unquoted";
        break;
      default:
        out += " title=\"a &amp; b\"";
        break;
    }
  }
}

inline void appendRandomMarkup(util::Pcg32& rng, int depth, std::string& out) {
  switch (rng.uniform(0, 9)) {
    case 0:
      out += kTexts[rng.uniform(0, std::size(kTexts) - 1)];
      break;
    case 1:
      out += "<!-- comment <p>ghost</p> -->";
      break;
    case 2: {
      const char* tag = kVoids[rng.uniform(0, std::size(kVoids) - 1)];
      out += '<';
      out += tag;
      if (rng.uniform(0, 1) == 0) {
        out += " src=\"";
        out += kUrls[rng.uniform(0, std::size(kUrls) - 1)];
        out += "\" href=";
        out += kUrls[rng.uniform(0, std::size(kUrls) - 2)];
        if (rng.uniform(0, 1) == 0) out += " rel=stylesheet";
      }
      out += rng.uniform(0, 3) == 0 ? "/>" : ">";
      break;
    }
    case 3:  // stray end tag, sometimes matching nothing
      out += "</";
      out += kContainers[rng.uniform(0, std::size(kContainers) - 1)];
      out += '>';
      break;
    default: {
      const char* tag =
          kContainers[rng.uniform(0, std::size(kContainers) - 1)];
      out += '<';
      out += tag;
      appendRandomAttributes(rng, out);
      out += '>';
      if (depth > 0) {
        const int children = static_cast<int>(rng.uniform(0, 3));
        for (int i = 0; i < children; ++i) {
          appendRandomMarkup(rng, depth - 1, out);
        }
      }
      // Half the time the element is left unclosed (tag soup).
      if (rng.uniform(0, 1) == 0) {
        out += "</";
        out += tag;
        out += '>';
      }
      break;
    }
  }
}

inline std::string randomDocument(util::Pcg32& rng) {
  std::string html;
  if (rng.uniform(0, 2) == 0) html += "<!DOCTYPE html>";
  if (rng.uniform(0, 1) == 0) {
    html += "<html";
    appendRandomAttributes(rng, html);
    html += ">";
  }
  if (rng.uniform(0, 1) == 0) {
    html += "<head><title>t &amp; u</title>";
    if (rng.uniform(0, 1) == 0) html += "<base href=\"/deep/\">";
    html += "<link rel=\"stylesheet\" href=\"main.css\"><meta charset=utf-8>";
    if (rng.uniform(0, 2) == 0) html += "<style>div { color: red }</style>";
    if (rng.uniform(0, 2) == 0) html += "</head>";
  }
  if (rng.uniform(0, 1) == 0) html += "<body class=\"page\">";
  const int pieces = 3 + static_cast<int>(rng.uniform(0, 8));
  for (int i = 0; i < pieces; ++i) {
    appendRandomMarkup(rng, 3, html);
  }
  if (rng.uniform(0, 2) == 0) html += "</body></html>";
  return html;
}

// --- mutation operators ------------------------------------------------------

inline std::size_t randomOffset(util::Pcg32& rng, const std::string& text) {
  if (text.empty()) return 0;
  return rng.uniform(0, static_cast<std::uint32_t>(text.size() - 1));
}

// Delete one complete <...> span, wherever it sits.
inline void mutateDeleteTag(util::Pcg32& rng, std::string& html) {
  const std::size_t start = html.find('<', randomOffset(rng, html));
  if (start == std::string::npos) return;
  const std::size_t end = html.find('>', start);
  if (end == std::string::npos) {
    html.erase(start);
  } else {
    html.erase(start, end - start + 1);
  }
}

// Chop the document at an arbitrary byte — mid-tag, mid-entity, mid-quote.
inline void mutateTruncate(util::Pcg32& rng, std::string& html) {
  html.resize(randomOffset(rng, html));
}

// Flip or drop an attribute quote, unbalancing the tokenizer's value scan.
inline void mutateQuoteFlip(util::Pcg32& rng, std::string& html) {
  const char needle = rng.uniform(0, 1) == 0 ? '"' : '\'';
  const std::size_t at = html.find(needle, randomOffset(rng, html));
  if (at == std::string::npos) return;
  switch (rng.uniform(0, 2)) {
    case 0: html[at] = needle == '"' ? '\'' : '"'; break;
    case 1: html.erase(at, 1); break;
    default: html[at] = ' '; break;
  }
}

// Splice an entity (complete, bogus, or cut short) at a random offset.
inline void mutateEntitySplice(util::Pcg32& rng, std::string& html) {
  static const char* kEntities[] = {"&amp;", "&#65;",  "&bogus;", "&#x3C;",
                                    "&",     "&#",     "&#x;",    "&gt"};
  html.insert(randomOffset(rng, html),
              kEntities[rng.uniform(0, std::size(kEntities) - 1)]);
}

// Swap two complete <...> spans — misnests open/close pairs.
inline void mutateNestingShuffle(util::Pcg32& rng, std::string& html) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  std::size_t at = 0;
  while ((at = html.find('<', at)) != std::string::npos) {
    const std::size_t end = html.find('>', at);
    if (end == std::string::npos) break;
    spans.emplace_back(at, end - at + 1);
    at = end + 1;
  }
  if (spans.size() < 2) return;
  const auto a = spans[rng.uniform(0, static_cast<std::uint32_t>(
                                          spans.size() - 1))];
  const auto b = spans[rng.uniform(0, static_cast<std::uint32_t>(
                                          spans.size() - 1))];
  if (a.first == b.first) return;
  const auto& first = a.first < b.first ? a : b;
  const auto& second = a.first < b.first ? b : a;
  const std::string firstText = html.substr(first.first, first.second);
  const std::string secondText = html.substr(second.first, second.second);
  // Replace back-to-front so offsets stay valid.
  html.replace(second.first, second.second, firstText);
  html.replace(first.first, first.second, secondText);
}

inline void mutate(util::Pcg32& rng, std::string& html) {
  switch (rng.uniform(0, 4)) {
    case 0: mutateDeleteTag(rng, html); break;
    case 1: mutateTruncate(rng, html); break;
    case 2: mutateQuoteFlip(rng, html); break;
    case 3: mutateEntitySplice(rng, html); break;
    default: mutateNestingShuffle(rng, html); break;
  }
}

}  // namespace cookiepicker::testsupport
