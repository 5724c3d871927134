// Small string utilities shared across modules.
//
// Only ASCII semantics — HTTP header names, tag names, attribute names and
// cookie attributes are all ASCII-case-insensitive by specification, and the
// synthetic web we generate is ASCII.
#pragma once

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace cookiepicker::util {

// The per-byte helpers are inline: header, cookie and tag parsing call them
// for every name they compare.
inline char toLowerAscii(char ch) {
  return (ch >= 'A' && ch <= 'Z') ? static_cast<char>(ch - 'A' + 'a') : ch;
}
std::string toLowerAscii(std::string_view text);

inline bool equalsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (toLowerAscii(a[i]) != toLowerAscii(b[i])) return false;
  }
  return true;
}

// Trims ASCII whitespace (space, tab, CR, LF, FF, VT) from both ends.
inline std::string_view trim(std::string_view text) {
  const auto isSpace = [](char ch) {
    return ch == ' ' || ch == '\t' || ch == '\r' || ch == '\n' ||
           ch == '\f' || ch == '\v';
  };
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && isSpace(text[begin])) ++begin;
  while (end > begin && isSpace(text[end - 1])) --end;
  return text.substr(begin, end - begin);
}

// Splits on a single character; empty fields are kept (so "a;;b" → 3 parts).
std::vector<std::string> split(std::string_view text, char separator);

// Splits on runs of ASCII whitespace; empty fields are dropped.
std::vector<std::string> splitWhitespace(std::string_view text);

std::string join(const std::vector<std::string>& parts,
                 std::string_view separator);

bool containsIgnoreCase(std::string_view haystack, std::string_view needle);

// True if the text contains at least one ASCII letter or digit. CVCE treats
// text nodes failing this as noise (pure punctuation/whitespace).
bool hasAlphanumeric(std::string_view text);

// True if every non-space character is a digit or one of ":/.,-" — the shape
// of dates, times and counters ("12:30:05", "2007-01-17"). CVCE noise rule.
bool looksLikeDateOrTime(std::string_view text);

// Collapses runs of ASCII whitespace into single spaces and trims, the
// canonical form text content is compared in, without copying when it can:
// returns a slice of `text` itself when the trimmed text is already
// collapse-clean (the common case), else the collapsed copy written into
// `scratch` (cleared first). The result is valid while both `text` and
// `scratch` are.
std::string_view collapseWhitespaceView(std::string_view text,
                                        std::string& scratch);

// Appends every part to `out` after a single reserve — the building block
// for serializers that would otherwise chain `a + b + c` temporaries.
void appendParts(std::string& out,
                 std::initializer_list<std::string_view> parts);

// Serialized-state field escaping. The persistence formats (FORCUM site
// lines, jar records, store WAL payloads) use '\t', ';', '|' and '\n' as
// structural separators, while cookie names/domains/paths are
// attacker-influenced — a cookie literally named "a|b;c" must survive a
// save/load round trip instead of corrupting neighbouring fields. Fields
// are percent-escaped on the way out and decoded on the way in.
void appendEscapedStateField(std::string& out, std::string_view field);
std::string escapeStateField(std::string_view field);
std::string unescapeStateField(std::string_view field);

// True if any token of `value` — split on ' ', '-', '_', compared
// ASCII-case-insensitively — is an advertisement marker ("ad", "ads",
// "adslot", "advert", "advertisement", "sponsor", "sponsored", "banner",
// "promo", "doubleclick"). Token-wise so "download"/"shadow" do not trip.
// Single scan, no allocation: this runs per class/id attribute on the
// CVCE hot path.
bool hasAdSignalToken(std::string_view value);

}  // namespace cookiepicker::util
