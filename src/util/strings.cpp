#include "util/strings.h"

#include <algorithm>
#include <cctype>

#include "util/scan.h"

namespace cookiepicker::util {

namespace {
bool isAsciiSpace(char ch) {
  return ch == ' ' || ch == '\t' || ch == '\r' || ch == '\n' || ch == '\f' ||
         ch == '\v';
}
}  // namespace

std::string toLowerAscii(std::string_view text) {
  std::string result(text);
  std::transform(result.begin(), result.end(), result.begin(),
                 [](char ch) { return toLowerAscii(ch); });
  return result;
}

std::vector<std::string> split(std::string_view text, char separator) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(separator, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(text.substr(start));
      return parts;
    }
    parts.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> splitWhitespace(std::string_view text) {
  std::vector<std::string> parts;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && isAsciiSpace(text[i])) ++i;
    const std::size_t start = i;
    while (i < text.size() && !isAsciiSpace(text[i])) ++i;
    if (i > start) parts.emplace_back(text.substr(start, i - start));
  }
  return parts;
}

std::string join(const std::vector<std::string>& parts,
                 std::string_view separator) {
  std::string result;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) result.append(separator);
    result.append(parts[i]);
  }
  return result;
}

bool containsIgnoreCase(std::string_view haystack, std::string_view needle) {
  if (needle.empty()) return true;
  if (needle.size() > haystack.size()) return false;
  for (std::size_t i = 0; i + needle.size() <= haystack.size(); ++i) {
    bool match = true;
    for (std::size_t j = 0; j < needle.size(); ++j) {
      if (toLowerAscii(haystack[i + j]) != toLowerAscii(needle[j])) {
        match = false;
        break;
      }
    }
    if (match) return true;
  }
  return false;
}

namespace {
// Decodes one UTF-8 sequence starting at text[i]; advances i past it.
// Malformed bytes decode as U+FFFD and advance by one.
unsigned long decodeUtf8At(std::string_view text, std::size_t& i) {
  const auto lead = static_cast<unsigned char>(text[i]);
  int extra = 0;
  unsigned long codePoint = lead;
  if (lead < 0x80) {
    extra = 0;
  } else if ((lead >> 5) == 0x6) {
    extra = 1;
    codePoint = lead & 0x1F;
  } else if ((lead >> 4) == 0xE) {
    extra = 2;
    codePoint = lead & 0x0F;
  } else if ((lead >> 3) == 0x1E) {
    extra = 3;
    codePoint = lead & 0x07;
  } else {
    ++i;
    return 0xFFFD;
  }
  if (i + static_cast<std::size_t>(extra) >= text.size()) {
    // Truncated sequence.
    ++i;
    return 0xFFFD;
  }
  for (int k = 1; k <= extra; ++k) {
    const auto byte = static_cast<unsigned char>(text[i + static_cast<std::size_t>(k)]);
    if ((byte >> 6) != 0x2) {
      ++i;
      return 0xFFFD;
    }
    codePoint = (codePoint << 6) | (byte & 0x3F);
  }
  i += static_cast<std::size_t>(extra) + 1;
  return codePoint;
}

// Unicode punctuation/symbol ranges that should not count as word content
// (dashes, quotes, bullets, arrows, box drawing, geometric shapes, and the
// Latin-1 punctuation block).
bool isUnicodePunctuationOrSymbol(unsigned long codePoint) {
  return (codePoint >= 0xA0 && codePoint <= 0xBF) ||      // Latin-1 punct
         (codePoint >= 0x2000 && codePoint <= 0x206F) ||  // general punct
         (codePoint >= 0x2190 && codePoint <= 0x21FF) ||  // arrows
         (codePoint >= 0x2500 && codePoint <= 0x25FF) ||  // box/geometry
         codePoint == 0xD7 || codePoint == 0xF7 ||        // × ÷
         codePoint == 0xFFFD;
}
}  // namespace

bool hasAlphanumeric(std::string_view text) {
  // ASCII letters/digits count; so does any non-ASCII *letter-like* code
  // point (UTF-8 text in other scripts is word content — a page in Chinese
  // must not become invisible to the content metric), but Unicode
  // punctuation (em-dashes, bullets, arrows) stays noise.
  std::size_t i = 0;
  while (i < text.size()) {
    const auto byte = static_cast<unsigned char>(text[i]);
    if (byte < 0x80) {
      // std::isalnum in the "C" locale, without the call.
      if (static_cast<unsigned char>(byte - '0') < 10 ||
          static_cast<unsigned char>((byte | 0x20) - 'a') < 26) {
        return true;
      }
      ++i;
      continue;
    }
    const unsigned long codePoint = decodeUtf8At(text, i);
    if (!isUnicodePunctuationOrSymbol(codePoint)) return true;
  }
  return false;
}

bool looksLikeDateOrTime(std::string_view text) {
  const std::string_view trimmed = trim(text);
  if (trimmed.empty()) return false;
  bool sawDigit = false;
  for (const char ch : trimmed) {
    if (std::isdigit(static_cast<unsigned char>(ch)) != 0) {
      sawDigit = true;
      continue;
    }
    if (ch == ':' || ch == '/' || ch == '.' || ch == ',' || ch == '-' ||
        ch == ' ') {
      continue;
    }
    return false;
  }
  return sawDigit;
}

void appendParts(std::string& out,
                 std::initializer_list<std::string_view> parts) {
  std::size_t total = out.size();
  for (const std::string_view part : parts) total += part.size();
  if (out.capacity() < total) out.reserve(total);
  for (const std::string_view part : parts) out.append(part);
}

namespace {
bool isAdMarkerToken(std::string_view token) {
  static constexpr std::string_view kMarkers[] = {
      "ad",        "ads",   "adslot", "advert", "advertisement",
      "sponsor",   "sponsored", "banner", "promo", "doubleclick"};
  for (const std::string_view marker : kMarkers) {
    if (equalsIgnoreCase(token, marker)) return true;
  }
  return false;
}
}  // namespace

bool hasAdSignalToken(std::string_view value) {
  std::size_t start = 0;
  for (std::size_t i = 0; i <= value.size(); ++i) {
    if (i == value.size() || value[i] == ' ' || value[i] == '-' ||
        value[i] == '_') {
      if (i > start && isAdMarkerToken(value.substr(start, i - start))) {
        return true;
      }
      start = i + 1;
    }
  }
  return false;
}

void appendEscapedStateField(std::string& out, std::string_view field) {
  for (const char c : field) {
    switch (c) {
      case '%': out += "%25"; break;
      case '|': out += "%7C"; break;
      case ';': out += "%3B"; break;
      case '\t': out += "%09"; break;
      case '\n': out += "%0A"; break;
      case '\r': out += "%0D"; break;
      default: out += c; break;
    }
  }
}

std::string escapeStateField(std::string_view field) {
  std::string out;
  out.reserve(field.size());
  appendEscapedStateField(out, field);
  return out;
}

namespace {
int hexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

std::string unescapeStateField(std::string_view field) {
  std::string out;
  out.reserve(field.size());
  for (std::size_t i = 0; i < field.size(); ++i) {
    if (field[i] == '%' && i + 2 < field.size()) {
      const int hi = hexValue(field[i + 1]);
      const int lo = hexValue(field[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out += static_cast<char>(hi * 16 + lo);
        i += 2;
        continue;
      }
    }
    out += field[i];
  }
  return out;
}

namespace {

// True iff `text` contains no hard whitespace (anything but ' ') and no
// adjacent spaces — i.e. collapsing it is the identity. SWAR over eight
// bytes per probe; this is the overwhelmingly common shape of a text node
// once its indentation has been trimmed (words separated by single spaces).
bool isAlreadyCollapsed(std::string_view text) {
  namespace swar = cookiepicker::util::swar;
  const char* data = text.data();
  const std::size_t n = text.size();
  std::size_t i = 0;
  bool prevSpace = false;
  while (i + 8 <= n) {
    const std::uint64_t word = swar::loadWord(data + i);
    // Hard whitespace is exactly the byte range 0x09..0x0D: one range test
    // ("has a byte between 0x08 and 0x0E", nonzero iff some lane is)
    // instead of five equality tests.
    const std::uint64_t low7 = word & (swar::kOnes * 0x7F);
    const std::uint64_t hardWs = ((swar::kOnes * (0x7F + 0x0E)) - low7) &
                                 ~word & (low7 + swar::kOnes * (0x7F - 0x08)) &
                                 swar::kHighBits;
    if (hardWs != 0) return false;
    const std::uint64_t space = swar::matchByte(word, ' ');
    // (space >> 8) aligns lane k+1 onto lane k, so the AND marks every
    // lane followed by another space; the lane-0 check catches a pair that
    // straddles the previous word.
    if ((space & (space >> 8)) != 0) return false;
    if (prevSpace && (space & 0x80ULL) != 0) return false;
    prevSpace = (space & (0x80ULL << 56)) != 0;
    i += 8;
  }
  for (; i < n; ++i) {
    const char ch = data[i];
    if (ch == '\t' || ch == '\n' || ch == '\r' || ch == '\f' || ch == '\v') {
      return false;
    }
    const bool isSpace = ch == ' ';
    if (isSpace && prevSpace) return false;
    prevSpace = isSpace;
  }
  return true;
}

}  // namespace

std::string_view collapseWhitespaceView(std::string_view text,
                                        std::string& scratch) {
  // This is the hottest text-path function (once per text node in both
  // snapshot producers), and the dominant input shape is indentation around
  // already-collapsed words ("\n      Welcome to the shop\n    "). Trim the
  // edges and verify the middle is collapse-clean with a SWAR scan; such
  // text is returned as a slice, and only genuinely messy text takes the
  // run-splitting copy. Semantics are unchanged from the classic scalar
  // loop: words joined by single spaces, leading/trailing whitespace dropped.
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && isAsciiSpace(text[begin])) ++begin;
  while (end > begin && isAsciiSpace(text[end - 1])) --end;
  const std::string_view mid = text.substr(begin, end - begin);
  if (mid.empty() || isAlreadyCollapsed(mid)) return mid;
  scratch.clear();
  const std::size_t n = mid.size();
  std::size_t i = 0;
  while (i < n) {
    const std::size_t wordEnd = AsciiSpaceScanner::find(mid, i);
    if (!scratch.empty()) scratch.push_back(' ');
    scratch.append(mid.data() + i, wordEnd - i);
    i = skipAsciiSpace(mid, wordEnd);
  }
  return scratch;
}

}  // namespace cookiepicker::util
