#include "net/cookie_parse.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <limits>

#include "util/strings.h"

namespace cookiepicker::net {

using util::equalsIgnoreCase;
using util::split;
using util::toLowerAscii;
using util::trim;

namespace {

constexpr std::array<const char*, 12> kMonthNames = {
    "jan", "feb", "mar", "apr", "may", "jun",
    "jul", "aug", "sep", "oct", "nov", "dec"};

constexpr std::array<const char*, 7> kWeekdayNames = {
    "Thu", "Fri", "Sat", "Sun", "Mon", "Tue", "Wed"};  // epoch day 0 = Thu

// Days from the civil epoch 1970-01-01 (Howard Hinnant's algorithm).
std::int64_t daysFromCivil(std::int64_t year, unsigned month, unsigned day) {
  year -= month <= 2;
  const std::int64_t era = (year >= 0 ? year : year - 399) / 400;
  const auto yearOfEra = static_cast<unsigned>(year - era * 400);
  const unsigned dayOfYear =
      (153 * (month + (month > 2 ? -3 : 9)) + 2) / 5 + day - 1;
  const unsigned dayOfEra = yearOfEra * 365 + yearOfEra / 4 -
                            yearOfEra / 100 + dayOfYear;
  return era * 146097 + static_cast<std::int64_t>(dayOfEra) - 719468;
}

void civilFromDays(std::int64_t days, std::int64_t& year, unsigned& month,
                   unsigned& day) {
  days += 719468;
  const std::int64_t era = (days >= 0 ? days : days - 146096) / 146097;
  const auto dayOfEra = static_cast<unsigned>(days - era * 146097);
  const unsigned yearOfEra =
      (dayOfEra - dayOfEra / 1460 + dayOfEra / 36524 - dayOfEra / 146096) /
      365;
  year = static_cast<std::int64_t>(yearOfEra) + era * 400;
  const unsigned dayOfYear =
      dayOfEra - (365 * yearOfEra + yearOfEra / 4 - yearOfEra / 100);
  const unsigned mp = (5 * dayOfYear + 2) / 153;
  day = dayOfYear - (153 * mp + 2) / 5 + 1;
  month = mp + (mp < 10 ? 3 : -9);
  year += month <= 2;
}

bool parseInteger(std::string_view text, std::int64_t& value) {
  if (text.empty()) return false;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  return ec == std::errc() && ptr == text.data() + text.size();
}

// Date tokens are the runs between ',', '-' and the ASCII whitespace
// util::trim strips.
bool isDateSeparator(char ch) {
  return ch == ',' || ch == '-' || ch == ' ' || ch == '\t' || ch == '\r' ||
         ch == '\n' || ch == '\f' || ch == '\v';
}

// One "%d" conversion of glibc's sscanf at `at`: leading white space (the
// "C" locale's isspace set), an optional sign, then at least one digit.
// glibc converts the digits with strtol, which saturates at the 64-bit long
// range, and narrows the long to int, so "4294967308" reads as 12 and any
// longer run of nines as -1.
bool scanIntField(std::string_view text, std::size_t& at, int& value) {
  while (at < text.size() &&
         (text[at] == ' ' || (text[at] >= '\t' && text[at] <= '\r'))) {
    ++at;
  }
  bool negative = false;
  if (at < text.size() && (text[at] == '+' || text[at] == '-')) {
    negative = text[at] == '-';
    ++at;
  }
  // |LONG_MIN|; a magnitude past it has overflowed in either direction.
  constexpr std::uint64_t kLimit = std::uint64_t{1} << 63;
  std::uint64_t magnitude = 0;
  bool overflowed = false;
  const std::size_t digits = at;
  for (; at < text.size() && text[at] >= '0' && text[at] <= '9'; ++at) {
    const auto digit = static_cast<std::uint64_t>(text[at] - '0');
    if (magnitude > (kLimit - digit) / 10) {
      overflowed = true;
    } else if (!overflowed) {
      magnitude = magnitude * 10 + digit;
    }
  }
  if (at == digits) return false;
  std::int64_t converted = 0;
  if (negative) {
    converted = overflowed ? std::numeric_limits<std::int64_t>::min()
                           : static_cast<std::int64_t>(0 - magnitude);
  } else {
    converted = overflowed || magnitude >= kLimit
                    ? std::numeric_limits<std::int64_t>::max()
                    : static_cast<std::int64_t>(magnitude);
  }
  value = static_cast<int>(converted);  // modular, as glibc's store is
  return true;
}

// sscanf(token, "%d:%d:%d") == 3, by hand: the same accept/reject
// decisions ("+1:+2:+3" is a time, trailing bytes are ignored) and the same
// values. sscanf reads a C string, so the token ends at its first NUL.
bool scanTime(std::string_view token, int& hour, int& minute, int& second) {
  token = token.substr(0, token.find('\0'));
  std::size_t at = 0;
  if (!scanIntField(token, at, hour)) return false;
  if (at == token.size() || token[at] != ':') return false;
  ++at;
  if (!scanIntField(token, at, minute)) return false;
  if (at == token.size() || token[at] != ':') return false;
  ++at;
  return scanIntField(token, at, second);
}

}  // namespace

std::optional<SetCookie> parseSetCookie(std::string_view header) {
  // Every piece is a view into the header: the name=value pair up to the
  // first ';', then one attribute per ';'-separated piece.
  std::size_t end = header.find(';');
  const std::string_view nameValue = trim(header.substr(0, end));
  const std::size_t equals = nameValue.find('=');
  if (equals == std::string_view::npos || equals == 0) return std::nullopt;

  SetCookie cookie;
  cookie.name = trim(nameValue.substr(0, equals));
  cookie.value = trim(nameValue.substr(equals + 1));
  if (cookie.name.empty()) return std::nullopt;

  while (end != std::string_view::npos) {
    const std::size_t start = end + 1;
    end = header.find(';', start);
    const std::string_view attribute = trim(header.substr(
        start, end == std::string_view::npos ? end : end - start));
    if (attribute.empty()) continue;
    const std::size_t attrEquals = attribute.find('=');
    const std::string_view attrName =
        trim(attribute.substr(0, attrEquals));
    const std::string_view attrValue =
        attrEquals == std::string_view::npos
            ? std::string_view()
            : trim(attribute.substr(attrEquals + 1));

    if (equalsIgnoreCase(attrName, "domain")) {
      std::string_view domain = attrValue;
      if (!domain.empty() && domain[0] == '.') domain.remove_prefix(1);
      if (!domain.empty()) cookie.domain = toLowerAscii(domain);
    } else if (equalsIgnoreCase(attrName, "path")) {
      if (!attrValue.empty() && attrValue[0] == '/') cookie.path = attrValue;
    } else if (equalsIgnoreCase(attrName, "max-age")) {
      std::int64_t seconds = 0;
      if (parseInteger(attrValue, seconds)) cookie.maxAgeSeconds = seconds;
    } else if (equalsIgnoreCase(attrName, "expires")) {
      cookie.expiresEpochSeconds = parseHttpDate(attrValue);
    } else if (equalsIgnoreCase(attrName, "secure")) {
      cookie.secure = true;
    } else if (equalsIgnoreCase(attrName, "httponly")) {
      cookie.httpOnly = true;
    }
    // Unknown attributes (Version, Comment, SameSite, ...) are ignored.
  }
  return cookie;
}

std::vector<std::pair<std::string, std::string>> parseCookieHeader(
    std::string_view header) {
  std::vector<std::pair<std::string, std::string>> cookies;
  for (const std::string& part : split(header, ';')) {
    const std::string_view pair = trim(part);
    if (pair.empty()) continue;
    const std::size_t equals = pair.find('=');
    if (equals == std::string_view::npos || equals == 0) continue;
    cookies.emplace_back(std::string(trim(pair.substr(0, equals))),
                         std::string(trim(pair.substr(equals + 1))));
  }
  return cookies;
}

std::string formatCookieHeader(
    const std::vector<std::pair<std::string, std::string>>& cookies) {
  std::string header;
  for (const auto& [name, value] : cookies) {
    if (!header.empty()) header += "; ";
    header += name + "=" + value;
  }
  return header;
}

std::optional<std::int64_t> parseHttpDate(std::string_view text) {
  // RFC 6265 §5.1.1-style tolerant scan: split into tokens and look for a
  // time (hh:mm:ss), a day of month, a month name, and a year — in any
  // order. Covers RFC 1123, RFC 850, and asctime formats.
  std::optional<int> hour;
  std::optional<int> minute;
  std::optional<int> second;
  std::optional<int> dayOfMonth;
  std::optional<int> month;  // 1..12
  std::optional<std::int64_t> year;

  std::size_t next = 0;
  while (true) {
    while (next < text.size() && isDateSeparator(text[next])) ++next;
    if (next == text.size()) break;
    const std::size_t start = next;
    while (next < text.size() && !isDateSeparator(text[next])) ++next;
    const std::string_view token = text.substr(start, next - start);
    if (!hour.has_value() && token.find(':') != std::string_view::npos) {
      int h = 0;
      int m = 0;
      int s = 0;
      if (scanTime(token, h, m, s) && h >= 0 && h <= 23 && m >= 0 &&
          m <= 59 && s >= 0 && s <= 59) {
        hour = h;
        minute = m;
        second = s;
      }
      continue;
    }
    if (!month.has_value() && token.size() >= 3 &&
        (token[0] < '0' || token[0] > '9')) {
      // The first three bytes, ASCII-lowered, against the month table.
      const char prefix[3] = {util::toLowerAscii(token[0]),
                              util::toLowerAscii(token[1]),
                              util::toLowerAscii(token[2])};
      for (std::size_t index = 0; index < kMonthNames.size(); ++index) {
        if (std::equal(prefix, prefix + 3, kMonthNames[index])) {
          month = static_cast<int>(index) + 1;
          break;
        }
      }
      if (month.has_value()) continue;
    }
    std::int64_t number = 0;
    if (parseInteger(token, number)) {
      if (!dayOfMonth.has_value() && token.size() <= 2 && number >= 1 &&
          number <= 31) {
        dayOfMonth = static_cast<int>(number);
      } else if (!year.has_value() && token.size() >= 2) {
        // Two-digit years: 70-99 → 19xx, 00-69 → 20xx (RFC 6265 rule).
        if (number >= 70 && number <= 99) {
          year = 1900 + number;
        } else if (number >= 0 && number <= 69 && token.size() == 2) {
          year = 2000 + number;
        } else if (number >= 1601) {
          year = number;
        }
      }
    }
  }

  if (!hour.has_value() || !dayOfMonth.has_value() || !month.has_value() ||
      !year.has_value()) {
    return std::nullopt;
  }
  // The year is bounded before any day arithmetic: past the last year whose
  // seconds fit in 64 bits the date saturates, and within it only the final
  // days can still overflow, which the checked products catch.
  constexpr std::int64_t kLastYear = 292277026596;
  constexpr std::int64_t kLatest = std::numeric_limits<std::int64_t>::max();
  if (*year > kLastYear) return kLatest;
  const std::int64_t days = daysFromCivil(
      *year, static_cast<unsigned>(*month),
      static_cast<unsigned>(*dayOfMonth));
  std::int64_t seconds = 0;
  if (__builtin_mul_overflow(days, std::int64_t{86400}, &seconds) ||
      __builtin_add_overflow(seconds, *hour * 3600 + *minute * 60 + *second,
                             &seconds)) {
    return kLatest;
  }
  return seconds;
}

std::string formatHttpDate(std::int64_t epochSeconds) {
  std::int64_t days = epochSeconds / 86400;
  std::int64_t secondsOfDay = epochSeconds % 86400;
  if (secondsOfDay < 0) {
    secondsOfDay += 86400;
    days -= 1;
  }
  std::int64_t year = 0;
  unsigned month = 0;
  unsigned day = 0;
  civilFromDays(days, year, month, day);
  const char* weekday =
      kWeekdayNames[static_cast<std::size_t>(((days % 7) + 7) % 7)];
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer),
                "%s, %02u %c%c%c %lld %02lld:%02lld:%02lld GMT", weekday, day,
                static_cast<char>(
                    std::toupper(kMonthNames[month - 1][0])),
                kMonthNames[month - 1][1], kMonthNames[month - 1][2],
                static_cast<long long>(year),
                static_cast<long long>(secondsOfDay / 3600),
                static_cast<long long>((secondsOfDay / 60) % 60),
                static_cast<long long>(secondsOfDay % 60));
  return buffer;
}

}  // namespace cookiepicker::net
