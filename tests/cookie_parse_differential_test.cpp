// Differential pin for the Set-Cookie and HTTP-date parsers.
//
// net::parseSetCookie and net::parseHttpDate walk the header in place,
// over string_view pieces, and read the Expires time token by hand. The
// parsers they replaced — split the header into owned strings, normalize a
// copy of the date, split it on whitespace into more strings, lower-case a
// copy of each month prefix, sscanf the time — live on here as the oracle,
// unchanged but for two things: its cookie owns its strings, and its date
// takes the same year bound as the parser (a date whose seconds overflow 64
// bits saturates; both computed that product unchecked before). Every
// seeded random header and date must parse to the same fields under both,
// and so must the literal edge cases below: the ones where a careless
// rewrite would change an accept/reject decision (sscanf's signed and
// overflowing time fields, two-digit years, '\v' as a separator, a time
// token longer than any stack copy, a NUL inside the time, an upper-case
// domain with a leading dot, empty attributes, lifetimes that overflow the
// clock). COOKIEPICKER_FUZZ scales the trial count for soak runs
// (tools/check.sh fuzz-thread|fuzz-address).
#include <gtest/gtest.h>

#include <array>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fuzz_documents.h"
#include "net/cookie_parse.h"
#include "util/rng.h"
#include "util/strings.h"

namespace cookiepicker {
namespace {

using testsupport::fuzzScale;

// --- the oracle: the allocating parsers, as they were -------------------------

namespace oracle {

using util::equalsIgnoreCase;
using util::split;
using util::toLowerAscii;
using util::trim;

constexpr std::array<const char*, 12> kMonthNames = {
    "jan", "feb", "mar", "apr", "may", "jun",
    "jul", "aug", "sep", "oct", "nov", "dec"};

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

bool parseInteger(std::string_view text, std::int64_t& value) {
  if (text.empty()) return false;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  return ec == std::errc() && ptr == text.data() + text.size();
}

std::optional<std::int64_t> parseHttpDate(std::string_view text) {
  std::optional<int> hour;
  std::optional<int> minute;
  std::optional<int> second;
  std::optional<int> dayOfMonth;
  std::optional<int> month;  // 1..12
  std::optional<std::int64_t> year;

  std::string normalized(text);
  for (char& ch : normalized) {
    if (ch == ',' || ch == '-') ch = ' ';
  }
  for (const std::string& token : util::splitWhitespace(normalized)) {
    if (!hour.has_value() && token.find(':') != std::string::npos) {
      int h = 0;
      int m = 0;
      int s = 0;
      if (std::sscanf(token.c_str(), "%d:%d:%d", &h, &m, &s) == 3 &&
          h >= 0 && h <= 23 && m >= 0 && m <= 59 && s >= 0 && s <= 59) {
        hour = h;
        minute = m;
        second = s;
      }
      continue;
    }
    if (!month.has_value() && token.size() >= 3) {
      const std::string prefix = toLowerAscii(
          std::string_view(token).substr(0, 3));
      for (std::size_t index = 0; index < kMonthNames.size(); ++index) {
        if (prefix == kMonthNames[index]) {
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
  // The parser's bound: saturate where the seconds leave 64 bits.
  constexpr std::int64_t kLatest = std::numeric_limits<std::int64_t>::max();
  if (*year > 292277026596) return kLatest;
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

// net::SetCookie views its header; the oracle's cookie owns its strings.
struct SetCookie {
  std::string name;
  std::string value;
  std::optional<std::string> domain;
  std::optional<std::string> path;
  std::optional<std::int64_t> maxAgeSeconds;
  std::optional<std::int64_t> expiresEpochSeconds;
  bool secure = false;
  bool httpOnly = false;
};

std::optional<SetCookie> parseSetCookie(std::string_view header) {
  const std::vector<std::string> parts = split(header, ';');
  if (parts.empty()) return std::nullopt;

  const std::string_view nameValue = trim(parts[0]);
  const std::size_t equals = nameValue.find('=');
  if (equals == std::string_view::npos || equals == 0) return std::nullopt;

  SetCookie cookie;
  cookie.name = std::string(trim(nameValue.substr(0, equals)));
  cookie.value = std::string(trim(nameValue.substr(equals + 1)));
  if (cookie.name.empty()) return std::nullopt;

  for (std::size_t i = 1; i < parts.size(); ++i) {
    const std::string_view attribute = trim(parts[i]);
    if (attribute.empty()) continue;
    const std::size_t attrEquals = attribute.find('=');
    const std::string_view attrName =
        trim(attribute.substr(0, attrEquals));
    const std::string_view attrValue =
        attrEquals == std::string_view::npos
            ? std::string_view()
            : trim(attribute.substr(attrEquals + 1));

    if (equalsIgnoreCase(attrName, "domain")) {
      std::string domain = toLowerAscii(attrValue);
      if (!domain.empty() && domain[0] == '.') domain.erase(0, 1);
      if (!domain.empty()) cookie.domain = domain;
    } else if (equalsIgnoreCase(attrName, "path")) {
      if (!attrValue.empty() && attrValue[0] == '/') {
        cookie.path = std::string(attrValue);
      }
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
  }
  return cookie;
}

}  // namespace oracle

// --- comparison ----------------------------------------------------------------

// Control bytes spelled out, so a failing input can be pasted back.
std::string printable(std::string_view text) {
  std::string out;
  for (const char ch : text) {
    const auto byte = static_cast<unsigned char>(ch);
    if (byte < 0x20 || byte >= 0x7f || ch == '\\') {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\x%02x", byte);
      out += escaped;
    } else {
      out += ch;
    }
  }
  return out;
}

void expectSameDate(std::string_view date) {
  EXPECT_EQ(oracle::parseHttpDate(date), net::parseHttpDate(date))
      << "date \"" << printable(date) << "\"";
}

void expectSameCookie(std::string_view header) {
  const std::optional<oracle::SetCookie> expected =
      oracle::parseSetCookie(header);
  const std::optional<net::SetCookie> actual = net::parseSetCookie(header);
  SCOPED_TRACE("header \"" + printable(header) + "\"");
  ASSERT_EQ(expected.has_value(), actual.has_value());
  if (!expected.has_value()) return;
  EXPECT_EQ(expected->name, actual->name);
  EXPECT_EQ(expected->value, actual->value);
  EXPECT_EQ(expected->domain, actual->domain);
  EXPECT_EQ(expected->path, actual->path);
  EXPECT_EQ(expected->maxAgeSeconds, actual->maxAgeSeconds);
  EXPECT_EQ(expected->expiresEpochSeconds, actual->expiresEpochSeconds);
  EXPECT_EQ(expected->secure, actual->secure);
  EXPECT_EQ(expected->httpOnly, actual->httpOnly);
}

// --- generators --------------------------------------------------------------

template <std::size_t N>
const char* pick(util::Pcg32& rng, const char* const (&pool)[N]) {
  return pool[rng.uniform(0, static_cast<std::uint32_t>(N - 1))];
}

// Bytes that sit on a parser decision: every separator, sign, digit and
// case the two parsers must treat alike, plus a NUL.
std::string randomBytes(util::Pcg32& rng, int maxLength) {
  static constexpr char kBytes[] = {
      'a', 'N', 'o', 'v', 'J', 'A', 'n', '0', '1', '6', '9', '7', ' ',
      '\t', '\v', '\f', '\r', '\n', ',', '-', '+', ':', ';', '=', '.',
      '/', '\0'};
  std::string out;
  const auto length = rng.uniform(0, static_cast<std::uint32_t>(maxLength));
  for (std::uint32_t i = 0; i < length; ++i) {
    out += kBytes[rng.uniform(0, sizeof(kBytes) - 1)];
  }
  return out;
}

std::string randomDate(util::Pcg32& rng) {
  static constexpr const char* kTokens[] = {
      "Sun", "Thu", "Sunday", "06", "6", "1", "31", "32", "0", "00", "69",
      "70", "99", "100", "1601", "1600", "1994", "2038", "94", "Nov",
      "NOV", "nov", "November", "De", "Dec", "dEc", "jan", "GMT",
      "08:49:37", "23:59:59", "24:00:00", "23:60:00", "1:2:3", "+1:+2:+3",
      "4294967308:00:00", "12:3", "::", ":", "00:00:00:00", "x:1:2",
      "00000000000000000000000000000000000000000000000000000000000008:49:37",
      "123456789012345678901234567890"};
  static constexpr const char* kSeparators[] = {
      " ", ", ", ",", "-", "  ", "\t", "\v", "\f", " \r\n ", "", "/"};
  switch (rng.uniform(0, 3)) {
    case 0:  // a well-formed date, as servers write it
      return net::formatHttpDate(
          static_cast<std::int64_t>(rng.uniform(0, 4'000'000'000U)) -
          1'000'000'000);
    case 1:  // raw bytes around the separators
      return randomBytes(rng, 40);
    default: {  // date-shaped token soup
      std::string out;
      const auto tokens = rng.uniform(0, 8);
      for (std::uint32_t i = 0; i < tokens; ++i) {
        if (i > 0 || rng.uniform(0, 3) == 0) out += pick(rng, kSeparators);
        out += pick(rng, kTokens);
      }
      if (rng.uniform(0, 3) == 0) out += pick(rng, kSeparators);
      return out;
    }
  }
}

std::string randomAttributeValue(util::Pcg32& rng) {
  static constexpr const char* kValues[] = {
      ".X.COM", "shop.example", ".", "", "/", "/metrics/0", "metrics",
      "3600", "-5", "+5", "99999999999999999999", "0", " 12 ", "abc"};
  switch (rng.uniform(0, 2)) {
    case 0:
      return randomDate(rng);
    case 1:
      return randomBytes(rng, 12);
    default:
      return pick(rng, kValues);
  }
}

std::string randomHeader(util::Pcg32& rng) {
  static constexpr const char* kNames[] = {
      "prefstyle", "trk0", " a ", "", "x y", "\va", "=", "a=b=c"};
  static constexpr const char* kAttributes[] = {
      "Domain", "domain", "DOMAIN", "Path", "path", "Max-Age", "max-age",
      "MAX-AGE", "Expires", "expires", "EXPIRES", "Secure", "secure",
      "HttpOnly", "httponly", "SameSite", "Version", "", " Path ",
      "Dom ain", "\vDomain\v"};
  static constexpr const char* kGlue[] = {"=", " = ", "=\v", "\t="};
  static constexpr const char* kSeparators[] = {";", "; ", " ;", ";;", ";\v"};
  if (rng.uniform(0, 9) == 0) return randomBytes(rng, 60);
  std::string header = rng.uniform(0, 4) == 0 ? randomBytes(rng, 6)
                                              : std::string(pick(rng, kNames));
  header += pick(rng, kGlue);
  header += randomBytes(rng, 8);
  const auto attributes = rng.uniform(0, 6);
  for (std::uint32_t i = 0; i < attributes; ++i) {
    header += pick(rng, kSeparators);
    header += pick(rng, kAttributes);
    if (rng.uniform(0, 4) != 0) {
      header += pick(rng, kGlue);
      header += randomAttributeValue(rng);
    }
  }
  if (rng.uniform(0, 3) == 0) header += pick(rng, kSeparators);
  return header;
}

// --- tests ---------------------------------------------------------------------

class CookieParseDifferential : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(CookieParseDifferential, RandomHeadersParseAlike) {
  util::Pcg32 rng(GetParam(), 0x5e7c00c1eULL);
  const int trials = 4000 * fuzzScale();
  for (int trial = 0; trial < trials; ++trial) {
    expectSameCookie(randomHeader(rng));
    if (::testing::Test::HasFailure()) return;  // first divergence suffices
  }
}

TEST_P(CookieParseDifferential, RandomDatesParseAlike) {
  util::Pcg32 rng(GetParam(), 0xda7eULL);
  const int trials = 4000 * fuzzScale();
  for (int trial = 0; trial < trials; ++trial) {
    expectSameDate(randomDate(rng));
    if (::testing::Test::HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CookieParseDifferential,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(CookieParseDifferentialLiteral, DateEdgeCases) {
  const std::string longTime =
      "Sun, 06 Nov 1994 " + std::string(70, '0') + "8:49:37 GMT";
  const std::vector<std::string> dates = {
      "Sun, 06 Nov 1994 08:49:37 GMT",
      "Sunday, 06-Nov-94 08:49:37 GMT",
      "Sun Nov  6 08:49:37 1994",
      "Sun, 06 Nov 1994 +1:+2:+3 GMT",
      "Sun, 06 Nov 1994 4294967308:00:00 GMT",
      "Thu, 01 Jan 69 00:00:00 GMT",
      "Thu, 01 Jan 70 00:00:00 GMT",
      "Sun,\v06\vNov\v1994\v08:49:37\vGMT",
      longTime,
      std::string("Sun, 06 Nov 1994 08:4\0" "9:37 GMT", 30),
      "",
      " \v,-",
      "06 Nov 1994",
      "Wed, 21 Oct 300000000 07:28:00 GMT",
      "Sun, 04 Dec 292277026596 15:30:07 GMT",
      "Sun, 04 Dec 292277026596 15:30:08 GMT",
      "Mon, 01 Jan 292277026597 00:00:00 GMT",
      "Fri, 01 Jan 9223372036854775807 00:00:00 GMT",
      "Sun, 06 Nov 1994 99999999999999999999:00:00 GMT",
      "Sun, 06 Nov 1994 -0:1:2 GMT",
      "Sun, 06 Nov 1994 +:1:2 GMT",
  };
  for (const std::string& date : dates) expectSameDate(date);

  EXPECT_EQ(net::parseHttpDate("Sun, 06 Nov 1994 08:49:37 GMT"), 784111777);
  // sscanf's %d takes a sign, so signed fields are a valid time.
  EXPECT_EQ(net::parseHttpDate("Sun, 06 Nov 1994 +1:+2:+3 GMT"), 784083723);
  // Two-digit years: 69 is 2069, 70 is 1970.
  EXPECT_EQ(net::parseHttpDate("Thu, 01 Jan 69 00:00:00 GMT"), 3124224000);
  EXPECT_EQ(net::parseHttpDate("Thu, 01 Jan 70 00:00:00 GMT"), 0);
  // '\v' separates tokens like a space does.
  EXPECT_EQ(net::parseHttpDate("Sun,\v06\vNov\v1994\v08:49:37\vGMT"),
            784111777);
  // A time token longer than the stack copy still reads in full.
  EXPECT_EQ(net::parseHttpDate(longTime), 784111777);
  EXPECT_EQ(net::parseHttpDate("06 Nov 1994"), std::nullopt);
  // An hour past the long range saturates, then narrows to int (-1).
  EXPECT_EQ(net::parseHttpDate(
                "Sun, 06 Nov 1994 99999999999999999999:00:00 GMT"),
            std::nullopt);
  // Years whose seconds still fit parse exactly; the last second that fits
  // is the int64 maximum, and any later date saturates to it.
  EXPECT_EQ(net::parseHttpDate("Wed, 21 Oct 300000000 07:28:00 GMT"),
            9467023458209280);
  constexpr std::int64_t kLatest = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(net::parseHttpDate("Sun, 04 Dec 292277026596 15:30:07 GMT"),
            kLatest);
  EXPECT_EQ(net::parseHttpDate("Sun, 04 Dec 292277026596 15:30:08 GMT"),
            kLatest);
  EXPECT_EQ(net::parseHttpDate("Fri, 01 Jan 9223372036854775807 00:00:00 GMT"),
            kLatest);
}

TEST(CookieParseDifferentialLiteral, HeaderEdgeCases) {
  const std::vector<std::string> headers = {
      "a=b; Domain=.X.COM",
      "a=b;;; ;Path=/p; ;",
      "a=b; Domain=; Domain=.",
      "a=b; Domain=.Shop.Example; Domain=",
      "a=b; Expires=Sun,\v06\vNov\v1994\v08:49:37\vGMT",
      "a=b; Expires=Sun, 06 Nov 1994 08:49:37 GMT; Expires=garbage",
      "a=b; Max-Age=+5; Max-Age=-5",
      "a=b; Max-Age=12abc",
      "a=b; secure; HTTPONLY; samesite=lax",
      "t=1; Max-Age=9223372036854775807",
      "u=1; Expires=Wed, 21 Oct 300000000 07:28:00 GMT",
      "\v a \v=\v b \v",
      "=b",
      "a",
      "",
      ";",
      "; a=b",
      "a=b;",
  };
  for (const std::string& header : headers) expectSameCookie(header);

  const auto dotted = net::parseSetCookie("a=b; Domain=.X.COM");
  ASSERT_TRUE(dotted.has_value());
  EXPECT_EQ(dotted->domain, "x.com");
  const auto empties = net::parseSetCookie("a=b;;; ;Path=/p; ;");
  ASSERT_TRUE(empties.has_value());
  EXPECT_EQ(empties->path, "/p");
  const auto noDomain = net::parseSetCookie("a=b; Domain=; Domain=.");
  ASSERT_TRUE(noDomain.has_value());
  EXPECT_EQ(noDomain->domain, std::nullopt);
  // A later unparseable Expires clears an earlier one.
  const auto expires = net::parseSetCookie(
      "a=b; Expires=Sun, 06 Nov 1994 08:49:37 GMT; Expires=garbage");
  ASSERT_TRUE(expires.has_value());
  EXPECT_EQ(expires->expiresEpochSeconds, std::nullopt);
  const auto maxAge = net::parseSetCookie("a=b; Max-Age=+5; Max-Age=-5");
  ASSERT_TRUE(maxAge.has_value());
  EXPECT_EQ(maxAge->maxAgeSeconds, -5);
  EXPECT_FALSE(net::parseSetCookie("=b").has_value());
  EXPECT_FALSE(net::parseSetCookie("; a=b").has_value());
}

}  // namespace
}  // namespace cookiepicker
