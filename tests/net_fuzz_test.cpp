// Deterministic fuzz sweeps over the wire-facing parsers: URLs, Set-Cookie
// headers, HTTP dates. The properties are totality (no crash, no hang on
// any byte soup), determinism, and idempotent reformatting where a
// formatter exists.
#include <gtest/gtest.h>

#include <string>

#include "net/cookie_parse.h"
#include "net/url.h"
#include "util/rng.h"

namespace cookiepicker::net {
namespace {

std::string randomBytes(util::Pcg32& rng, int maxLength) {
  const int length = static_cast<int>(
      rng.uniform(0, static_cast<std::uint32_t>(maxLength)));
  std::string text;
  text.reserve(static_cast<std::size_t>(length));
  for (int i = 0; i < length; ++i) {
    // Mostly printable ASCII with occasional control/high bytes.
    if (rng.chance(0.9)) {
      text.push_back(static_cast<char>(rng.uniform(0x20, 0x7E)));
    } else {
      text.push_back(static_cast<char>(rng.uniform(0, 255)));
    }
  }
  return text;
}

std::string randomUrlish(util::Pcg32& rng) {
  static const char* kPieces[] = {
      "http://", "https://", "ftp://", "", "example.com", "a.b.c",
      ":8080",   ":-1",      ":99999", "/", "/path",      "?q=1",
      "#frag",   "//",       "..",     "%41", "@user",    "[::1]",
  };
  std::string url;
  const int pieces = static_cast<int>(rng.uniform(1, 6));
  for (int i = 0; i < pieces; ++i) {
    url += kPieces[rng.uniform(0, std::size(kPieces) - 1)];
  }
  return url;
}

class NetFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NetFuzz, UrlParseIsTotalAndDeterministic) {
  util::Pcg32 rng(GetParam(), 1);
  for (int trial = 0; trial < 300; ++trial) {
    const std::string text =
        rng.chance(0.5) ? randomUrlish(rng) : randomBytes(rng, 80);
    const auto first = Url::parse(text);
    const auto second = Url::parse(text);
    EXPECT_EQ(first.has_value(), second.has_value()) << text;
    if (first.has_value()) {
      EXPECT_EQ(first->toString(), second->toString());
      // Reparsing the canonical form is a fixpoint.
      const auto reparsed = Url::parse(first->toString());
      ASSERT_TRUE(reparsed.has_value()) << first->toString();
      EXPECT_EQ(reparsed->toString(), first->toString());
      // Invariants.
      EXPECT_FALSE(first->host().empty());
      EXPECT_EQ(first->path()[0], '/');
    }
  }
}

TEST_P(NetFuzz, ResolveIsTotal) {
  util::Pcg32 rng(GetParam(), 2);
  const Url base = *Url::parse("http://base.example/dir/page?q=1");
  for (int trial = 0; trial < 300; ++trial) {
    const std::string reference = randomBytes(rng, 60);
    const Url resolved = base.resolve(reference);
    EXPECT_FALSE(resolved.host().empty());
    EXPECT_EQ(resolved.path()[0], '/');
  }
}

TEST_P(NetFuzz, SetCookieParseIsTotalAndDeterministic) {
  util::Pcg32 rng(GetParam(), 3);
  static const char* kFragments[] = {
      "a=b",        ";",          "Domain=",   "Domain=.x.com",
      "Path=/",     "Path=zzz",   "Max-Age=",  "Max-Age=12",
      "Max-Age=-5", "Expires=",   "Secure",    "HttpOnly",
      "=",          "==",         " ",         "name",
      "Expires=Sun, 06 Nov 1994 08:49:37 GMT", "\x01\x02",
  };
  for (int trial = 0; trial < 400; ++trial) {
    std::string header;
    const int count = static_cast<int>(rng.uniform(0, 6));
    for (int i = 0; i < count; ++i) {
      header += kFragments[rng.uniform(0, std::size(kFragments) - 1)];
      if (rng.chance(0.7)) header += "; ";
    }
    const auto first = parseSetCookie(header);
    const auto second = parseSetCookie(header);
    EXPECT_EQ(first.has_value(), second.has_value()) << header;
    if (first.has_value()) {
      EXPECT_FALSE(first->name.empty());
      EXPECT_EQ(first->name, second->name);
      EXPECT_EQ(first->value, second->value);
    }
  }
}

TEST_P(NetFuzz, CookieHeaderParseFormatStable) {
  util::Pcg32 rng(GetParam(), 4);
  for (int trial = 0; trial < 200; ++trial) {
    const std::string header = randomBytes(rng, 100);
    const auto pairs = parseCookieHeader(header);
    // Formatting what was parsed and reparsing it is lossless. The pairs
    // are views, so the formatted header must outlive the reparse.
    const std::string formatted = formatCookieHeader(pairs);
    const auto reparsed = parseCookieHeader(formatted);
    EXPECT_EQ(pairs.size(), reparsed.size()) << header;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      EXPECT_EQ(pairs[i].first, reparsed[i].first);
    }
  }
}

TEST_P(NetFuzz, HttpDateParseIsTotal) {
  util::Pcg32 rng(GetParam(), 5);
  static const char* kDateFragments[] = {
      "Sun,", "06",  "Nov",  "1994", "08:49:37", "GMT", "99:99:99",
      "32",   "Feb", "0",    "-1",   "24:00:00", "xx",  "2007",
      "70",   "69",  "12:0", "",     "Janbruary",
  };
  for (int trial = 0; trial < 400; ++trial) {
    std::string text;
    const int count = static_cast<int>(rng.uniform(0, 7));
    for (int i = 0; i < count; ++i) {
      text += kDateFragments[rng.uniform(0, std::size(kDateFragments) - 1)];
      text += " ";
    }
    const auto first = parseHttpDate(text);
    const auto second = parseHttpDate(text);
    EXPECT_EQ(first.has_value(), second.has_value()) << text;
    if (first.has_value()) {
      // Any parsed date must survive a format/parse round trip.
      EXPECT_EQ(parseHttpDate(formatHttpDate(*first)).value_or(-1), *first)
          << text;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetFuzz,
                         ::testing::Values(3, 7, 31, 127, 8191));

}  // namespace
}  // namespace cookiepicker::net
