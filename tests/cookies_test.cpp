#include <gtest/gtest.h>

#include <limits>

#include "cookies/jar.h"
#include "cookies/policy.h"
#include "net/cookie_parse.h"

namespace cookiepicker::cookies {
namespace {

using net::parseSetCookie;
using net::Url;

constexpr util::SimTimeMs kNow = 1'000'000;

net::SetCookie cookie(const std::string& header) {
  const auto parsed = parseSetCookie(header);
  EXPECT_TRUE(parsed.has_value()) << header;
  return *parsed;
}

Url url(const std::string& text) { return *Url::parse(text); }

// --- store ---------------------------------------------------------------

TEST(CookieJar, StoresHostOnlySessionCookie) {
  CookieJar jar;
  EXPECT_EQ(jar.store(cookie("sid=1"), url("http://a.com/x/y"), true, kNow),
            SetCookieOutcome::Stored);
  const CookieRecord* record = jar.find({"sid", "a.com", "/x"});
  ASSERT_NE(record, nullptr);
  EXPECT_TRUE(record->hostOnly);
  EXPECT_FALSE(record->persistent);
  EXPECT_EQ(record->key.path, "/x");  // default path: directory of /x/y
}

TEST(CookieJar, MaxAgeMakesPersistent) {
  CookieJar jar;
  jar.store(cookie("a=1; Max-Age=60"), url("http://a.com/"), true, kNow);
  const CookieRecord* record = jar.find({"a", "a.com", "/"});
  ASSERT_NE(record, nullptr);
  EXPECT_TRUE(record->persistent);
  EXPECT_EQ(record->expiryMs, kNow + 60'000);
}

TEST(CookieJar, MaxAgeWinsOverExpires) {
  CookieJar jar;
  jar.store(cookie("a=1; Max-Age=60; Expires=Sun, 06 Nov 1994 08:49:37 GMT"),
            url("http://a.com/"), true, kNow);
  const CookieRecord* record = jar.find({"a", "a.com", "/"});
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->expiryMs, kNow + 60'000);
}

TEST(CookieJar, DomainAttributeMustCoverHost) {
  CookieJar jar;
  EXPECT_EQ(jar.store(cookie("a=1; Domain=other.com"),
                      url("http://a.com/"), true, kNow),
            SetCookieOutcome::Rejected);
  EXPECT_EQ(jar.size(), 0u);
}

TEST(CookieJar, DomainAttributeAllowsParentDomain) {
  CookieJar jar;
  EXPECT_EQ(jar.store(cookie("a=1; Domain=example.com"),
                      url("http://shop.example.com/"), true, kNow),
            SetCookieOutcome::Stored);
  const CookieRecord* record = jar.find({"a", "example.com", "/"});
  ASSERT_NE(record, nullptr);
  EXPECT_FALSE(record->hostOnly);
}

TEST(CookieJar, ZeroMaxAgeDeletesExisting) {
  CookieJar jar;
  jar.store(cookie("a=1; Max-Age=60"), url("http://a.com/"), true, kNow);
  EXPECT_EQ(jar.size(), 1u);
  EXPECT_EQ(jar.store(cookie("a=gone; Max-Age=0"), url("http://a.com/"),
                      true, kNow),
            SetCookieOutcome::Deleted);
  EXPECT_EQ(jar.size(), 0u);
}

TEST(CookieJar, UpdatePreservesCreationAndUsefulMark) {
  CookieJar jar;
  jar.store(cookie("a=1; Max-Age=60"), url("http://a.com/"), true, kNow);
  jar.markUseful({"a", "a.com", "/"});
  EXPECT_EQ(jar.store(cookie("a=2; Max-Age=60"), url("http://a.com/"), true,
                      kNow + 500),
            SetCookieOutcome::Updated);
  const CookieRecord* record = jar.find({"a", "a.com", "/"});
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->value, "2");
  EXPECT_EQ(record->creationMs, kNow);
  EXPECT_TRUE(record->useful);  // the FORCUM mark survives value updates
}

// --- matching ---------------------------------------------------------------

// Max-Age * 1000 and Expires * 1000 leave 64 bits for these two. Both are
// stored persistent with the latest representable expiry instead of
// wrapping into the past and being dropped as already expired.
TEST(CookieJar, LifetimesPastTheClockSaturate) {
  CookieJar jar;
  EXPECT_EQ(jar.store(cookie("t=1; Max-Age=9223372036854775807"),
                      url("http://a.com/"), true, kNow),
            SetCookieOutcome::Stored);
  EXPECT_EQ(jar.store(cookie("u=1; Expires=Wed, 21 Oct 300000000 07:28:00 GMT"),
                      url("http://a.com/"), true, kNow),
            SetCookieOutcome::Stored);
  for (const char* name : {"t", "u"}) {
    const CookieRecord* record = jar.find({name, "a.com", "/"});
    ASSERT_NE(record, nullptr) << name;
    EXPECT_TRUE(record->persistent) << name;
    EXPECT_EQ(record->expiryMs, std::numeric_limits<util::SimTimeMs>::max())
        << name;
  }
  EXPECT_EQ(jar.cookieHeaderFor(url("http://a.com/"), kNow), "t=1; u=1");
  // The negative extreme saturates the other way: a deletion request.
  EXPECT_EQ(jar.store(cookie("t=1; Max-Age=-9223372036854775808"),
                      url("http://a.com/"), true, kNow),
            SetCookieOutcome::Deleted);
}

TEST(CookieJar, HostOnlyCookieNotSentToSubdomain) {
  CookieJar jar;
  jar.store(cookie("a=1"), url("http://example.com/"), true, kNow);
  EXPECT_TRUE(jar.cookiesFor(url("http://sub.example.com/"), kNow).empty());
  EXPECT_EQ(jar.cookiesFor(url("http://example.com/"), kNow).size(), 1u);
}

TEST(CookieJar, DomainCookieSentToSubdomain) {
  CookieJar jar;
  jar.store(cookie("a=1; Domain=example.com"),
            url("http://www.example.com/"), true, kNow);
  EXPECT_EQ(jar.cookiesFor(url("http://shop.example.com/"), kNow).size(),
            1u);
}

TEST(CookieJar, PathMatching) {
  CookieJar jar;
  jar.store(cookie("a=1; Path=/shop"), url("http://a.com/"), true, kNow);
  EXPECT_EQ(jar.cookiesFor(url("http://a.com/shop"), kNow).size(), 1u);
  EXPECT_EQ(jar.cookiesFor(url("http://a.com/shop/cart"), kNow).size(), 1u);
  EXPECT_TRUE(jar.cookiesFor(url("http://a.com/shopping"), kNow).empty());
  EXPECT_TRUE(jar.cookiesFor(url("http://a.com/"), kNow).empty());
}

TEST(PathMatches, Rfc6265Rules) {
  EXPECT_TRUE(pathMatches("/a/b", "/a/b"));
  EXPECT_TRUE(pathMatches("/a/b/c", "/a/b"));
  EXPECT_TRUE(pathMatches("/a/b", "/a/"));
  EXPECT_FALSE(pathMatches("/a/bc", "/a/b"));
  EXPECT_FALSE(pathMatches("/a", "/a/b"));
}

TEST(CookieJar, SecureCookieOnlyOverHttps) {
  CookieJar jar;
  jar.store(cookie("a=1; Secure"), url("https://a.com/"), true, kNow);
  EXPECT_TRUE(jar.cookiesFor(url("http://a.com/"), kNow).empty());
  EXPECT_EQ(jar.cookiesFor(url("https://a.com/"), kNow).size(), 1u);
}

TEST(CookieJar, SendOrderLongestPathFirst) {
  CookieJar jar;
  jar.store(cookie("root=1; Path=/"), url("http://a.com/"), true, kNow);
  jar.store(cookie("deep=2; Path=/x/y"), url("http://a.com/x/y/"), true,
            kNow + 1);
  const auto sent = jar.cookiesFor(url("http://a.com/x/y/z"), kNow + 2);
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_EQ(sent[0]->key.name, "deep");
  EXPECT_EQ(sent[1]->key.name, "root");
}

TEST(CookieJar, CookieHeaderFormatting) {
  CookieJar jar;
  jar.store(cookie("a=1"), url("http://a.com/"), true, kNow);
  jar.store(cookie("b=2"), url("http://a.com/"), true, kNow + 1);
  EXPECT_EQ(jar.cookieHeaderFor(url("http://a.com/"), kNow + 2), "a=1; b=2");
  EXPECT_EQ(jar.cookieHeaderFor(url("http://other.com/"), kNow + 2), "");
}

// --- filters -----------------------------------------------------------------

TEST(CookieJar, SendOptionsExcludePersistent) {
  CookieJar jar;
  jar.store(cookie("session=1"), url("http://a.com/"), true, kNow);
  jar.store(cookie("persist=2; Max-Age=999"), url("http://a.com/"), true,
            kNow);
  SendOptions options;
  options.includePersistent = false;
  const auto sent = jar.cookiesFor(url("http://a.com/"), kNow, options);
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0]->key.name, "session");
}

TEST(CookieJar, ExcludePersistentIfPredicate) {
  CookieJar jar;
  jar.store(cookie("keep=1; Max-Age=999"), url("http://a.com/"), true, kNow);
  jar.store(cookie("drop=2; Max-Age=999"), url("http://a.com/"), true, kNow);
  SendOptions options;
  options.excludePersistentIf = [](const CookieRecord& record) {
    return record.key.name == "drop";
  };
  const auto sent = jar.cookiesFor(url("http://a.com/"), kNow, options);
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0]->key.name, "keep");
}

// --- expiry / lifecycle -------------------------------------------------------

TEST(CookieJar, ExpiredCookiesNotSentAndPurged) {
  CookieJar jar;
  jar.store(cookie("a=1; Max-Age=10"), url("http://a.com/"), true, kNow);
  EXPECT_EQ(jar.cookiesFor(url("http://a.com/"), kNow + 5'000).size(), 1u);
  EXPECT_TRUE(jar.cookiesFor(url("http://a.com/"), kNow + 11'000).empty());
  EXPECT_EQ(jar.size(), 0u);  // lazily purged
}

TEST(CookieJar, EndSessionDropsSessionCookiesOnly) {
  CookieJar jar;
  jar.store(cookie("s=1"), url("http://a.com/"), true, kNow);
  jar.store(cookie("p=2; Max-Age=99999"), url("http://a.com/"), true, kNow);
  jar.endSession();
  EXPECT_EQ(jar.size(), 1u);
  EXPECT_NE(jar.find({"p", "a.com", "/"}), nullptr);
}

TEST(CookieJar, MarkUsefulUnknownKeyFails) {
  CookieJar jar;
  EXPECT_FALSE(jar.markUseful({"nope", "a.com", "/"}));
}

TEST(CookieJar, RemoveIfReturnsCount) {
  CookieJar jar;
  jar.store(cookie("a=1; Max-Age=99"), url("http://a.com/"), true, kNow);
  jar.store(cookie("b=2; Max-Age=99"), url("http://b.com/"), true, kNow);
  const std::size_t removed = jar.removeIf(
      [](const CookieRecord& record) { return record.key.domain == "a.com"; });
  EXPECT_EQ(removed, 1u);
  EXPECT_EQ(jar.size(), 1u);
}

TEST(CookieJar, PersistentCookiesForHost) {
  CookieJar jar;
  jar.store(cookie("s=1"), url("http://a.com/"), true, kNow);
  jar.store(cookie("p1=2; Max-Age=99"), url("http://a.com/"), true, kNow);
  jar.store(cookie("p2=3; Max-Age=99; Domain=a.com"),
            url("http://www.a.com/"), true, kNow);
  jar.store(cookie("other=4; Max-Age=99"), url("http://b.com/"), true, kNow);
  EXPECT_EQ(jar.persistentCookiesForHost("a.com").size(), 2u);
  EXPECT_EQ(jar.persistentCookiesForHost("www.a.com").size(), 1u);
}

// --- persistence ---------------------------------------------------------------

TEST(CookieJar, SerializeDeserializeRoundTrip) {
  CookieJar jar;
  jar.store(cookie("a=1; Max-Age=60; Secure; HttpOnly"),
            url("https://a.com/x/"), true, kNow);
  jar.store(cookie("b=2; Domain=b.com; Path=/p"), url("http://www.b.com/"),
            false, kNow);
  jar.markUseful({"a", "a.com", "/x"});

  CookieJar restored = CookieJar::deserialize(jar.serialize());
  EXPECT_EQ(restored.size(), 2u);
  const CookieRecord* a = restored.find({"a", "a.com", "/x"});
  ASSERT_NE(a, nullptr);
  EXPECT_TRUE(a->useful);
  EXPECT_TRUE(a->secure);
  EXPECT_TRUE(a->persistent);
  EXPECT_EQ(a->expiryMs, kNow + 60'000);
  const CookieRecord* b = restored.find({"b", "b.com", "/p"});
  ASSERT_NE(b, nullptr);
  EXPECT_FALSE(b->hostOnly);
  EXPECT_FALSE(b->firstParty);
}

TEST(CookieJar, DeserializeSkipsMalformedLines) {
  const CookieJar jar = CookieJar::deserialize("garbage\nmore\tgarbage\n");
  EXPECT_EQ(jar.size(), 0u);
}

// --- policy -----------------------------------------------------------------

TEST(CookiePolicy, RecommendedBlocksThirdParty) {
  const CookiePolicy policy = CookiePolicy::recommended();
  EXPECT_TRUE(policy.shouldAccept(/*firstParty=*/true, /*persistent=*/false));
  EXPECT_TRUE(policy.shouldAccept(true, true));
  EXPECT_FALSE(policy.shouldAccept(false, false));
  EXPECT_FALSE(policy.shouldAccept(false, true));
}

TEST(CookiePolicy, BlockAllAcceptsNothing) {
  const CookiePolicy policy = CookiePolicy::blockAll();
  EXPECT_FALSE(policy.shouldAccept(true, false));
  EXPECT_FALSE(policy.shouldAccept(true, true));
}

TEST(CookiePolicy, FirstPartyByRegistrableDomain) {
  EXPECT_TRUE(isFirstParty(url("http://cdn.shop.example/img.png"),
                           url("http://www.shop.example/")));
  EXPECT_FALSE(isFirstParty(url("http://ads.tracker.example/pixel.gif"),
                            url("http://www.shop.example/")));
}

TEST(DefaultCookiePath, DirectoryOfRequestPath) {
  EXPECT_EQ(defaultCookiePath(url("http://a.com/x/y/z")), "/x/y");
  EXPECT_EQ(defaultCookiePath(url("http://a.com/x")), "/");
  EXPECT_EQ(defaultCookiePath(url("http://a.com/")), "/");
}

}  // namespace
}  // namespace cookiepicker::cookies
