// Jar capacity limits: per-domain and global caps with LRU-style eviction
// that spares cookies CookiePicker marked useful.
#include <gtest/gtest.h>

#include "cookies/jar.h"
#include "net/cookie_parse.h"

namespace cookiepicker::cookies {
namespace {

using net::parseSetCookie;
using net::Url;

Url url(const std::string& text) { return *Url::parse(text); }

void storeCookie(CookieJar& jar, const std::string& host,
                 const std::string& name, util::SimTimeMs now) {
  const std::string header = name + "=v; Max-Age=99999";
  const auto parsed = parseSetCookie(header);  // views into `header`
  ASSERT_TRUE(parsed.has_value());
  jar.store(*parsed, url("http://" + host + "/"), true, now);
}

TEST(JarLimits, DefaultsMatchFirefoxEra) {
  CookieJar jar;
  EXPECT_EQ(jar.limits().maxPerDomain, 50u);
  EXPECT_EQ(jar.limits().maxTotal, 1000u);
}

TEST(JarLimits, PerDomainCapEvictsOldest) {
  CookieJar jar;
  jar.setLimits({3, 100});
  storeCookie(jar, "a.com", "c1", 1000);
  storeCookie(jar, "a.com", "c2", 2000);
  storeCookie(jar, "a.com", "c3", 3000);
  EXPECT_EQ(jar.size(), 3u);
  storeCookie(jar, "a.com", "c4", 4000);
  EXPECT_EQ(jar.size(), 3u);
  EXPECT_EQ(jar.evictionCount(), 1u);
  EXPECT_EQ(jar.find({"c1", "a.com", "/"}), nullptr);  // oldest evicted
  EXPECT_NE(jar.find({"c4", "a.com", "/"}), nullptr);
}

TEST(JarLimits, OtherDomainsUnaffectedByPerDomainCap) {
  CookieJar jar;
  jar.setLimits({2, 100});
  storeCookie(jar, "a.com", "a1", 1000);
  storeCookie(jar, "a.com", "a2", 2000);
  storeCookie(jar, "b.com", "b1", 500);
  storeCookie(jar, "a.com", "a3", 3000);  // evicts a1, not b1
  EXPECT_NE(jar.find({"b1", "b.com", "/"}), nullptr);
  EXPECT_EQ(jar.find({"a1", "a.com", "/"}), nullptr);
}

TEST(JarLimits, GlobalCapEvictsAcrossDomains) {
  CookieJar jar;
  jar.setLimits({50, 4});
  for (int i = 0; i < 6; ++i) {
    storeCookie(jar, "site" + std::to_string(i) + ".com", "c",
                1000 + i * 100);
  }
  EXPECT_EQ(jar.size(), 4u);
  EXPECT_EQ(jar.find({"c", "site0.com", "/"}), nullptr);
  EXPECT_EQ(jar.find({"c", "site1.com", "/"}), nullptr);
  EXPECT_NE(jar.find({"c", "site5.com", "/"}), nullptr);
}

TEST(JarLimits, UsefulCookiesEvictedLast) {
  CookieJar jar;
  jar.setLimits({2, 100});
  storeCookie(jar, "a.com", "precious", 1000);  // oldest...
  jar.markUseful({"precious", "a.com", "/"});   // ...but marked useful
  storeCookie(jar, "a.com", "junk", 2000);
  storeCookie(jar, "a.com", "more", 3000);
  // junk (unmarked, older than more) is evicted; precious survives despite
  // being the least recently accessed.
  EXPECT_NE(jar.find({"precious", "a.com", "/"}), nullptr);
  EXPECT_EQ(jar.find({"junk", "a.com", "/"}), nullptr);
}

TEST(JarLimits, AccessRefreshesEvictionOrder) {
  CookieJar jar;
  jar.setLimits({2, 100});
  storeCookie(jar, "a.com", "old", 1000);
  storeCookie(jar, "a.com", "newer", 2000);
  // Touch "old" via a matching request: its lastAccess becomes freshest.
  jar.cookiesFor(url("http://a.com/"), 5000);
  // Hmm — both were touched. Touch order: re-store "newer" won't help;
  // instead verify that updating a cookie keeps its original creation but
  // a fresh store of a third evicts the least recently *accessed*.
  const auto parsed = parseSetCookie("old=v2; Max-Age=99999");
  jar.store(*parsed, url("http://a.com/"), true, 6000);  // update, not evict
  EXPECT_EQ(jar.size(), 2u);
  storeCookie(jar, "a.com", "third", 7000);
  // "newer" (lastAccess 5000) is older than "old" (updated at 6000).
  EXPECT_EQ(jar.find({"newer", "a.com", "/"}), nullptr);
  EXPECT_NE(jar.find({"old", "a.com", "/"}), nullptr);
}

TEST(JarLimits, UpdateDoesNotTriggerEviction) {
  CookieJar jar;
  jar.setLimits({2, 100});
  storeCookie(jar, "a.com", "c1", 1000);
  storeCookie(jar, "a.com", "c2", 2000);
  storeCookie(jar, "a.com", "c1", 3000);  // update in place
  EXPECT_EQ(jar.size(), 2u);
  EXPECT_EQ(jar.evictionCount(), 0u);
}

TEST(JarLimits, SessionAndPersistentCountTogether) {
  CookieJar jar;
  jar.setLimits({2, 100});
  const auto session = parseSetCookie("s=1");
  jar.store(*session, url("http://a.com/"), true, 1000);
  storeCookie(jar, "a.com", "p1", 2000);
  storeCookie(jar, "a.com", "p2", 3000);
  EXPECT_EQ(jar.size(), 2u);
  EXPECT_EQ(jar.evictionCount(), 1u);
}

}  // namespace
}  // namespace cookiepicker::cookies
