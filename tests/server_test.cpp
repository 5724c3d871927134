#include <gtest/gtest.h>

#include "core/cvce.h"
#include "core/decision.h"
#include "core/node_detection.h"
#include "core/rstm.h"
#include "html/parser.h"
#include "dom/serialize.h"
#include "net/cookie_parse.h"
#include "server/evasion.h"
#include "server/generator.h"
#include "server/site.h"
#include "test_support.h"

namespace cookiepicker::server {
namespace {

using testsupport::SimWorld;

net::HttpRequest makeRequest(const std::string& url,
                             const std::string& cookieHeader = "") {
  net::HttpRequest request;
  request.url = *net::Url::parse(url);
  if (!cookieHeader.empty()) request.headers.set("Cookie", cookieHeader);
  return request;
}

std::unique_ptr<dom::Node> fetchDom(WebSite& site,
                                    const std::string& url,
                                    const std::string& cookies = "") {
  const net::HttpResponse response = site.handle(makeRequest(url, cookies));
  EXPECT_EQ(response.status, 200);
  return html::parseHtml(response.body);
}

SiteConfig basicConfig(const std::string& domain = "t.example") {
  SiteConfig config;
  config.domain = domain;
  config.title = "Test Portal";
  config.category = "news";
  config.seed = 99;
  return config;
}

// --- skeleton ----------------------------------------------------------------

TEST(WebSite, ServesHtmlWithSkeleton) {
  util::SimClock clock;
  WebSite site(basicConfig(), clock);
  const net::HttpResponse response =
      site.handle(makeRequest("http://t.example/"));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.headers.get("Content-Type").value_or(""), "text/html");
  auto document = html::parseHtml(response.body);
  EXPECT_NE(document->findFirst("body"), nullptr);
  EXPECT_NE(document->findFirst("main"), nullptr);
  EXPECT_NE(document->findFirst("nav"), nullptr);
  EXPECT_NE(document->findFirst("footer"), nullptr);
}

TEST(WebSite, SkeletonStructureStableAcrossFetches) {
  util::SimClock clock;
  WebSite site(basicConfig(), clock);
  auto first = fetchDom(site, "http://t.example/page2");
  auto second = fetchDom(site, "http://t.example/page2");
  EXPECT_EQ(dom::structureSignature(*first),
            dom::structureSignature(*second));
}

TEST(WebSite, DifferentPathsDifferentContent) {
  util::SimClock clock;
  WebSite site(basicConfig(), clock);
  auto pageA = fetchDom(site, "http://t.example/page1");
  auto pageB = fetchDom(site, "http://t.example/page2");
  EXPECT_NE(pageA->textContent(), pageB->textContent());
}

TEST(WebSite, DifferentSeedsDifferentContent) {
  util::SimClock clock;
  SiteConfig configA = basicConfig();
  SiteConfig configB = basicConfig();
  configB.seed = 100;
  configB.domain = "u.example";
  WebSite siteA(configA, clock);
  WebSite siteB(configB, clock);
  EXPECT_NE(fetchDom(siteA, "http://t.example/")->textContent(),
            fetchDom(siteB, "http://u.example/")->textContent());
}

TEST(WebSite, AssetsServedWithRightTypes) {
  util::SimClock clock;
  WebSite site(basicConfig(), clock);
  EXPECT_EQ(site.handle(makeRequest("http://t.example/assets/site.css"))
                .headers.get("Content-Type")
                .value_or(""),
            "text/css");
  EXPECT_EQ(site.handle(makeRequest("http://t.example/assets/app.js"))
                .headers.get("Content-Type")
                .value_or(""),
            "application/javascript");
  EXPECT_EQ(site.handle(makeRequest("http://t.example/metrics/0/pixel.gif"))
                .headers.get("Content-Type")
                .value_or(""),
            "image/gif");
}

TEST(WebSite, RedirectEntry) {
  util::SimClock clock;
  SiteConfig config = basicConfig();
  config.useRedirectEntry = true;
  WebSite site(config, clock);
  const net::HttpResponse response =
      site.handle(makeRequest("http://t.example/"));
  EXPECT_TRUE(response.isRedirect());
  EXPECT_EQ(response.headers.get("Location").value_or(""), "/home");
  // The redirect target serves a normal page.
  const net::HttpResponse target =
      site.handle(makeRequest("http://t.example/home"));
  EXPECT_EQ(target.status, 200);
}

TEST(WebSite, PagePathsEnumerated) {
  util::SimClock clock;
  SiteConfig config = basicConfig();
  config.pageCount = 4;
  WebSite site(config, clock);
  const auto paths = site.pagePaths();
  ASSERT_EQ(paths.size(), 4u);
  EXPECT_EQ(paths[0], "/");
  EXPECT_EQ(paths[3], "/page3");
}

// --- behaviors: cookies --------------------------------------------------------

TEST(TrackingCookie, SetOnceThenQuiet) {
  util::SimClock clock;
  WebSite site(basicConfig(), clock);
  site.addBehavior(std::make_unique<TrackingCookieBehavior>("trk0"));
  const auto first = site.handle(makeRequest("http://t.example/"));
  const auto setCookies = first.setCookieHeaders();
  ASSERT_EQ(setCookies.size(), 1u);
  const auto parsed = net::parseSetCookie(setCookies[0]);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->name, "trk0");
  // Trackers use Max-Age or the older Expires format (name-stable choice);
  // either way the cookie is persistent.
  EXPECT_TRUE(parsed->maxAgeSeconds.has_value() ||
              parsed->expiresEpochSeconds.has_value());
  // Once the client presents it, no more Set-Cookie.
  const auto second = site.handle(
      makeRequest("http://t.example/", "trk0=" + std::string(parsed->value)));
  EXPECT_TRUE(second.setCookieHeaders().empty());
}

TEST(TrackingCookie, HasNoRenderEffect) {
  util::SimClock clock;
  WebSite site(basicConfig(), clock);
  site.addBehavior(std::make_unique<TrackingCookieBehavior>("trk0"));
  auto with = fetchDom(site, "http://t.example/", "trk0=abc");
  auto without = fetchDom(site, "http://t.example/");
  EXPECT_EQ(dom::toHtml(*with), dom::toHtml(*without));
}

TEST(TrackingCookie, PathScopedPixelTracker) {
  util::SimClock clock;
  SiteConfig config = basicConfig();
  config.pixelTrackers = 1;
  WebSite site(config, clock);
  site.addBehavior(std::make_unique<TrackingCookieBehavior>(
      "px0", 86400, "/metrics/0", "/metrics/0/"));
  // Container request: no pixel cookie set.
  EXPECT_TRUE(site.handle(makeRequest("http://t.example/"))
                  .setCookieHeaders()
                  .empty());
  // Pixel request: cookie set with the scoped path.
  const auto pixel =
      site.handle(makeRequest("http://t.example/metrics/0/pixel.gif"));
  const auto pixelCookies = pixel.setCookieHeaders();
  ASSERT_EQ(pixelCookies.size(), 1u);
  const auto parsed = net::parseSetCookie(pixelCookies[0]);
  EXPECT_EQ(parsed->path.value_or(""), "/metrics/0");
  // Page skeletons embed the pixel image.
  auto document = fetchDom(site, "http://t.example/");
  bool foundPixel = false;
  for (const dom::Node* img : document->findAll("img")) {
    if (img->attribute("src").value_or("").starts_with("/metrics/0/")) {
      foundPixel = true;
    }
  }
  EXPECT_TRUE(foundPixel);
}

TEST(SessionCart, SetsSessionCookieAndShowsCount) {
  util::SimClock clock;
  WebSite site(basicConfig(), clock);
  site.addBehavior(std::make_unique<SessionCartBehavior>());
  const auto response = site.handle(makeRequest("http://t.example/"));
  const auto setCookies = response.setCookieHeaders();
  ASSERT_EQ(setCookies.size(), 1u);
  const auto parsed = net::parseSetCookie(setCookies[0]);
  EXPECT_FALSE(parsed->maxAgeSeconds.has_value());   // session cookie
  EXPECT_FALSE(parsed->expiresEpochSeconds.has_value());
  auto document = html::parseHtml(response.body);
  EXPECT_NE(document->textContent().find("Cart items"), std::string::npos);
}

// A name the client sends twice reads as its last value, and the evasion
// detector counts names, not pairs: a repeat carrying the same two names
// is not a probe.
TEST(SessionCart, RepeatedCookieNameReadsAsLastValue) {
  util::SimClock clock;
  WebSite site(basicConfig(), clock);
  site.addBehavior(std::make_unique<SessionCartBehavior>());
  auto evasion = std::make_unique<EvasionBehavior>();
  const EvasionBehavior* detector = evasion.get();
  site.addBehavior(std::move(evasion));
  const auto repeated =
      site.handle(makeRequest("http://t.example/page1", "cart=1; x=2; cart=3"));
  EXPECT_NE(repeated.body.find("Cart items: 3"), std::string::npos);
  EXPECT_TRUE(repeated.setCookieHeaders().empty());
  site.handle(makeRequest("http://t.example/page1", "cart=1; x=2"));
  EXPECT_EQ(detector->probesDetected(), 0u);
}

TEST(PreferenceCookie, PersonalizesPageWhenPresent) {
  util::SimClock clock;
  WebSite site(basicConfig(), clock);
  site.addBehavior(
      std::make_unique<PreferenceCookieBehavior>("prefstyle", 2));
  auto with = fetchDom(site, "http://t.example/", "prefstyle=blue");
  auto without = fetchDom(site, "http://t.example/");
  // The personalized page has a sidebar and recommendations.
  EXPECT_NE(with->textContent().find("Welcome back"), std::string::npos);
  EXPECT_EQ(without->textContent().find("Welcome back"), std::string::npos);
  const core::DecisionResult decision =
      core::decideCookieUsefulness(*with, *without);
  EXPECT_TRUE(decision.causedByCookies)
      << "tree=" << decision.treeSim << " text=" << decision.textSim;
}

TEST(PreferenceCookie, PersonalizationStableAcrossFetches) {
  util::SimClock clock;
  SiteConfig config = basicConfig();
  config.rotatingHeadlines = false;  // isolate: no noise behaviors attached
  WebSite site(config, clock);
  site.addBehavior(
      std::make_unique<PreferenceCookieBehavior>("prefstyle", 2));
  auto first = fetchDom(site, "http://t.example/", "prefstyle=blue");
  auto second = fetchDom(site, "http://t.example/", "prefstyle=blue");
  EXPECT_EQ(dom::toHtml(*first), dom::toHtml(*second));
}

TEST(PreferenceCookie, HighIntensityDominatesPage) {
  util::SimClock clock;
  WebSite site(basicConfig(), clock);
  site.addBehavior(
      std::make_unique<PreferenceCookieBehavior>("prefstyle", 3));
  auto with = fetchDom(site, "http://t.example/", "prefstyle=blue");
  auto without = fetchDom(site, "http://t.example/");
  const core::DecisionResult decision =
      core::decideCookieUsefulness(*with, *without);
  // P4-style: both similarities far below the 0.85 thresholds.
  EXPECT_LT(decision.treeSim, 0.6);
  EXPECT_LT(decision.textSim, 0.6);
}

TEST(SignUpWall, BlocksContentWithoutCookie) {
  util::SimClock clock;
  WebSite site(basicConfig(), clock);
  site.addBehavior(std::make_unique<SignUpWallBehavior>("acctid"));
  auto without = fetchDom(site, "http://t.example/");
  EXPECT_NE(without->textContent().find("Create your account"),
            std::string::npos);
  auto with = fetchDom(site, "http://t.example/", "acctid=u1");
  EXPECT_EQ(with->textContent().find("Create your account"),
            std::string::npos);
  EXPECT_TRUE(core::decideCookieUsefulness(*with, *without).causedByCookies);
}

TEST(QueryCache, CachedResultsOnlyWithCookie) {
  util::SimClock clock;
  WebSite site(basicConfig(), clock);
  site.addBehavior(std::make_unique<QueryCacheBehavior>("qdir"));
  auto with = fetchDom(site, "http://t.example/", "qdir=abc");
  auto without = fetchDom(site, "http://t.example/");
  EXPECT_NE(with->textContent().find("recent query results"),
            std::string::npos);
  EXPECT_NE(without->textContent().find("Recomputing"), std::string::npos);
  EXPECT_TRUE(core::decideCookieUsefulness(*with, *without).causedByCookies);
}

// --- behaviors: noise -----------------------------------------------------------

TEST(AdRotation, FillsSlotsDifferentlyPerFetchButCalmToDetector) {
  util::SimClock clock;
  WebSite site(basicConfig(), clock);
  site.addBehavior(std::make_unique<AdRotationNoise>());
  auto first = fetchDom(site, "http://t.example/");
  auto second = fetchDom(site, "http://t.example/");
  // Raw HTML differs (ad copy rotated)...
  EXPECT_NE(dom::toHtml(*first), dom::toHtml(*second));
  // ...but the detector sees no cookie-caused difference.
  const core::DecisionResult decision =
      core::decideCookieUsefulness(*first, *second);
  EXPECT_FALSE(decision.causedByCookies);
  EXPECT_DOUBLE_EQ(decision.treeSim, 1.0);  // ads live below level 5
}

TEST(HeadlineRotation, SameContextReplacementForgiven) {
  util::SimClock clock;
  WebSite site(basicConfig(), clock);
  site.addBehavior(std::make_unique<HeadlineRotationNoise>());
  auto first = fetchDom(site, "http://t.example/");
  auto second = fetchDom(site, "http://t.example/");
  const core::DecisionResult decision =
      core::decideCookieUsefulness(*first, *second);
  EXPECT_FALSE(decision.causedByCookies);
  EXPECT_DOUBLE_EQ(decision.textSim, 1.0);  // the s term absorbs rotation
}

TEST(Timestamp, FilteredAsDateTimeNoise) {
  util::SimClock clock;
  WebSite site(basicConfig(), clock);
  site.addBehavior(std::make_unique<TimestampNoise>());
  auto first = fetchDom(site, "http://t.example/");
  clock.advanceSeconds(37.0);
  auto second = fetchDom(site, "http://t.example/");
  EXPECT_NE(dom::toHtml(*first), dom::toHtml(*second));
  EXPECT_DOUBLE_EQ(core::decideCookieUsefulness(*first, *second).textSim,
                   1.0);
}

TEST(LayoutShuffle, CreatesUpperLevelDifferences) {
  util::SimClock clock;
  WebSite site(basicConfig(), clock);
  site.addBehavior(std::make_unique<LayoutShuffleNoise>(1.0));
  // With probability 1 the shuffle fires on both fetches with different
  // variants/rotations; across a few tries we must observe a low tree sim.
  double minTreeSim = 1.0;
  for (int i = 0; i < 6; ++i) {
    auto first = fetchDom(site, "http://t.example/");
    auto second = fetchDom(site, "http://t.example/");
    minTreeSim = std::min(
        minTreeSim, core::decideCookieUsefulness(*first, *second).treeSim);
  }
  EXPECT_LT(minTreeSim, 0.85);
}

TEST(LayoutShuffle, ZeroProbabilityIsInert) {
  util::SimClock clock;
  WebSite site(basicConfig(), clock);
  site.addBehavior(std::make_unique<LayoutShuffleNoise>(0.0));
  auto first = fetchDom(site, "http://t.example/");
  auto second = fetchDom(site, "http://t.example/");
  EXPECT_EQ(dom::toHtml(*first), dom::toHtml(*second));
}

// --- generator -------------------------------------------------------------------

TEST(Generator, FifteenCategories) {
  EXPECT_EQ(directoryCategories().size(), 15u);
}

TEST(Generator, Table1RosterMatchesPaperInventory) {
  const auto roster = table1Roster();
  ASSERT_EQ(roster.size(), 30u);
  int totalPersistent = 0;
  int totalUseful = 0;
  for (const SiteSpec& spec : roster) {
    totalPersistent += spec.totalPersistent();
    totalUseful += spec.totalUseful();
  }
  EXPECT_EQ(totalPersistent, 103);  // Table 1 "Total" row
  EXPECT_EQ(totalUseful, 3);        // 2 on S6 + 1 on S16

  EXPECT_EQ(roster[5].label, "S6");
  EXPECT_EQ(roster[5].totalUseful(), 2);
  EXPECT_EQ(roster[15].label, "S16");
  EXPECT_EQ(roster[15].totalPersistent(), 25);
  EXPECT_EQ(roster[15].totalUseful(), 1);
  // The noisy and slow sites.
  for (const int noisy : {0, 9, 26}) {
    EXPECT_GT(roster[noisy].layoutNoiseProbability, 0.0) << noisy;
  }
  for (const int slow : {3, 16, 27}) {
    EXPECT_EQ(roster[slow].speed, SiteSpeed::Slow) << slow;
  }
}

TEST(Generator, Table2RosterMatchesPaperInventory) {
  const auto roster = table2Roster();
  ASSERT_EQ(roster.size(), 6u);
  // Real useful cookies: 1,1,1,1,1,2.
  const int expectedUseful[6] = {1, 1, 1, 1, 1, 2};
  // Cookies riding container requests (useful + co-sent trackers):
  // the counts the paper reports as "Marked Useful": 1,1,1,1,9,5.
  const int expectedMarked[6] = {1, 1, 1, 1, 9, 5};
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(roster[i].totalUseful(), expectedUseful[i]) << "P" << i + 1;
    EXPECT_EQ(roster[i].totalUseful() + roster[i].containerTrackers,
              expectedMarked[i])
        << "P" << i + 1;
    EXPECT_EQ(roster[i].pixelTrackers, 0) << "P" << i + 1;
  }
  EXPECT_TRUE(roster[1].queryCache);   // P2: Performance
  EXPECT_TRUE(roster[2].signUpWall);   // P3: Sign Up
  EXPECT_EQ(roster[3].preferenceIntensity, 3);  // P4: dominating pref
}

TEST(Generator, UniqueDomainsAcrossRosters) {
  std::set<std::string> domains;
  for (const SiteSpec& spec : table1Roster()) domains.insert(spec.domain);
  for (const SiteSpec& spec : table2Roster()) domains.insert(spec.domain);
  EXPECT_EQ(domains.size(), 36u);
}

TEST(Generator, BuiltSiteSetsExpectedCookieCount) {
  SimWorld world;
  const SiteSpec spec = world.addSite(table1Roster()[13]);  // S14: 9 cookies
  // Crawl every page so path-scoped pixels get hit too.
  for (const char* path : {"/", "/page1", "/page2", "/page3"}) {
    world.browser.visit("http://" + spec.domain + path);
  }
  EXPECT_EQ(world.browser.jar().persistentCookiesForHost(spec.domain).size(),
            static_cast<std::size_t>(spec.totalPersistent()));
}

TEST(Generator, LargePageScalesWithSections) {
  const std::string small = generateLargePageHtml(5, 1);
  const std::string large = generateLargePageHtml(50, 1);
  EXPECT_GT(large.size(), 5 * small.size());
  auto document = html::parseHtml(large);
  EXPECT_EQ(document->findAll("section").size(), 50u);
}

}  // namespace
}  // namespace cookiepicker::server
