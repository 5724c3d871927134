// Robustness features: failure injection, non-200 handling along the whole
// pipeline, UTF-8 content in CVCE, <base href> resolution, and the P2
// performance effect of the query-cache cookie.
#include <gtest/gtest.h>

#include "core/cookie_picker.h"
#include "core/cvce.h"
#include "core/node_detection.h"
#include "core/rstm.h"
#include "faults/fault_plan.h"
#include "html/parser.h"
#include "server/generator.h"
#include "test_support.h"
#include "util/strings.h"

namespace cookiepicker {
namespace {

using testsupport::SimWorld;

// --- failure injection --------------------------------------------------------

TEST(FailureInjection, InjectsConfiguredFraction) {
  SimWorld world;
  const auto spec = world.addGenericSite("flaky.example");
  // The plan-text form of what FaultPlan::uniformFailure(0.3) builds.
  const auto plan = faults::FaultPlan::parse("rule action=server-error p=0.3");
  ASSERT_TRUE(plan.has_value());
  world.network.setFaultPlan(
      std::make_shared<const faults::FaultPlan>(*plan));
  int failures = 0;
  for (int i = 0; i < 200; ++i) {
    net::HttpRequest request;
    request.url = *net::Url::parse(world.urlFor(spec));
    if (world.network.dispatch(request).response.status == 503) ++failures;
  }
  EXPECT_GT(failures, 30);
  EXPECT_LT(failures, 100);
  EXPECT_EQ(world.network.injectedFailures(),
            static_cast<std::uint64_t>(failures));
}

TEST(FailureInjection, BrowserSurvives503Container) {
  SimWorld world;
  const auto spec = world.addGenericSite("flaky.example");
  world.network.setFaultPlan(faults::FaultPlan::uniformFailure(1.0));
  const browser::PageView view = world.browser.visit(world.urlFor(spec));
  EXPECT_EQ(view.status, 503);
  ASSERT_NE(view.snapshot, nullptr);  // error page still parsed + flattened
}

TEST(FailureInjection, TrainingConvergesDespiteFlakiness) {
  SimWorld world;
  server::SiteSpec spec;
  spec.label = "F";
  spec.domain = "flaky.example";
  spec.category = "science";
  spec.seed = 6;
  spec.preferenceCookies = 1;
  spec.preferenceIntensity = 2;
  spec.containerTrackers = 1;
  world.addSite(spec);
  world.network.setFaultPlan(faults::FaultPlan::uniformFailure(0.10));
  // PerCookie mode so the tracker/preference distinction is judgeable
  // (the default AllPersistent mode co-marks co-sent cookies by design).
  core::CookiePickerConfig config;
  config.forcum.groupMode = core::CookieGroupMode::PerCookie;
  core::CookiePicker picker(world.browser, config);
  for (int i = 0; i < 20; ++i) {
    picker.browse("http://flaky.example/page" + std::to_string(i % 6 + 1));
  }
  // Despite ~10% of all requests failing, the useful cookie is found and
  // the tracker is not.
  const cookies::CookieRecord* pref =
      world.browser.jar().find({"prefstyle", spec.domain, "/"});
  ASSERT_NE(pref, nullptr);
  EXPECT_TRUE(pref->useful);
  const cookies::CookieRecord* tracker =
      world.browser.jar().find({"trk0", spec.domain, "/"});
  if (tracker != nullptr) {
    EXPECT_FALSE(tracker->useful);
  }
}

TEST(FailureInjection, ErrorPagesNeverMarkCookies) {
  // A 503 on the hidden path must not be compared against the regular page
  // (their DOMs would differ wildly and mark everything).
  SimWorld world;
  server::SiteSpec spec;
  spec.label = "T";
  spec.domain = "t.example";
  spec.category = "news";
  spec.seed = 7;
  spec.containerTrackers = 2;
  world.addSite(spec);
  core::CookiePicker picker(world.browser);
  picker.browse("http://t.example/");  // seed cookies, no failures

  world.network.setFaultPlan(faults::FaultPlan::uniformFailure(1.0));
  // The regular visit fails too here, but the hidden request path is what
  // we care about: run the FORCUM hook against the last good view.
  world.network.setFaultPlan(nullptr);
  const auto goodView = world.browser.visit("http://t.example/");
  world.network.setFaultPlan(faults::FaultPlan::uniformFailure(1.0));
  const auto report = picker.onPageLoaded(goodView);
  EXPECT_TRUE(report.hiddenRequestSent);
  EXPECT_TRUE(report.newlyMarked.empty());
  EXPECT_FALSE(report.decision.causedByCookies);
  // The new resilience layer reports the degradation explicitly.
  EXPECT_TRUE(report.skipped);
  EXPECT_EQ(report.skipReason, "hidden-degraded:http-503");
}

// --- UTF-8 content ---------------------------------------------------------

TEST(Utf8, NonLatinTextIsContentNotNoise) {
  EXPECT_TRUE(util::hasAlphanumeric("中文内容"));
  EXPECT_TRUE(util::hasAlphanumeric("Привет"));
  EXPECT_FALSE(util::hasAlphanumeric("--- !!!"));
}

TEST(Utf8, CvceExtractsNonLatinText) {
  auto document = html::parseHtml(
      "<body><main><p>全部新闻内容</p><p>спорт и погода</p></main></body>");
  const auto set =
      core::extractContextContent(core::comparisonRoot(*document));
  EXPECT_EQ(set.size(), 2u);
}

TEST(Utf8, NonLatinContentDifferencesDetected) {
  auto pageA = html::parseHtml("<body><main><p>全部新闻内容</p></main></body>");
  auto pageB = html::parseHtml("<body><main><div><ul><li>登录后可见</li>"
                               "</ul></div></main></body>");
  const auto setA =
      core::extractContextContent(core::comparisonRoot(*pageA));
  const auto setB =
      core::extractContextContent(core::comparisonRoot(*pageB));
  EXPECT_LT(core::nTextSim(setA, setB), 0.85);
}

TEST(Utf8, EntityDecodedCjkSurvivesPipeline) {
  auto document = html::parseHtml("<body><p>&#x4E2D;&#x6587;</p></body>");
  EXPECT_EQ(document->findFirst("p")->textContent(), "中文");
}

// --- <base href> ------------------------------------------------------------

TEST(BaseHref, SubresourcesResolveAgainstBase) {
  SimWorld world;
  // A handler serving a page whose <base> points at a subdirectory.
  class BasePage : public net::HttpHandler {
   public:
    net::HttpResponse handle(const net::HttpRequest& request) override {
      if (request.url.path() == "/") {
        return net::HttpResponse::ok(
            "<html><head><base href=\"/static/v2/\"></head>"
            "<body><img src=\"logo.png\"><p>x</p></body></html>");
      }
      requestedPaths.push_back(request.url.path());
      return net::HttpResponse::ok("blob", "image/png");
    }
    std::vector<std::string> requestedPaths;
  };
  auto handler = std::make_shared<BasePage>();
  world.network.registerHost("base.example", handler);
  world.browser.visit("http://base.example/");
  ASSERT_EQ(handler->requestedPaths.size(), 1u);
  EXPECT_EQ(handler->requestedPaths[0], "/static/v2/logo.png");
}

TEST(BaseHref, AbsentBaseUsesDocumentUrl) {
  SimWorld world;
  const auto spec = world.addGenericSite("plain.example");
  const auto view = world.browser.visit(world.urlFor(spec, "/page2"));
  for (const net::Url& resource : view.subresources) {
    EXPECT_EQ(resource.host(), "plain.example");
  }
}

// --- query-cache performance (P2) ---------------------------------------------

TEST(QueryCachePerformance, CookieMakesResponsesFaster) {
  SimWorld world;
  server::SiteSpec spec;
  spec.label = "P2";
  spec.domain = "perf.example";
  spec.category = "reference";
  spec.seed = 10;
  spec.queryCache = true;
  // Low-jitter profile: the assertion compares two latency draws against the
  // deterministic recompute penalty, so typical-profile jitter (median
  // ~735 ms, heavy tail) could swamp the margin on an unlucky stream.
  spec.speed = server::SiteSpeed::Fast;
  world.addSite(spec);

  // First visit: no cookie → recompute penalty.
  const auto cold = world.browser.visit("http://perf.example/");
  // Second visit: the qdir cookie is presented → cached results.
  const auto warm = world.browser.visit("http://perf.example/");
  EXPECT_GT(cold.timing.containerLatencyMs,
            warm.timing.containerLatencyMs + 800.0);
}

TEST(QueryCachePerformance, BlockingTheCookieCostsTime) {
  // The flip side the paper's P2 illustrates: if CookiePicker wrongly
  // blocked this cookie, every page would pay the recompute penalty.
  SimWorld world;
  server::SiteSpec spec;
  spec.label = "P2";
  spec.domain = "perf.example";
  spec.category = "reference";
  spec.seed = 11;
  spec.queryCache = true;
  spec.speed = server::SiteSpeed::Fast;  // see CookieMakesResponsesFaster
  world.addSite(spec);
  world.browser.visit("http://perf.example/");  // seeds the cookie

  world.browser.setPersistentSendFilter(
      [](const cookies::CookieRecord&) { return true; });  // block all
  const auto blocked = world.browser.visit("http://perf.example/");
  world.browser.clearPersistentSendFilter();
  const auto allowed = world.browser.visit("http://perf.example/");
  EXPECT_GT(blocked.timing.containerLatencyMs,
            allowed.timing.containerLatencyMs + 800.0);
}

}  // namespace
}  // namespace cookiepicker
