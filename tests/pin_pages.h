// The fixed set of container pages behind the byte-identity pins.
//
// The scenarios below fetch container pages from every kind of site the
// repository builds: table1, table2, measurementRoster(60, 7), an
// EvasionBehavior site, adStructuralVariation, LayoutShuffleNoise(1.0), four
// noise-omitted sites, large pages 5|50 × 3 seeds, and hostile
// path/cart/title inputs. Each site's first 12 paths are fetched with all
// cookies, with none, and with each useful cookie stripped, every fetch with
// provenance off and on. Each pin folds what it receives into its own
// hashes: render_pin_test the response bytes, snapshot_pin_test the
// snapshot the browser would build from them.
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/http.h"
#include "provenance/taint.h"
#include "server/evasion.h"
#include "server/generator.h"
#include "server/site.h"
#include "util/clock.h"

namespace cookiepicker::pin {

// Receives every container page the scenarios produce, in a fixed order.
class PageVisitor {
 public:
  virtual ~PageVisitor() = default;
  // A fetched container response.
  virtual void response(const net::HttpResponse& response) = 0;
  // A generated page that never went through a site (large pages).
  virtual void page(std::string_view html) = 0;
};

// A site under the pin plus the cookies a client may send it.
struct PinSite {
  std::shared_ptr<server::WebSite> site;
  std::vector<std::pair<std::string, std::string>> cookies;  // all of them
  std::vector<std::string> useful;  // stripped one at a time
};

inline std::vector<std::pair<std::string, std::string>> cookiesOf(
    const server::SiteSpec& spec) {
  std::vector<std::pair<std::string, std::string>> cookies;
  int index = 0;
  for (const std::string& name : spec.allPersistentCookieNames()) {
    cookies.emplace_back(name, "v" + std::to_string(index++));
  }
  if (spec.sessionCart) cookies.emplace_back("cart", "3");
  return cookies;
}

inline PinSite pinSite(const server::SiteSpec& spec, util::SimClock& clock) {
  return {server::buildSite(spec, clock), cookiesOf(spec),
          spec.usefulCookieNames()};
}

inline std::string cookieHeader(
    const std::vector<std::pair<std::string, std::string>>& cookies,
    const std::string& without) {
  std::string header;
  for (const auto& [name, value] : cookies) {
    if (name == without) continue;
    if (!header.empty()) header += "; ";
    header += name + "=" + value;
  }
  return header;
}

// Fetches `path` with provenance off, then on; returns the provenance-off
// body.
inline std::string fetch(PageVisitor& visitor, server::WebSite& site,
                         util::SimClock& clock, const std::string& path,
                         const std::string& cookies) {
  std::string body;
  for (const bool provenance : {false, true}) {
    net::HttpRequest request;
    request.url =
        *net::Url::parse("http://" + site.config().domain + path);
    if (!cookies.empty()) request.headers.set("Cookie", cookies);
    if (provenance) {
      request.headers.set(provenance::kWantProvenanceHeader, "1");
    }
    const net::HttpResponse response = site.handle(request);
    visitor.response(response);
    if (!provenance) body = response.body;
    clock.advanceSeconds(1.5);
  }
  return body;
}

// Each site's first 12 paths with all cookies, with none, and with each
// useful cookie stripped.
inline void drive(PageVisitor& visitor, const std::vector<PinSite>& sites,
                  util::SimClock& clock) {
  for (const PinSite& pin : sites) {
    std::vector<std::string> paths = pin.site->pagePaths();
    if (paths.size() > 12) paths.resize(12);
    for (const std::string& path : paths) {
      fetch(visitor, *pin.site, clock, path, cookieHeader(pin.cookies, ""));
      fetch(visitor, *pin.site, clock, path, "");
      for (const std::string& name : pin.useful) {
        fetch(visitor, *pin.site, clock, path,
              cookieHeader(pin.cookies, name));
      }
    }
  }
}

inline void driveRoster(PageVisitor& visitor,
                        const std::vector<server::SiteSpec>& roster) {
  util::SimClock clock;
  std::vector<PinSite> sites;
  for (const server::SiteSpec& spec : roster) {
    sites.push_back(pinSite(spec, clock));
  }
  drive(visitor, sites, clock);
}

inline server::SiteSpec richSpec(const std::string& label,
                                 std::uint64_t seed) {
  server::SiteSpec spec =
      server::makeGenericSpec(label, label + ".pin.example", seed);
  spec.preferenceIntensity = 3;
  spec.queryCache = true;
  spec.sessionCart = true;
  spec.pixelTrackers = 1;
  return spec;
}

// The rich spec's cookie behaviors plus every noise behavior except
// `skipped` (0 layout shuffle, 1 ad rotation, 2 headlines, 3 timestamp).
inline PinSite siteWithoutNoise(int skipped, util::SimClock& clock) {
  using namespace server;
  const SiteSpec spec =
      richSpec("skip" + std::to_string(skipped), 300 + skipped);
  SiteConfig config;
  config.domain = spec.domain;
  config.title = spec.label + " pinned portal";
  config.seed = spec.seed;
  config.pixelTrackers = spec.pixelTrackers;
  config.adSlotsPerSection = 2;
  auto site = std::make_shared<WebSite>(config, clock);
  site->addBehavior(std::make_unique<PreferenceCookieBehavior>(
      "prefstyle", spec.preferenceIntensity));
  site->addBehavior(std::make_unique<QueryCacheBehavior>("qdir"));
  site->addBehavior(std::make_unique<TrackingCookieBehavior>("trk0"));
  site->addBehavior(std::make_unique<TrackingCookieBehavior>("trk1"));
  site->addBehavior(std::make_unique<TrackingCookieBehavior>(
      "px0", 86400, "/metrics/0", "/metrics/0/"));
  site->addBehavior(std::make_unique<SessionCartBehavior>());
  if (skipped != 0) {
    site->addBehavior(std::make_unique<LayoutShuffleNoise>(0.5));
  }
  if (skipped != 1) {
    site->addBehavior(std::make_unique<AdRotationNoise>(true));
  }
  if (skipped != 2) {
    site->addBehavior(std::make_unique<HeadlineRotationNoise>());
  }
  if (skipped != 3) site->addBehavior(std::make_unique<TimestampNoise>());
  return {site, cookiesOf(spec), spec.usefulCookieNames()};
}

struct Scenario {
  const char* name;
  std::function<void(PageVisitor&)> run;
};

// The scenarios, in pin order.
inline std::vector<Scenario> scenarios() {
  using namespace server;
  return {
      {"table1", [](PageVisitor& v) { driveRoster(v, table1Roster()); }},
      {"table2", [](PageVisitor& v) { driveRoster(v, table2Roster()); }},
      {"measurement",
       [](PageVisitor& v) { driveRoster(v, measurementRoster(60, 7)); }},
      {"evasion",
       [](PageVisitor& v) {
         util::SimClock clock;
         SiteSpec spec = richSpec("evade", 41);
         spec.signUpWall = true;
         PinSite pin = pinSite(spec, clock);
         auto evasion = std::make_unique<EvasionBehavior>();
         const EvasionBehavior& detector = *evasion;
         pin.site->addBehavior(std::move(evasion));
         drive(v, {pin}, clock);
         EXPECT_GT(detector.probesDetected(), 0u);
       }},
      {"ad-structural",
       [](PageVisitor& v) {
         SiteSpec spec = richSpec("adstruct", 42);
         spec.adStructuralVariation = true;
         spec.adSlotsPerSection = 3;
         driveRoster(v, {spec});
       }},
      {"layout-shuffle",
       [](PageVisitor& v) {
         SiteSpec spec = richSpec("shuffle", 43);
         spec.layoutNoiseProbability = 1.0;
         driveRoster(v, {spec});
       }},
      {"noise-omitted",
       [](PageVisitor& v) {
         util::SimClock clock;
         std::vector<PinSite> sites;
         for (int skipped = 0; skipped < 4; ++skipped) {
           sites.push_back(siteWithoutNoise(skipped, clock));
         }
         drive(v, sites, clock);
       }},
      {"large-pages",
       [](PageVisitor& v) {
         for (const int sections : {5, 50}) {
           for (const std::uint64_t seed : {1, 2, 7}) {
             v.page(generateLargePageHtml(sections, seed));
           }
         }
       }},
      {"hostile-input",
       [](PageVisitor& v) {
         util::SimClock clock;
         SiteSpec spec = richSpec("hostile", 44);
         spec.label = "Tom & \"Jerry\" <b>";
         PinSite pin = pinSite(spec, clock);
         for (auto& [name, value] : pin.cookies) {
           if (name == "cart") value = "1<2>&\"3\"";
         }
         for (const std::string path :
              {"/q<b>&c\"d\"", "/page1&amp;<script>", "/>\"<&"}) {
           fetch(v, *pin.site, clock, path, cookieHeader(pin.cookies, ""));
           fetch(v, *pin.site, clock, path,
                 cookieHeader(pin.cookies, "prefstyle"));
         }
         // Text escaping: & < > only, quotes stay literal.
         const std::string body = fetch(v, *pin.site, clock, "/x<&>\"",
                                        cookieHeader(pin.cookies, "prefstyle"));
         EXPECT_NE(body.find("— /x&lt;&amp;&gt;\"</title>"), std::string::npos);
         EXPECT_NE(body.find("Cart items: 1&lt;2&gt;&amp;\"3\"</span>"),
                   std::string::npos);
         EXPECT_NE(body.find("<h1>Tom &amp; \"Jerry\" &lt;b&gt; "),
                   std::string::npos);
       }},
  };
}

}  // namespace cookiepicker::pin
