// Byte-identity pin for the origin's container pages.
//
// One fixed driver fetches container pages from every kind of site the
// repository builds and folds what a client receives (the body, the
// Set-Cookie list and the X-Cookie-Provenance header) into fnv1a64 hashes,
// one set per scenario. The goldens were computed by compiling this same
// driver against the DOM-building renderer (build tree → select →
// serialize) that the direct emitter replaced. Any drift in the bytes, in
// the order of RNG draws or in taint-label numbering moves a hash and names
// the scenario.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/http.h"
#include "provenance/taint.h"
#include "server/evasion.h"
#include "server/generator.h"
#include "server/site.h"
#include "util/clock.h"
#include "util/rng.h"

namespace cookiepicker::server {
namespace {

struct PinHashes {
  std::uint64_t body = 0xcbf29ce484222325ull;
  std::uint64_t setCookies = 0xcbf29ce484222325ull;
  std::uint64_t provenance = 0xcbf29ce484222325ull;
  int taintedPages = 0;  // responses whose provenance map has ranges
};

void fold(std::uint64_t& hash, std::string_view bytes) {
  hash = (hash ^ util::fnv1a64(bytes)) * 0x100000001b3ull;
}

void foldResponse(PinHashes& hashes, const net::HttpResponse& response) {
  fold(hashes.body, response.body);
  std::string cookies;
  for (const std::string& value : response.setCookieHeaders()) {
    cookies += value;
    cookies += '\n';
  }
  fold(hashes.setCookies, cookies);
  const std::optional<std::string> header =
      response.headers.get(provenance::kCookieProvenanceHeader);
  fold(hashes.provenance, header.value_or("-"));
  if (header.has_value()) {
    const auto map = provenance::ProvenanceMap::decodeHeader(*header);
    if (map.has_value() && !map->empty()) ++hashes.taintedPages;
  }
}

// A site under the pin plus the cookies a client may send it.
struct PinSite {
  std::shared_ptr<WebSite> site;
  std::vector<std::pair<std::string, std::string>> cookies;  // all of them
  std::vector<std::string> useful;  // stripped one at a time
};

std::vector<std::pair<std::string, std::string>> cookiesOf(
    const SiteSpec& spec) {
  std::vector<std::pair<std::string, std::string>> cookies;
  int index = 0;
  for (const std::string& name : spec.allPersistentCookieNames()) {
    cookies.emplace_back(name, "v" + std::to_string(index++));
  }
  if (spec.sessionCart) cookies.emplace_back("cart", "3");
  return cookies;
}

PinSite pinSite(const SiteSpec& spec, util::SimClock& clock) {
  return {buildSite(spec, clock), cookiesOf(spec), spec.usefulCookieNames()};
}

std::string cookieHeader(
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

// Returns the provenance-off body.
std::string fetch(PinHashes& hashes, WebSite& site, util::SimClock& clock,
                  const std::string& path, const std::string& cookies) {
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
    foldResponse(hashes, response);
    if (!provenance) body = response.body;
    clock.advanceSeconds(1.5);
  }
  return body;
}

// Each site's first 12 paths with all cookies, with none, and with each
// useful cookie stripped; every fetch with provenance off and on.
PinHashes drive(const std::vector<PinSite>& sites, util::SimClock& clock) {
  PinHashes hashes;
  for (const PinSite& pin : sites) {
    std::vector<std::string> paths = pin.site->pagePaths();
    if (paths.size() > 12) paths.resize(12);
    for (const std::string& path : paths) {
      fetch(hashes, *pin.site, clock, path, cookieHeader(pin.cookies, ""));
      fetch(hashes, *pin.site, clock, path, "");
      for (const std::string& name : pin.useful) {
        fetch(hashes, *pin.site, clock, path,
              cookieHeader(pin.cookies, name));
      }
    }
  }
  return hashes;
}

PinHashes driveRoster(const std::vector<SiteSpec>& roster) {
  util::SimClock clock;
  std::vector<PinSite> sites;
  for (const SiteSpec& spec : roster) sites.push_back(pinSite(spec, clock));
  return drive(sites, clock);
}

SiteSpec richSpec(const std::string& label, std::uint64_t seed) {
  SiteSpec spec = makeGenericSpec(label, label + ".pin.example", seed);
  spec.preferenceIntensity = 3;
  spec.queryCache = true;
  spec.sessionCart = true;
  spec.pixelTrackers = 1;
  return spec;
}

// The rich spec's cookie behaviors plus every noise behavior except
// `skipped` (0 layout shuffle, 1 ad rotation, 2 headlines, 3 timestamp).
PinSite siteWithoutNoise(int skipped, util::SimClock& clock) {
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

struct Golden {
  const char* scenario;
  std::function<PinHashes()> run;
  PinHashes expected;
};

std::vector<Golden> goldens() {
  return {
      {"table1", [] { return driveRoster(table1Roster()); },
       {0xbe924d9917417a50ull, 0x581d46b5f94b393aull, 0x76ae7c3fa0a9105dull}},
      {"table2", [] { return driveRoster(table2Roster()); },
       {0x0ac9399502659358ull, 0xa719db78f896b029ull, 0x2c46a6f77e93f6e8ull}},
      {"measurement", [] { return driveRoster(measurementRoster(60, 7)); },
       {0xd309cae96aaead97ull, 0x2ba4b4292a3989cdull, 0xa8d3ab436f24870bull}},
      {"evasion",
       [] {
         util::SimClock clock;
         SiteSpec spec = richSpec("evade", 41);
         spec.signUpWall = true;
         PinSite pin = pinSite(spec, clock);
         auto evasion = std::make_unique<EvasionBehavior>();
         const EvasionBehavior& detector = *evasion;
         pin.site->addBehavior(std::move(evasion));
         const PinHashes hashes = drive({pin}, clock);
         EXPECT_GT(detector.probesDetected(), 0u);
         return hashes;
       },
       {0x125a90c90a09a8f4ull, 0xfde313816e1724eaull, 0x61be48c13b6df9b3ull}},
      {"ad-structural",
       [] {
         SiteSpec spec = richSpec("adstruct", 42);
         spec.adStructuralVariation = true;
         spec.adSlotsPerSection = 3;
         return driveRoster({spec});
       },
       {0x8a333d755ab11517ull, 0x41d6f8382a8b7611ull, 0xa973d3fb4b85feedull}},
      {"layout-shuffle",
       [] {
         SiteSpec spec = richSpec("shuffle", 43);
         spec.layoutNoiseProbability = 1.0;
         return driveRoster({spec});
       },
       {0x75bd538eef430466ull, 0x5810a7f9c9ef41aaull, 0x7768021e6cccd953ull}},
      {"noise-omitted",
       [] {
         util::SimClock clock;
         std::vector<PinSite> sites;
         for (int skipped = 0; skipped < 4; ++skipped) {
           sites.push_back(siteWithoutNoise(skipped, clock));
         }
         return drive(sites, clock);
       },
       {0x4e575e56cc09ca10ull, 0x5993c673e92208bbull, 0x1fd5a129a4eeb1cdull}},
      {"large-pages",
       [] {
         PinHashes hashes;
         for (const int sections : {5, 50}) {
           for (const std::uint64_t seed : {1, 2, 7}) {
             fold(hashes.body, generateLargePageHtml(sections, seed));
           }
         }
         return hashes;
       },
       {0xd8c01408bddfd6a4ull, 0xcbf29ce484222325ull, 0xcbf29ce484222325ull}},
      {"hostile-input",
       [] {
         util::SimClock clock;
         SiteSpec spec = richSpec("hostile", 44);
         spec.label = "Tom & \"Jerry\" <b>";
         PinSite pin = pinSite(spec, clock);
         for (auto& [name, value] : pin.cookies) {
           if (name == "cart") value = "1<2>&\"3\"";
         }
         PinHashes hashes;
         for (const std::string path :
              {"/q<b>&c\"d\"", "/page1&amp;<script>", "/>\"<&"}) {
           fetch(hashes, *pin.site, clock, path,
                 cookieHeader(pin.cookies, ""));
           fetch(hashes, *pin.site, clock, path,
                 cookieHeader(pin.cookies, "prefstyle"));
         }
         // Text escaping: & < > only, quotes stay literal.
         const std::string body = fetch(hashes, *pin.site, clock, "/x<&>\"",
                                        cookieHeader(pin.cookies, "prefstyle"));
         EXPECT_NE(body.find("— /x&lt;&amp;&gt;\"</title>"), std::string::npos);
         EXPECT_NE(body.find("Cart items: 1&lt;2&gt;&amp;\"3\"</span>"),
                   std::string::npos);
         EXPECT_NE(body.find("<h1>Tom &amp; \"Jerry\" &lt;b&gt; "),
                   std::string::npos);
         return hashes;
       },
       {0xdc2515297e9cc61aull, 0x3020e1a2e9ec7bdbull, 0x06c3e6c790e2bea4ull}},
  };
}

TEST(RenderPin, ContainerBytesMatchTreeRenderer) {
  for (const Golden& golden : goldens()) {
    const PinHashes actual = golden.run();
    // Every fetching scenario must exercise the provenance path for real.
    if (golden.expected.provenance != PinHashes{}.provenance) {
      EXPECT_GT(actual.taintedPages, 0) << golden.scenario;
    }
    char line[160];
    std::snprintf(line, sizeof(line),
                  "{0x%016llxull, 0x%016llxull, 0x%016llxull}",
                  static_cast<unsigned long long>(actual.body),
                  static_cast<unsigned long long>(actual.setCookies),
                  static_cast<unsigned long long>(actual.provenance));
    EXPECT_EQ(actual.body, golden.expected.body)
        << golden.scenario << " body; actual " << line;
    EXPECT_EQ(actual.setCookies, golden.expected.setCookies)
        << golden.scenario << " Set-Cookie; actual " << line;
    EXPECT_EQ(actual.provenance, golden.expected.provenance)
        << golden.scenario << " X-Cookie-Provenance; actual " << line;
  }
}

}  // namespace
}  // namespace cookiepicker::server
