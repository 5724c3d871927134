#include "server/generator.h"

#include "server/p3p.h"
#include "server/fragments.h"
#include "util/rng.h"
#include "util/strings.h"

namespace cookiepicker::server {

const std::vector<std::string>& directoryCategories() {
  static const std::vector<std::string> kCategories = {
      "arts",      "business",  "computers", "games",     "health",
      "home",      "kids",      "news",      "recreation", "reference",
      "regional",  "science",   "shopping",  "society",   "sports"};
  return kCategories;
}

std::vector<std::string> SiteSpec::usefulCookieNames() const {
  std::vector<std::string> names;
  for (int i = 0; i < preferenceCookies; ++i) {
    names.push_back(i == 0 ? "prefstyle" : "preflang");
  }
  if (signUpWall) names.push_back("acctid");
  if (queryCache) names.push_back("qdir");
  return names;
}

std::vector<std::string> SiteSpec::allPersistentCookieNames() const {
  std::vector<std::string> names = usefulCookieNames();
  for (int i = 0; i < containerTrackers; ++i) {
    names.push_back("trk" + std::to_string(i));
  }
  for (int i = 0; i < pixelTrackers; ++i) {
    names.push_back("px" + std::to_string(i));
  }
  return names;
}

net::LatencyProfile SiteSpec::latencyProfile() const {
  switch (speed) {
    case SiteSpeed::Fast:
      return net::LatencyProfile::fast();
    case SiteSpeed::Slow:
      return net::LatencyProfile::slow();
    case SiteSpeed::Typical:
      break;
  }
  return net::LatencyProfile::typical();
}

std::int64_t trackerLifetimeSeconds(std::uint64_t seed, int index) {
  // Lifetimes drawn from the empirical shape of the authors' companion
  // measurement study (WM-CS-2007-03, cited in Section 2): above 60% of
  // first-party persistent cookies expire after one year or longer.
  static constexpr std::int64_t kLifetimeDays[] = {
      1, 7, 30, 90, 200, 365, 365, 400, 540, 730, 730, 800, 3650, 365};
  // Hash seed and index together so each cookie draws independently —
  // consecutive table entries would otherwise cluster (a site whose hash
  // lands on the short-lifetime run would get *only* short cookies).
  const std::size_t bucket =
      util::fnv1a64("lifetime" + std::to_string(seed) + "#" +
                    std::to_string(index)) %
      std::size(kLifetimeDays);
  return kLifetimeDays[bucket] * 86400;
}

std::shared_ptr<WebSite> buildSite(const SiteSpec& spec,
                                   util::SimClock& clock) {
  SiteConfig config;
  config.domain = spec.domain;
  config.title = spec.label + " " + spec.category + " portal";
  config.category = spec.category;
  config.pageCount = spec.pageCount;
  config.seed = spec.seed;
  config.pixelTrackers = spec.pixelTrackers;
  config.adSlotsPerSection = spec.adSlotsPerSection;
  config.useRedirectEntry = spec.redirectEntry;

  auto site = std::make_shared<WebSite>(config, clock);

  // Cookie semantics first (they decide the page's gross shape)...
  constexpr std::int64_t kOneYearSeconds = 365LL * 86400;
  for (int i = 0; i < spec.preferenceCookies; ++i) {
    site->addBehavior(std::make_unique<PreferenceCookieBehavior>(
        i == 0 ? "prefstyle" : "preflang",
        spec.preferenceIntensity, kOneYearSeconds));
  }
  if (spec.signUpWall) {
    site->addBehavior(
        std::make_unique<SignUpWallBehavior>("acctid", kOneYearSeconds));
  }
  if (spec.queryCache) {
    site->addBehavior(
        std::make_unique<QueryCacheBehavior>("qdir", kOneYearSeconds));
  }
  for (int i = 0; i < spec.containerTrackers; ++i) {
    site->addBehavior(std::make_unique<TrackingCookieBehavior>(
        "trk" + std::to_string(i), trackerLifetimeSeconds(spec.seed, i),
        "/"));
  }
  for (int i = 0; i < spec.pixelTrackers; ++i) {
    const std::string index = std::to_string(i);
    site->addBehavior(std::make_unique<TrackingCookieBehavior>(
        "px" + index, trackerLifetimeSeconds(spec.seed * 31, i),
        "/metrics/" + index, "/metrics/" + index + "/"));
  }
  if (spec.sessionCart) {
    site->addBehavior(std::make_unique<SessionCartBehavior>());
  }
  if (spec.p3pPolicy) {
    // A truthful policy covering every cookie the site sets.
    auto policy = std::make_unique<P3pPolicyBehavior>();
    for (const std::string& name : spec.usefulCookieNames()) {
      policy->declare(name, P3pPurpose::Personalization);
    }
    for (int i = 0; i < spec.containerTrackers; ++i) {
      policy->declare("trk" + std::to_string(i), P3pPurpose::Tracking);
    }
    for (int i = 0; i < spec.pixelTrackers; ++i) {
      policy->declare("px" + std::to_string(i), P3pPurpose::Tracking);
    }
    if (spec.sessionCart) {
      policy->declare("cart", P3pPurpose::SessionState);
    }
    site->addBehavior(std::move(policy));
  }

  // ...then page dynamics, so noise applies to the final layout.
  if (spec.layoutNoiseProbability > 0.0) {
    site->addBehavior(
        std::make_unique<LayoutShuffleNoise>(spec.layoutNoiseProbability));
  }
  site->addBehavior(
      std::make_unique<AdRotationNoise>(spec.adStructuralVariation));
  site->addBehavior(std::make_unique<HeadlineRotationNoise>());
  site->addBehavior(std::make_unique<TimestampNoise>());
  return site;
}

std::map<std::string, SiteSpec> registerRoster(
    net::Network& network, util::SimClock& clock,
    const std::vector<SiteSpec>& roster) {
  std::map<std::string, SiteSpec> specs;
  for (const SiteSpec& spec : roster) {
    network.registerHost(spec.domain, buildSite(spec, clock),
                         spec.latencyProfile());
    specs.emplace(spec.label, spec);
  }
  return specs;
}

namespace {

SiteSpec baseSpec(int index, const std::string& labelPrefix) {
  SiteSpec spec;
  const auto& categories = directoryCategories();
  spec.category = categories[static_cast<std::size_t>(index) %
                             categories.size()];
  spec.label = labelPrefix + std::to_string(index + 1);
  spec.domain = util::toLowerAscii(spec.label) + "." + spec.category +
                ".example";
  spec.seed = 1000 + static_cast<std::uint64_t>(index) * 37;
  return spec;
}

}  // namespace

std::vector<SiteSpec> table1Roster() {
  // Per-site persistent-cookie counts from Table 1, column two.
  const int kPersistent[30] = {2, 4, 5, 4, 4, 2, 1, 3, 1, 1,
                               2, 4, 1, 9, 2, 25, 4, 1, 3, 6,
                               3, 1, 4, 1, 3, 1, 1, 1, 2, 2};
  std::vector<SiteSpec> roster;
  roster.reserve(30);
  for (int i = 0; i < 30; ++i) {
    SiteSpec spec = baseSpec(i, "S");
    const int siteNumber = i + 1;
    const int persistent = kPersistent[i];

    if (siteNumber == 6) {
      // S6: both persistent cookies genuinely useful (preferences).
      spec.preferenceCookies = 2;
      spec.preferenceIntensity = 2;
    } else if (siteNumber == 16) {
      // S16: one useful preference cookie among 24 path-scoped pixel
      // trackers — only the preference cookie rides container requests, so
      // only it gets marked.
      spec.preferenceCookies = 1;
      spec.preferenceIntensity = 2;
      spec.pixelTrackers = persistent - 1;
    } else if (siteNumber == 14) {
      // S14: a mixed tracker population for variety.
      spec.containerTrackers = 4;
      spec.pixelTrackers = persistent - 4;
    } else {
      spec.containerTrackers = persistent;
    }

    // S1, S10, S27: the heavy upper-level page dynamics that produced the
    // paper's three false-useful sites.
    if (siteNumber == 1 || siteNumber == 10 || siteNumber == 27) {
      spec.layoutNoiseProbability = 0.45;
    }
    // S4, S17, S28: very slow responders (the ~10 s durations in Table 1).
    if (siteNumber == 4 || siteNumber == 17 || siteNumber == 28) {
      spec.speed = SiteSpeed::Slow;
    }
    // A few fast CDN-like sites for spread.
    if (siteNumber == 13 || siteNumber == 25 || siteNumber == 26) {
      spec.speed = SiteSpeed::Fast;
    }
    // Some sites greet with a redirect (exercises step-one filtering).
    if (siteNumber % 7 == 0) spec.redirectEntry = true;
    // Shopping/business sites keep a session cart.
    if (spec.category == "shopping" || spec.category == "business") {
      spec.sessionCart = true;
    }
    roster.push_back(std::move(spec));
  }
  return roster;
}

std::vector<SiteSpec> table2Roster() {
  std::vector<SiteSpec> roster;
  for (int i = 0; i < 6; ++i) {
    SiteSpec spec = baseSpec(i + 40, "X");  // unique domains
    const std::string index = std::to_string(i + 1);
    spec.label.clear();
    spec.domain.clear();
    util::appendParts(spec.label, {"P", index});
    util::appendParts(spec.domain,
                      {"p", index, ".", spec.category, ".example"});
    switch (i + 1) {
      case 1:  // Preference, modest personalization.
        spec.preferenceCookies = 1;
        spec.preferenceIntensity = 1;
        break;
      case 2:  // Performance: per-user query-result cache.
        spec.queryCache = true;
        break;
      case 3:  // Sign-up wall.
        spec.signUpWall = true;
        break;
      case 4:  // Preference, page-dominating personalization (lowest sims).
        spec.preferenceCookies = 1;
        spec.preferenceIntensity = 3;
        break;
      case 5:  // Sign-up wall + 8 co-sent trackers → 9 marked, 1 real.
        spec.signUpWall = true;
        spec.containerTrackers = 8;
        break;
      case 6:  // Two preferences + 3 co-sent trackers → 5 marked, 2 real.
        spec.preferenceCookies = 2;
        spec.preferenceIntensity = 2;
        spec.containerTrackers = 3;
        break;
      default:
        break;
    }
    roster.push_back(std::move(spec));
  }
  return roster;
}

std::vector<SiteSpec> measurementRoster(int siteCount, std::uint64_t seed) {
  std::vector<SiteSpec> roster;
  roster.reserve(static_cast<std::size_t>(siteCount));
  util::Pcg32 rng(seed, 0x63656e73UL);
  const auto& categories = directoryCategories();
  for (int i = 0; i < siteCount; ++i) {
    SiteSpec spec;
    const std::string index = std::to_string(i + 1);
    util::appendParts(spec.label, {"M", index});
    spec.category = categories[rng.uniform(
        0, static_cast<std::uint32_t>(categories.size() - 1))];
    util::appendParts(spec.domain,
                      {"m", index, ".", spec.category, ".example"});
    spec.seed = seed * 131 + static_cast<std::uint64_t>(i);
    spec.pageCount = 8;

    const double roll = rng.uniform01();
    if (roll < 0.12) {
      // Cookie-free site.
    } else if (roll < 0.30) {
      // Session cookies only.
      spec.sessionCart = true;
    } else {
      // Persistent-cookie site: trackers, sometimes genuinely useful ones.
      spec.containerTrackers = static_cast<int>(rng.uniform(1, 5));
      if (rng.chance(0.35)) {
        spec.pixelTrackers = static_cast<int>(rng.uniform(1, 3));
      }
      if (rng.chance(0.18)) {
        spec.preferenceCookies = 1;
        spec.preferenceIntensity = static_cast<int>(rng.uniform(1, 3));
      } else if (rng.chance(0.05)) {
        spec.signUpWall = true;
      }
      if (rng.chance(0.4)) spec.sessionCart = true;
    }
    // P3P adoption was tiny (the paper's objection to relying on it).
    spec.p3pPolicy = rng.chance(0.08);
    roster.push_back(std::move(spec));
  }
  return roster;
}

SiteSpec makeGenericSpec(const std::string& label, const std::string& domain,
                         std::uint64_t seed) {
  SiteSpec spec;
  spec.label = label;
  spec.domain = domain;
  spec.category = directoryCategories()[seed % directoryCategories().size()];
  spec.seed = seed;
  spec.containerTrackers = 2;
  spec.preferenceCookies = 1;
  return spec;
}

std::string generateLargePageHtml(int sections, std::uint64_t seed) {
  util::Pcg32 rng(seed, 0x6c617267UL);
  Block page;
  page.html = "<html><head><title>large page</title></head><body><main>";
  // Real pages are hierarchical, not a flat list of hundreds of siblings:
  // group sections into zones of 8 and zones into chapter divs of 8, so the
  // tree grows in depth as well as width (this is also what makes RSTM's
  // level restriction effective on big pages).
  constexpr int kFanOut = 8;
  for (int s = 0; s < sections; ++s) {
    if (s % (kFanOut * kFanOut) == 0) {
      if (s > 0) page.html += "</div></div>";
      page.html += "<div class=\"chapter\"><div class=\"zone\">";
    } else if (s % kFanOut == 0) {
      page.html += "</div><div class=\"zone\">";
    }
    appendContentSection(page, rng, /*paragraphs=*/3, /*adSlots=*/1,
                         /*rotatingHeadline=*/true);
  }
  if (sections > 0) page.html += "</div></div>";
  page.html += "</main></body></html>";
  std::string html;
  emitBlock(html, page, nullptr);
  return html;
}

}  // namespace cookiepicker::server
