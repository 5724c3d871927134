// Ablation: RSTM's level restriction l (§4.1.3, design decision 1).
// Two effects trade off against each other:
//   * too shallow → cookie effects below the cut become invisible and
//     useful cookies are missed;
//   * too deep → leaf-level page dynamics (structurally varying ads) leak
//     into the metric, and detection cost grows toward full STM.
// Sweeps l and reports accuracy on useful-cookie sites, false positives on
// sites with structurally-varying ads, and detection cost on large pages.
#include <cstdio>

#include "bench_support.h"
#include "core/node_detection.h"
#include "core/rstm.h"
#include "core/stm.h"
#include "html/parser.h"
#include "server/generator.h"
#include "util/clock.h"
#include "util/stats.h"

namespace {

using namespace cookiepicker;

// Roster for this ablation: useful-cookie sites plus calm tracker sites
// with *structurally varying* ads (the leaf noise l is meant to exclude).
std::vector<server::SiteSpec> ablationRoster() {
  std::vector<server::SiteSpec> roster;
  for (int i = 0; i < 6; ++i) {
    server::SiteSpec spec;
    spec.category = server::directoryCategories()[static_cast<std::size_t>(
        i % 15)];
    spec.seed = 500 + static_cast<std::uint64_t>(i) * 13;
    if (i < 3) {
      spec.label = "U" + std::to_string(i + 1);  // useful: preference
      spec.domain = "u" + std::to_string(i + 1) + ".lvl.example";
      spec.preferenceCookies = 1;
      spec.preferenceIntensity = 1 + i % 3;
    } else {
      spec.label = "N" + std::to_string(i - 2);  // noisy tracker site
      spec.domain = "n" + std::to_string(i - 2) + ".lvl.example";
      spec.containerTrackers = 2;
      spec.adStructuralVariation = true;  // leaf-level structural churn
      spec.adSlotsPerSection = 4;         // ad-dense pages
    }
    roster.push_back(spec);
  }
  return roster;
}

}  // namespace

int main() {
  std::printf("=== Level ablation (RSTM maxLevel l, paper uses l = 5) ===\n\n");

  const auto roster = ablationRoster();
  util::TextTable table({"l", "missed useful cookies", "false useful cookies",
                         "NTreeSim cost on 200-section page (ms)"});

  // Pre-build one large page pair for the cost column.
  const auto largeA =
      html::parseHtml(server::generateLargePageHtml(200, 1));
  const auto largeB =
      html::parseHtml(server::generateLargePageHtml(200, 2));
  const dom::Node& largeRootA = core::comparisonRoot(*largeA);
  const dom::Node& largeRootB = core::comparisonRoot(*largeB);

  for (const int level : {1, 2, 3, 4, 5, 7, 9, 12, 50}) {
    bench::CampaignOptions options;
    options.viewsPerSite = 14;
    options.picker.forcum.decision.maxLevel = level;
    // TreeOnly isolates the metric the level parameter belongs to: in the
    // full system CVCE's ad filter independently shields the text metric,
    // so the AND-decision would mask the tree metric's leaf-noise leakage.
    options.picker.forcum.decision.mode = core::DecisionMode::TreeOnly;
    const bench::CampaignResult result =
        bench::runCampaign(roster, options);

    int missed = 0;
    int falseUseful = 0;
    for (const bench::SiteResult& site : result.sites) {
      missed += std::max(0, site.realUseful - site.markedUseful);
      falseUseful += std::max(0, site.markedUseful - site.realUseful);
    }

    // Detection cost at this level on the big page (best of 3).
    double bestMs = 1e18;
    for (int rep = 0; rep < 3; ++rep) {
      const util::StopWatch watch;
      core::nTreeSim(largeRootA, largeRootB, level);
      bestMs = std::min(bestMs, watch.elapsedMs());
    }

    table.addRow({std::to_string(level), std::to_string(missed),
                  std::to_string(falseUseful),
                  util::TextTable::formatDouble(bestMs, 2)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Expected shape: l <= 2 sees almost no structure and misses useful\n"
      "cookies; very large l admits leaf-level ad churn (false useful on\n"
      "the N* sites) and detection cost climbs toward full-STM territory.\n"
      "l = 5 detects every useful cookie, resists the ad noise, and stays\n"
      "cheap — the paper's setting.\n");
  return 0;
}
