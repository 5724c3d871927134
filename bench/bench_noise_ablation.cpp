// Ablation: page-dynamics noise vs. the detector's noise defenses
// (design decisions 1, 4, 5): the level cut, CVCE's noise rules, and the
// s term of Formula 3. For each noise configuration we fetch the same page
// twice (as the regular/hidden pair would arrive) many times and report the
// similarity distributions plus how often each metric would cross the 0.85
// threshold — i.e. the false-positive pressure each defense absorbs.
#include <cstdio>

#include <memory>

#include "core/cvce.h"
#include "core/decision.h"
#include "core/node_detection.h"
#include "core/rstm.h"
#include "html/parser.h"
#include "server/behaviors.h"
#include "server/generator.h"
#include "server/site.h"
#include "util/stats.h"

namespace {

using namespace cookiepicker;

struct NoiseConfig {
  const char* name;
  bool ads = false;
  bool structuralAds = false;
  bool headlines = false;
  bool timestamp = false;
  double layoutShuffle = 0.0;
};

std::shared_ptr<server::WebSite> makeSite(const NoiseConfig& config,
                                          util::SimClock& clock) {
  server::SiteConfig siteConfig;
  siteConfig.domain = "noise.example";
  siteConfig.title = "Noise Lab";
  siteConfig.category = "science";
  siteConfig.seed = 77;
  auto site = std::make_shared<server::WebSite>(siteConfig, clock);
  if (config.layoutShuffle > 0.0) {
    site->addBehavior(
        std::make_unique<server::LayoutShuffleNoise>(config.layoutShuffle));
  }
  if (config.ads || config.structuralAds) {
    site->addBehavior(
        std::make_unique<server::AdRotationNoise>(config.structuralAds));
  }
  if (config.headlines) {
    site->addBehavior(std::make_unique<server::HeadlineRotationNoise>());
  }
  if (config.timestamp) {
    site->addBehavior(std::make_unique<server::TimestampNoise>());
  }
  return site;
}

net::HttpRequest pageRequest() {
  net::HttpRequest request;
  request.url = *net::Url::parse("http://noise.example/page1");
  return request;
}

}  // namespace

int main() {
  std::printf("=== Noise ablation: fetch-pair similarity under page dynamics ===\n");
  std::printf("(identical cookies on both fetches — any metric firing here "
              "is a false positive)\n\n");

  const NoiseConfig configs[] = {
      {"calm (no dynamics)"},
      {"rotating ads", true, false, false, false, 0.0},
      {"structural ads", true, true, false, false, 0.0},
      {"rotating headlines", false, false, true, false, 0.0},
      {"timestamps", false, false, false, true, 0.0},
      {"layout shuffle p=0.45", false, false, false, false, 0.45},
      {"everything combined", true, true, true, true, 0.45},
  };

  constexpr int kPairs = 40;
  util::TextTable table({"noise", "tree sim (mean/min)",
                         "text sim (mean/min)", "text sim no-s (mean/min)",
                         "tree<=.85", "text<=.85", "both (FP)"});
  for (const NoiseConfig& config : configs) {
    util::SimClock clock;
    auto site = makeSite(config, clock);
    util::RunningStats treeSims;
    util::RunningStats textSims;
    util::RunningStats textSimsNoCredit;
    int treeFires = 0;
    int textFires = 0;
    int bothFire = 0;
    for (int pair = 0; pair < kPairs; ++pair) {
      const auto first =
          html::parseHtml(site->handle(pageRequest()).body);
      clock.advanceSeconds(3.0);
      const auto second =
          html::parseHtml(site->handle(pageRequest()).body);
      const dom::Node& rootA = core::comparisonRoot(*first);
      const dom::Node& rootB = core::comparisonRoot(*second);
      const double tree = core::nTreeSim(rootA, rootB, 5);
      const auto setA = core::extractContextContent(rootA);
      const auto setB = core::extractContextContent(rootB);
      const double text = core::nTextSim(setA, setB);
      const double textNoCredit =
          core::nTextSim(setA, setB, /*sameContextCredit=*/false);
      treeSims.add(tree);
      textSims.add(text);
      textSimsNoCredit.add(textNoCredit);
      if (tree <= 0.85) ++treeFires;
      if (text <= 0.85) ++textFires;
      if (tree <= 0.85 && text <= 0.85) ++bothFire;
    }
    auto meanMin = [](const util::RunningStats& stats) {
      return util::TextTable::formatDouble(stats.mean(), 3) + " / " +
             util::TextTable::formatDouble(stats.min(), 3);
    };
    table.addRow({config.name, meanMin(treeSims), meanMin(textSims),
                  meanMin(textSimsNoCredit),
                  std::to_string(treeFires) + "/" + std::to_string(kPairs),
                  std::to_string(textFires) + "/" + std::to_string(kPairs),
                  std::to_string(bothFire) + "/" + std::to_string(kPairs)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Expected shape: ads/headlines/timestamps are fully absorbed (level\n"
      "cut, ad filter, s term, date filter) — similarities pinned at 1.0.\n"
      "Dropping the s term ('no-s' column) leaves headline rotation\n"
      "penalized. Only deliberate upper-level layout shuffling — the\n"
      "S1/S10/S27 pattern — drives both metrics under 0.85 and produces\n"
      "the paper's three false-useful sites.\n");
  return 0;
}
