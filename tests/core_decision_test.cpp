#include <gtest/gtest.h>

#include "core/decision.h"
#include "core/node_detection.h"
#include "html/parser.h"

namespace cookiepicker::core {
namespace {

std::unique_ptr<dom::Node> page(const std::string& bodyHtml) {
  return html::parseHtml("<html><head><title>t</title></head><body>" +
                         bodyHtml + "</body></html>");
}

const std::string kRichPage =
    "<div id=page><nav><ul><li><a>Home</a></li><li><a>News</a></li></ul>"
    "</nav><main><section><h2>Alpha</h2><p>first paragraph text</p></section>"
    "<section><h2>Beta</h2><p>second paragraph text</p><ul><li>x</li>"
    "<li>y</li></ul></section></main><footer><p>contact us</p></footer>"
    "</div>";

const std::string kGuttedPage =
    "<div id=page><main><div class=signup><h2>Create account</h2>"
    "<form><input><input></form></div></main></div>";

TEST(Decision, IdenticalPagesNotAttributedToCookies) {
  auto regular = page(kRichPage);
  auto hidden = page(kRichPage);
  const DecisionResult result = decideCookieUsefulness(*regular, *hidden);
  EXPECT_DOUBLE_EQ(result.treeSim, 1.0);
  EXPECT_DOUBLE_EQ(result.textSim, 1.0);
  EXPECT_FALSE(result.causedByCookies);
}

TEST(Decision, GrossDifferenceAttributedToCookies) {
  auto regular = page(kRichPage);
  auto hidden = page(kGuttedPage);
  const DecisionResult result = decideCookieUsefulness(*regular, *hidden);
  EXPECT_LE(result.treeSim, 0.85);
  EXPECT_LE(result.textSim, 0.85);
  EXPECT_TRUE(result.causedByCookies);
}

TEST(Decision, BothMetricsMustAgreeInPaperMode) {
  // Structure differs sharply (empty divs reshuffled), but every text
  // string is identical → tree metric fires, text metric does not.
  auto regular = page(
      "<main><div><div><div></div></div></div><div><div></div></div>"
      "<p>only text</p></main>");
  auto hidden = page("<main><p>only text</p></main>");
  DecisionConfig config;
  const DecisionResult result =
      decideCookieUsefulness(*regular, *hidden, config);
  EXPECT_LE(result.treeSim, 0.85);
  EXPECT_GT(result.textSim, 0.85);
  EXPECT_FALSE(result.causedByCookies);

  config.mode = DecisionMode::TreeOnly;
  EXPECT_TRUE(decideCookieUsefulness(*regular, *hidden, config)
                  .causedByCookies);
  config.mode = DecisionMode::Either;
  EXPECT_TRUE(decideCookieUsefulness(*regular, *hidden, config)
                  .causedByCookies);
  config.mode = DecisionMode::TextOnly;
  EXPECT_FALSE(decideCookieUsefulness(*regular, *hidden, config)
                   .causedByCookies);
}

TEST(Decision, ThresholdBoundaryIsInclusive) {
  // Figure 5 uses <=: similarity exactly at the threshold counts as a
  // cookie-caused difference.
  auto regular = page(kRichPage);
  auto hidden = page(kGuttedPage);
  DecisionConfig config;
  const DecisionResult probe = decideCookieUsefulness(*regular, *hidden);
  config.treeThreshold = probe.treeSim;
  config.textThreshold = probe.textSim;
  EXPECT_TRUE(
      decideCookieUsefulness(*regular, *hidden, config).causedByCookies);
}

TEST(Decision, LooseThresholdsFlagEverything) {
  auto regular = page(kRichPage);
  auto hidden = page(kRichPage);
  DecisionConfig config;
  config.treeThreshold = 1.0;
  config.textThreshold = 1.0;
  // Even identical pages sit at 1.0 <= 1.0.
  EXPECT_TRUE(
      decideCookieUsefulness(*regular, *hidden, config).causedByCookies);
}

TEST(Decision, TightThresholdsFlagNothing) {
  auto regular = page(kRichPage);
  auto hidden = page(kGuttedPage);
  DecisionConfig config;
  config.treeThreshold = 0.0;
  config.textThreshold = 0.0;
  const DecisionResult result =
      decideCookieUsefulness(*regular, *hidden, config);
  EXPECT_FALSE(result.causedByCookies);
}

TEST(Decision, ReportsDetectionTime) {
  auto regular = page(kRichPage);
  auto hidden = page(kRichPage);
  const DecisionResult result = decideCookieUsefulness(*regular, *hidden);
  EXPECT_GE(result.detectionTimeMs, 0.0);
  EXPECT_LT(result.detectionTimeMs, 1000.0);  // sanity: well under a second
}

TEST(Decision, LevelParameterControlsSensitivity) {
  // Deep-only difference: visible with a deep level cut, invisible at l=3.
  auto regular = page(
      "<main><section><div><div><div><div><ul><li>a</li><li>b</li></ul>"
      "</div></div></div></div></section></main>");
  auto hidden = page(
      "<main><section><div><div><div><div><table><tr><td>x</td></tr>"
      "</table></div></div></div></div></section></main>");
  DecisionConfig shallow;
  shallow.maxLevel = 3;
  EXPECT_DOUBLE_EQ(
      decideCookieUsefulness(*regular, *hidden, shallow).treeSim, 1.0);
  DecisionConfig deep;
  deep.maxLevel = 10;
  EXPECT_LT(decideCookieUsefulness(*regular, *hidden, deep).treeSim, 1.0);
}

}  // namespace
}  // namespace cookiepicker::core
