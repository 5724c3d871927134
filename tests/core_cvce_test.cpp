#include <gtest/gtest.h>

#include "core/cvce.h"
#include "core/node_detection.h"
#include "core/rstm.h"
#include "html/parser.h"

namespace cookiepicker::core {
namespace {

std::set<std::string> extractFromHtml(const std::string& html,
                                      const CvceOptions& options = {}) {
  auto document = html::parseHtml(html);
  return extractContextContent(comparisonRoot(*document), options);
}

// --- extraction ---------------------------------------------------------------

TEST(Cvce, ExtractsContextContentStrings) {
  const auto set =
      extractFromHtml("<body><div><p>hello world</p></div></body>");
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(*set.begin(),
            std::string("body:div:p") + kContextSeparator + "hello world");
}

TEST(Cvce, ContextIsFullPathFromRoot) {
  const auto set = extractFromHtml(
      "<body><main><section><ul><li>item</li></ul></section></main></body>");
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(contextOf(*set.begin()), "body:main:section:ul:li");
}

TEST(Cvce, WhitespaceCollapsed) {
  const auto set =
      extractFromHtml("<body><p>  hello\n\t world  </p></body>");
  ASSERT_EQ(set.size(), 1u);
  EXPECT_NE(set.begin()->find("hello world"), std::string::npos);
}

TEST(Cvce, ScriptAndStyleTextIgnored) {
  const auto set = extractFromHtml(
      "<body><script>var x=1;</script><style>p{}</style><p>keep</p></body>");
  ASSERT_EQ(set.size(), 1u);
  EXPECT_NE(set.begin()->find("keep"), std::string::npos);
}

TEST(Cvce, OptionTextIgnored) {
  const auto set = extractFromHtml(
      "<body><select><option>Albania</option><option>Belgium</option>"
      "</select><p>visible</p></body>");
  EXPECT_EQ(set.size(), 1u);
}

TEST(Cvce, DateTimeStringsIgnored) {
  const auto set = extractFromHtml(
      "<body><span>12:30:05</span><span>2007-01-17</span>"
      "<p>real text</p></body>");
  EXPECT_EQ(set.size(), 1u);
}

TEST(Cvce, NonAlphanumericTextIgnored) {
  const auto set =
      extractFromHtml("<body><p>***</p><p>— — —</p><p>ok1</p></body>");
  EXPECT_EQ(set.size(), 1u);
}

TEST(Cvce, AdvertisementContainersIgnored) {
  const auto set = extractFromHtml(
      "<body><div class=\"adslot\"><a>SAVE 50% now</a></div>"
      "<div id=\"sponsor-box\"><p>buy this</p></div>"
      "<div class=\"content\"><p>article</p></div></body>");
  ASSERT_EQ(set.size(), 1u);
  EXPECT_NE(set.begin()->find("article"), std::string::npos);
}

TEST(Cvce, AdTokenMatchingIsTokenwise) {
  // "shadow" and "download" must NOT trip the ad filter.
  EXPECT_EQ(extractFromHtml(
                "<body><div class=\"shadow\"><p>keep1</p></div>"
                "<div id=\"download\"><p>keep2</p></div></body>")
                .size(),
            2u);
  EXPECT_TRUE(extractFromHtml(
                  "<body><div class=\"top-ad\"><p>drop</p></div></body>")
                  .empty());
}

TEST(Cvce, NoiseFiltersCanBeDisabled) {
  CvceOptions options;
  options.filterDateTime = false;
  options.filterAdvertisement = false;
  options.filterOptionText = false;
  const auto set = extractFromHtml(
      "<body><span>12:30:05</span><div class=\"adslot\"><a>ad copy</a></div>"
      "<select><option>pick me</option></select></body>",
      options);
  EXPECT_EQ(set.size(), 3u);
}

TEST(Cvce, CommentsNeverExtracted) {
  EXPECT_TRUE(extractFromHtml("<body><!-- secret note --></body>").empty());
}

TEST(Cvce, DuplicateStringsCollapseInSet) {
  const auto set = extractFromHtml(
      "<body><ul><li>same</li><li>same</li></ul></body>");
  EXPECT_EQ(set.size(), 1u);  // set semantics, as in the paper
}

// --- NTextSim --------------------------------------------------------------

std::set<std::string> makeSet(std::initializer_list<std::string> items) {
  return {items};
}

std::string entry(const std::string& context, const std::string& text) {
  return context + kContextSeparator + text;
}

TEST(NTextSim, IdenticalSetsScoreOne) {
  const auto set = makeSet({entry("body:p", "a"), entry("body:div", "b")});
  EXPECT_DOUBLE_EQ(nTextSim(set, set), 1.0);
}

TEST(NTextSim, BothEmptyScoreOne) {
  EXPECT_DOUBLE_EQ(nTextSim({}, {}), 1.0);
}

TEST(NTextSim, DisjointContextsScoreZero) {
  EXPECT_DOUBLE_EQ(nTextSim(makeSet({entry("body:p", "a")}),
                            makeSet({entry("body:div", "b")})),
                   0.0);
}

TEST(NTextSim, SameContextReplacementFullyForgiven) {
  // One replacement in one context: the s term restores similarity to 1.
  const auto set1 = makeSet({entry("body:h3", "headline one")});
  const auto set2 = makeSet({entry("body:h3", "headline two")});
  EXPECT_DOUBLE_EQ(nTextSim(set1, set2), 1.0);
  EXPECT_DOUBLE_EQ(nTextSim(set1, set2, /*sameContextCredit=*/false), 0.0);
}

TEST(NTextSim, PartialOverlapWithReplacement) {
  const auto set1 = makeSet({entry("body:p", "shared"),
                             entry("body:h3", "old headline"),
                             entry("body:div:span", "only in one")});
  const auto set2 = makeSet({entry("body:p", "shared"),
                             entry("body:h3", "new headline")});
  // Union = 4 (shared + 2 headlines + span). Intersection = 1. s = 2.
  EXPECT_DOUBLE_EQ(nTextSim(set1, set2), 3.0 / 4.0);
}

TEST(NTextSim, UnbalancedReplacementsUseMinCount) {
  const auto set1 = makeSet({entry("c", "a1"), entry("c", "a2")});
  const auto set2 = makeSet({entry("c", "b1")});
  // Union = 3, intersection = 0, s = 2*min(2,1) = 2.
  EXPECT_DOUBLE_EQ(nTextSim(set1, set2), 2.0 / 3.0);
}

TEST(NTextSim, SymmetricMetric) {
  const auto set1 = makeSet({entry("a", "1"), entry("b", "2"),
                             entry("c", "3")});
  const auto set2 = makeSet({entry("a", "1"), entry("b", "x"),
                             entry("d", "4")});
  EXPECT_DOUBLE_EQ(nTextSim(set1, set2), nTextSim(set2, set1));
}

TEST(NTextSim, BoundedZeroOne) {
  const auto set1 = makeSet({entry("a", "1"), entry("b", "2")});
  const auto set2 = makeSet({entry("a", "9"), entry("b", "2"),
                             entry("c", "3"), entry("a", "extra")});
  const double sim = nTextSim(set1, set2);
  EXPECT_GE(sim, 0.0);
  EXPECT_LE(sim, 1.0);
}

TEST(NTextSim, OneEmptySetScoresZero) {
  EXPECT_DOUBLE_EQ(nTextSim(makeSet({entry("a", "1")}), {}), 0.0);
  EXPECT_DOUBLE_EQ(nTextSim({}, makeSet({entry("a", "1")})), 0.0);
}

TEST(ContextOf, SplitsAtSeparator) {
  EXPECT_EQ(contextOf(entry("body:div:p", "text")), "body:div:p");
  EXPECT_EQ(contextOf("no separator here"), "no separator here");
}

// End-to-end: rotating ad text between two fetches of the same page is
// fully absorbed by the noise rules plus the s term.
TEST(Cvce, AdRotationBetweenFetchesIsForgiven) {
  const std::string pageTemplate =
      "<body><main><section><p>stable article text</p>"
      "<div class=\"inner\"><div class=\"adslot\"><a>%AD%</a></div></div>"
      "</section></main></body>";
  auto fetchSet = [&](const std::string& ad) {
    std::string html = pageTemplate;
    html.replace(html.find("%AD%"), 4, ad);
    return extractFromHtml(html);
  };
  // Ad containers are filtered entirely, so the sets are identical.
  EXPECT_DOUBLE_EQ(
      nTextSim(fetchSet("SAVE 10% on widgets"), fetchSet("WIN a cruise")),
      1.0);
}

TEST(Cvce, HeadlineRotationForgivenBySTermOnly) {
  const std::string pageTemplate =
      "<body><main><h3>%H%</h3><p>body text</p></main></body>";
  auto fetchSet = [&](const std::string& headline) {
    std::string html = pageTemplate;
    html.replace(html.find("%H%"), 3, headline);
    return extractFromHtml(html);
  };
  const auto set1 = fetchSet("market update tonight");
  const auto set2 = fetchSet("vendor catalog expands");
  EXPECT_DOUBLE_EQ(nTextSim(set1, set2), 1.0);
  EXPECT_LT(nTextSim(set1, set2, /*sameContextCredit=*/false), 1.0);
}

}  // namespace
}  // namespace cookiepicker::core
