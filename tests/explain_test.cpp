#include <gtest/gtest.h>

#include <stdexcept>

#include "core/explain.h"
#include "core/node_detection.h"
#include "html/parser.h"
#include "html/stream_snapshot.h"

namespace cookiepicker::core {
namespace {

std::string pageHtml(const std::string& body) {
  return "<html><head></head><body>" + body + "</body></html>";
}

std::unique_ptr<dom::Node> page(const std::string& body) {
  return html::parseHtml(pageHtml(body));
}

// Both evidence paths over one pair of bodies: the snapshot evidence, after
// checking that the node-tree oracle produces the same lists.
DifferenceExplanation explainBoth(const std::string& regularBody,
                                  const std::string& hiddenBody,
                                  const ExplainOptions& options = {}) {
  const DifferenceExplanation oracle =
      explainDifference(*page(regularBody), *page(hiddenBody), options);
  const std::string regularHtml = pageHtml(regularBody);
  const std::string hiddenHtml = pageHtml(hiddenBody);
  const auto regular = html::buildSnapshotStreaming(regularHtml).snapshot;
  const auto hidden = html::buildSnapshotStreaming(hiddenHtml).snapshot;
  DifferenceExplanation snapshot = explainDifference(
      {*regular, regularHtml}, {*hidden, hiddenHtml}, options);
  EXPECT_EQ(snapshot.summary(), oracle.summary());
  return snapshot;
}

TEST(Explain, IdenticalPagesHaveEmptyEvidence) {
  auto regular = page("<main><section><p>x</p></section></main>");
  auto hidden = page("<main><section><p>x</p></section></main>");
  const DifferenceExplanation explanation =
      explainDifference(*regular, *hidden);
  EXPECT_FALSE(explanation.decision.causedByCookies);
  EXPECT_TRUE(explanation.structureOnlyInRegular.empty());
  EXPECT_TRUE(explanation.structureOnlyInHidden.empty());
  EXPECT_TRUE(explanation.textOnlyInRegular.empty());
  EXPECT_TRUE(explanation.textOnlyInHidden.empty());
  EXPECT_NE(explanation.summary().find("no cookie-caused difference"),
            std::string::npos);
}

TEST(Explain, MissingSidebarShowsUpAsStructure) {
  auto regular = page(
      "<div><aside><ul><li>saved</li></ul></aside>"
      "<main><section><p>x</p></section></main></div>");
  auto hidden = page("<div><main><section><p>x</p></section></main></div>");
  const DifferenceExplanation explanation =
      explainDifference(*regular, *hidden);
  ASSERT_FALSE(explanation.structureOnlyInRegular.empty());
  // The aside chain is the evidence.
  bool sawAside = false;
  for (const std::string& path : explanation.structureOnlyInRegular) {
    if (path.find("aside") != std::string::npos) sawAside = true;
  }
  EXPECT_TRUE(sawAside);
  EXPECT_TRUE(explanation.structureOnlyInHidden.empty());
}

TEST(Explain, TextEvidenceCarriesContext) {
  auto regular = page("<main><p>welcome back member</p></main>");
  auto hidden = page("<main><p>please sign in</p></main>");
  const DifferenceExplanation explanation =
      explainDifference(*regular, *hidden);
  ASSERT_EQ(explanation.textOnlyInRegular.size(), 1u);
  EXPECT_NE(explanation.textOnlyInRegular[0].find("welcome back member"),
            std::string::npos);
  EXPECT_NE(explanation.textOnlyInRegular[0].find("body:main:p"),
            std::string::npos);
  ASSERT_EQ(explanation.textOnlyInHidden.size(), 1u);
}

TEST(Explain, MultiplicityRendered) {
  auto regular = page(
      "<main><section><p>a</p></section><section><p>b</p></section>"
      "<section><p>c</p></section></main>");
  auto hidden = page("<main><section><p>a</p></section></main>");
  const DifferenceExplanation explanation =
      explainDifference(*regular, *hidden);
  bool sawMultiplicity = false;
  for (const std::string& path : explanation.structureOnlyInRegular) {
    if (path.find("(x2)") != std::string::npos) sawMultiplicity = true;
  }
  EXPECT_TRUE(sawMultiplicity);
}

TEST(Explain, MaxItemsCapsEvidence) {
  std::string many;
  for (int i = 0; i < 12; ++i) {
    many += "<p>unique text " + std::to_string(i) + "</p>";
  }
  auto regular = page("<main>" + many + "</main>");
  auto hidden = page("<main></main>");
  ExplainOptions options;
  options.maxItems = 3;
  const DifferenceExplanation explanation =
      explainDifference(*regular, *hidden, options);
  EXPECT_LE(explanation.textOnlyInRegular.size(), 3u);
  EXPECT_LE(explanation.structureOnlyInRegular.size(), 3u);
}

TEST(Explain, SummaryMentionsBothMetrics) {
  auto regular = page("<main><section><p>x</p></section></main>");
  auto hidden = page("<main><div><form><input></form></div></main>");
  const std::string summary =
      explainDifference(*regular, *hidden).summary();
  EXPECT_NE(summary.find("NTreeSim="), std::string::npos);
  EXPECT_NE(summary.find("NTextSim="), std::string::npos);
}

TEST(Explain, RespectsLevelRestriction) {
  // Difference below the level cut produces no structural evidence.
  auto regular = page(
      "<main><div><div><div><div><div><span><b>deep</b></span></div>"
      "</div></div></div></div></main>");
  auto hidden = page(
      "<main><div><div><div><div><div><em><i>deep</i></em></div></div>"
      "</div></div></div></main>");
  ExplainOptions options;
  options.decision.maxLevel = 3;
  const DifferenceExplanation explanation =
      explainDifference(*regular, *hidden, options);
  EXPECT_TRUE(explanation.structureOnlyInRegular.empty());
  EXPECT_TRUE(explanation.structureOnlyInHidden.empty());
}

// Twelve uniquely worded paragraphs in one section.
std::string manyParagraphs() {
  std::string many;
  for (int i = 0; i < 12; ++i) {
    many += "<p>unique text " + std::to_string(i) + "</p>";
  }
  return "<main><section>" + many + "</section></main>";
}

TEST(Explain, MaxItemsZeroReturnsNothing) {
  ExplainOptions options;
  options.maxItems = 0;
  const DifferenceExplanation explanation =
      explainBoth(manyParagraphs(), "<main></main>", options);
  EXPECT_TRUE(explanation.structureOnlyInRegular.empty());
  EXPECT_TRUE(explanation.structureOnlyInHidden.empty());
  EXPECT_TRUE(explanation.textOnlyInRegular.empty());
  EXPECT_TRUE(explanation.textOnlyInHidden.empty());
}

TEST(Explain, MaxItemsOneReturnsTheFirstOfEach) {
  ExplainOptions options;
  options.maxItems = 1;
  const DifferenceExplanation explanation =
      explainBoth(manyParagraphs(), "<main><p>gone</p></main>", options);
  // String order: "unique text 0" < "unique text 1" < "unique text 10".
  EXPECT_EQ(explanation.textOnlyInRegular,
            std::vector<std::string>{"body:main:section:p|>unique text 0"});
  EXPECT_EQ(explanation.textOnlyInHidden,
            std::vector<std::string>{"body:main:p|>gone"});
  // Twelve <p> rows outnumber the one section.
  EXPECT_EQ(explanation.structureOnlyInRegular,
            std::vector<std::string>{"body>main>section>p (x12)"});
  EXPECT_EQ(explanation.structureOnlyInHidden,
            std::vector<std::string>{"body>main>p"});
}

TEST(Explain, SnapshotEvidenceMatchesOracle) {
  // Same-context replacements, entity-decoded and merged text, filtered
  // subtrees, and a structure difference below the level cut.
  explainBoth(
      "<main><p>a &amp; b</p><p>x<!--c-->y</p><div class=ad>buy</div>"
      "<ul><li>one</li><li>two</li></ul></main>",
      "<main><p>a &amp; c</p><p>xy</p><script>s()</script>"
      "<ul><li>one</li></ul><div><div><div><div><p>deep</p></div></div>"
      "</div></div></main>");
  ExplainOptions options;
  options.decision.maxLevel = 2;
  explainBoth("<main><p>  spaced\n text </p></main>",
              "<main><p>spaced text</p><p>more</p></main>", options);
}

TEST(Explain, SnapshotEvidenceRejectsForeignHtml) {
  const std::string regularHtml = pageHtml("<main><p>mine</p></main>");
  const std::string hiddenHtml = pageHtml("<main><p>theirs</p></main>");
  const auto regular = html::buildSnapshotStreaming(regularHtml).snapshot;
  const auto hidden = html::buildSnapshotStreaming(hiddenHtml).snapshot;
  EvidenceScratch scratch;
  DifferenceExplanation explanation;
  // The regular snapshot paired with the hidden copy's bytes.
  EXPECT_THROW(collectDifferenceEvidence({*regular, hiddenHtml},
                                         {*hidden, hiddenHtml}, {}, scratch,
                                         explanation),
               std::logic_error);
}

}  // namespace
}  // namespace cookiepicker::core
