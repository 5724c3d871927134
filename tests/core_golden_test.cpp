// Hand-computed golden values for the similarity metrics on small pages,
// pinning the exact arithmetic of Formulas 1-3 (not just qualitative
// ordering).
#include <gtest/gtest.h>

#include "core/cvce.h"
#include "core/decision.h"
#include "core/node_detection.h"
#include "core/rstm.h"
#include "core/stm.h"
#include "dom/builder.h"
#include "html/parser.h"

namespace cookiepicker::core {
namespace {

TEST(Golden, NTreeSimHandComputedExample) {
  // Tree A (body-rooted): body > div > {nav > ul, main > {section, section}}
  //   Countable (non-leaf visible, within l=5):
  //   A: body,div,nav,ul?,main,section,section — ul has li children with
  //   text, li are non-leaf too. Build precisely:
  const auto docA = html::parseHtml(
      "<body><div>"
      "<nav><ul><li>a</li><li>b</li></ul></nav>"
      "<main><section><p>x</p></section><section><p>y</p></section></main>"
      "</div></body>");
  // B: same but nav removed entirely.
  const auto docB = html::parseHtml(
      "<body><div>"
      "<main><section><p>x</p></section><section><p>y</p></section></main>"
      "</div></body>");
  const dom::Node& rootA = comparisonRoot(*docA);
  const dom::Node& rootB = comparisonRoot(*docB);

  // N(A,5): body(1) div(2) nav(3) ul(4) li(5)+li(5) main(3) section(4) x2,
  // p(5) x2 → 11. (li and p hold text children, so they are non-leaf; all
  // are within currentLevel <= 5.)
  EXPECT_EQ(countRestrictedNodes(rootA, 5), 11u);
  // N(B,5): body div main section section p p → 7.
  EXPECT_EQ(countRestrictedNodes(rootB, 5), 7u);
  // Matching: everything in B matches into A → 7 pairs.
  EXPECT_EQ(restrictedSimpleTreeMatching(rootA, rootB, 5), 7u);
  // Formula 2: 7 / (11 + 7 - 7) = 7/11.
  EXPECT_DOUBLE_EQ(nTreeSim(rootA, rootB, 5), 7.0 / 11.0);
}

TEST(Golden, NTreeSimLevelCutExactly) {
  const auto docA = html::parseHtml(
      "<body><div><div><div><div><div><p>deep</p></div></div></div></div>"
      "</div></body>");
  const dom::Node& root = comparisonRoot(*docA);
  // Chain: body(1) div(2) div(3) div(4) div(5) | div(6) p(7) cut.
  EXPECT_EQ(countRestrictedNodes(root, 5), 5u);
  EXPECT_EQ(countRestrictedNodes(root, 7), 7u);
  EXPECT_EQ(countRestrictedNodes(root, 100), 7u);  // p's text child is leaf
}

TEST(Golden, StmExactOnAsymmetricTrees) {
  // A = a(b(c),b(c,d)) ; B = a(b(c,d)) → best: a, one b, c, d = 4.
  const auto treeA = dom::buildTree("a(b(c),b(c,d))");
  const auto treeB = dom::buildTree("a(b(c,d))");
  EXPECT_EQ(simpleTreeMatching(*treeA, *treeB), 4u);
  // stmSimilarity = 4 / (6 + 4 - 4) = 2/3.
  EXPECT_DOUBLE_EQ(stmSimilarity(*treeA, *treeB), 2.0 / 3.0);
}

TEST(Golden, NTextSimExactFractions) {
  const auto s = [](const char* context, const char* text) {
    return std::string(context) + kContextSeparator + text;
  };
  // S1 = {p:a, p:b, div:c};  S2 = {p:a, p:z, span:w}
  // ∩ = {p:a} → 1. D1 = {p:b, div:c}, D2 = {p:z, span:w}.
  // Shared unique context "p": min(1,1) → s-term = 2.
  // ∪ = 5. NTextSim = (1+2)/5 = 0.6; without s: 1/5.
  const std::set<std::string> s1 = {s("p", "a"), s("p", "b"), s("div", "c")};
  const std::set<std::string> s2 = {s("p", "a"), s("p", "z"),
                                    s("span", "w")};
  EXPECT_DOUBLE_EQ(nTextSim(s1, s2), 0.6);
  EXPECT_DOUBLE_EQ(nTextSim(s1, s2, false), 0.2);
}

TEST(Golden, CvceExtractionExactSet) {
  const auto document = html::parseHtml(
      "<body><main>"
      "<h2>Title Words</h2>"
      "<p>body   text</p>"
      "<span>12:30:05</span>"
      "<div class=\"adslot\"><a>BUY NOW</a></div>"
      "<script>var x = 'code';</script>"
      "<ul><li>item one</li><li>***</li></ul>"
      "</main></body>");
  const auto set = extractContextContent(comparisonRoot(*document));
  const std::set<std::string> expected = {
      std::string("body:main:h2") + kContextSeparator + "Title Words",
      std::string("body:main:p") + kContextSeparator + "body text",
      std::string("body:main:ul:li") + kContextSeparator + "item one",
  };
  EXPECT_EQ(set, expected);
}

TEST(Golden, DecisionOnExactThresholdEdge) {
  // Construct sims exactly at 0.85 via synthetic sets: ∪=20, ∩+s=17.
  std::set<std::string> s1;
  std::set<std::string> s2;
  for (int i = 0; i < 17; ++i) {
    const std::string shared =
        "c" + std::to_string(i) + kContextSeparator + "t";
    s1.insert(shared);
    s2.insert(shared);
  }
  // Three strings unique to s1 with unmatched contexts.
  for (int i = 0; i < 3; ++i) {
    s1.insert("u" + std::to_string(i) + kContextSeparator + "x");
  }
  EXPECT_DOUBLE_EQ(nTextSim(s1, s2), 17.0 / 20.0);
  // 0.85 <= 0.85 → counts as a difference (Figure 5 uses <=).
  EXPECT_LE(nTextSim(s1, s2), 0.85);
}

TEST(Golden, Figure3NormalizedSimilarity) {
  // STM(A,B)=7, |A|=14, |B|=8 → full-tree Jaccard 7/(14+8-7) = 7/15.
  const auto treeA = dom::figure3TreeA();
  const auto treeB = dom::figure3TreeB();
  EXPECT_DOUBLE_EQ(stmSimilarity(*treeA, *treeB), 7.0 / 15.0);
}

}  // namespace
}  // namespace cookiepicker::core
