#include <gtest/gtest.h>

#include "core/node_detection.h"
#include "core/rstm.h"
#include "core/stm.h"
#include "dom/builder.h"
#include "html/parser.h"

namespace cookiepicker::core {
namespace {

using dom::buildTree;
using dom::figure3TreeA;
using dom::figure3TreeB;
using dom::Node;

// --- STM (Figure 3 anchor) ---------------------------------------------------

TEST(Stm, Figure3ReturnsSevenPairs) {
  // The paper's worked example: STM(A, B) = 7.
  EXPECT_EQ(simpleTreeMatching(*figure3TreeA(), *figure3TreeB()), 7u);
}

TEST(Stm, Figure3MappingMatchesPaperPairs) {
  auto treeA = figure3TreeA();
  auto treeB = figure3TreeB();
  const StmMapping mapping = simpleTreeMatchingWithMapping(*treeA, *treeB);
  EXPECT_EQ(mapping.matchCount, 7u);

  // Compute preorder indices (1-based, as the paper numbers N1..N14 and
  // N15..N22) of each matched node.
  auto preorderIndex = [](const Node& root, const Node* target) {
    std::size_t index = 0;
    std::size_t found = 0;
    dom::preorder(root, [&](const Node& node, std::size_t) {
      ++index;
      if (&node == target) found = index;
      return true;
    });
    return found;
  };
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (const auto& [nodeA, nodeB] : mapping.pairs) {
    pairs.emplace_back(preorderIndex(*treeA, nodeA),
                       preorderIndex(*treeB, nodeB) + 14);  // N15 offset
  }
  std::sort(pairs.begin(), pairs.end());
  const std::vector<std::pair<std::size_t, std::size_t>> expected = {
      {1, 15}, {2, 16}, {5, 17}, {6, 18}, {7, 19}, {11, 20}, {12, 22}};
  EXPECT_EQ(pairs, expected);
}

TEST(Stm, DifferentRootsNoMatch) {
  EXPECT_EQ(simpleTreeMatching(*buildTree("a(b)"), *buildTree("b(b)")), 0u);
}

TEST(Stm, IdenticalTreeMatchesAllNodes) {
  auto tree = buildTree("a(b(c,d),e(f))");
  EXPECT_EQ(simpleTreeMatching(*tree, *tree), tree->subtreeSize());
}

TEST(Stm, SingleNodeTrees) {
  EXPECT_EQ(simpleTreeMatching(*buildTree("a"), *buildTree("a")), 1u);
  EXPECT_EQ(simpleTreeMatching(*buildTree("a"), *buildTree("a(b,c)")), 1u);
}

TEST(Stm, OrderSensitivity) {
  // STM respects sibling order: a(b,c) vs a(c,b) can match only root + one
  // child (the LCS of the child sequences).
  EXPECT_EQ(simpleTreeMatching(*buildTree("a(b,c)"), *buildTree("a(c,b)")),
            2u);
}

TEST(Stm, IsSymmetric) {
  auto treeA = buildTree("a(b(c,d),e,f(g))");
  auto treeB = buildTree("a(b(d),f(g,h),e)");
  EXPECT_EQ(simpleTreeMatching(*treeA, *treeB),
            simpleTreeMatching(*treeB, *treeA));
}

TEST(Stm, SimilarityIdenticalIsOne) {
  auto tree = buildTree("a(b,c(d))");
  EXPECT_DOUBLE_EQ(stmSimilarity(*tree, *tree), 1.0);
}

TEST(Stm, SimilarityDisjointIsZero) {
  EXPECT_DOUBLE_EQ(stmSimilarity(*buildTree("a"), *buildTree("b")), 0.0);
}

// --- RSTM ---------------------------------------------------------------------

TEST(Rstm, SelfComparisonEqualsRestrictedCount) {
  // N(A, l) = RSTM(A, A, l) — the identity Section 4.1.4 relies on.
  auto document = html::parseHtml(
      "<body><div><section><h2>t</h2><p>x</p><div><ul><li>a</li>"
      "<li>b</li></ul></div></section><section><p>y</p></section>"
      "</div></body>");
  const dom::Node& body = comparisonRoot(*document);
  for (int level = 1; level <= 8; ++level) {
    EXPECT_EQ(restrictedSimpleTreeMatching(body, body, level),
              countRestrictedNodes(body, level))
        << "level " << level;
  }
}

TEST(Rstm, LeafPairsDoNotCount) {
  // b and c are leaves: only the root pair counts... and the root counts
  // itself only because it is non-leaf and visible.
  EXPECT_EQ(restrictedSimpleTreeMatching(*buildTree("a(b,c)"),
                                         *buildTree("a(b,c)"), 10),
            1u);
}

TEST(Rstm, LevelRestrictionCutsDeepNodes) {
  auto deep = buildTree("a(b(c(d(e(f(g))))))");
  // Levels: a=1, b=2, c=3, d=4, e=5, f=6 (g is a leaf anyway).
  EXPECT_EQ(restrictedSimpleTreeMatching(*deep, *deep, 3), 3u);  // a,b,c
  EXPECT_EQ(restrictedSimpleTreeMatching(*deep, *deep, 5), 5u);
  EXPECT_EQ(countRestrictedNodes(*deep, 3), 3u);
}

TEST(Rstm, DeepDifferencesInvisibleAtLowLevel) {
  // The two trees differ only below level 3 — with maxLevel 3 they are
  // indistinguishable (the leaf-noise immunity the level parameter buys).
  auto treeA = buildTree("a(b(c(d(x,y),e)),f(g))");
  auto treeB = buildTree("a(b(c(d(z),e)),f(g))");
  EXPECT_EQ(restrictedSimpleTreeMatching(*treeA, *treeB, 3),
            restrictedSimpleTreeMatching(*treeA, *treeA, 3));
  EXPECT_DOUBLE_EQ(nTreeSim(*treeA, *treeB, 3), 1.0);
}

TEST(Rstm, NonVisualNodesExcluded) {
  auto document = html::parseHtml(
      "<body><div><script>x()</script><p>text</p></div></body>");
  const dom::Node& body = comparisonRoot(*document);
  // Counted: body, div, p — script is non-visual, text nodes are leaves.
  EXPECT_EQ(countRestrictedNodes(body, 5), 3u);
}

TEST(Rstm, CommentsExcluded) {
  auto withComment =
      html::parseHtml("<body><div><!--x--><p>t</p></div></body>");
  auto without = html::parseHtml("<body><div><p>t</p></div></body>");
  EXPECT_DOUBLE_EQ(
      nTreeSim(comparisonRoot(*withComment), comparisonRoot(*without), 5),
      1.0);
}

TEST(Rstm, DifferentRootSymbolsScoreZero) {
  EXPECT_EQ(
      restrictedSimpleTreeMatching(*buildTree("a(b(c))"), *buildTree("b(b(c))"), 5),
      0u);
}

// --- NTreeSim ------------------------------------------------------------------

TEST(NTreeSim, IdenticalTreesScoreOne) {
  auto document = html::parseHtml(
      "<body><div><section><p>a</p></section></div></body>");
  const dom::Node& body = comparisonRoot(*document);
  EXPECT_DOUBLE_EQ(nTreeSim(body, body, 5), 1.0);
}

TEST(NTreeSim, BothTrivialTreesScoreOne) {
  // Two bodies with nothing countable: defined as similarity 1.
  auto emptyA = html::parseHtml("<body></body>");
  auto emptyB = html::parseHtml("<body></body>");
  EXPECT_DOUBLE_EQ(
      nTreeSim(comparisonRoot(*emptyA), comparisonRoot(*emptyB), 5), 1.0);
}

TEST(NTreeSim, StructuralRemovalLowersSimilarity) {
  auto full = html::parseHtml(
      "<body><div><nav><ul><li>a</li></ul></nav><main><section><p>x</p>"
      "</section><section><p>y</p></section></main></div></body>");
  auto gutted = html::parseHtml(
      "<body><div><main><section><p>y</p></section></main></div></body>");
  const double sim =
      nTreeSim(comparisonRoot(*full), comparisonRoot(*gutted), 5);
  EXPECT_LT(sim, 0.85);
  EXPECT_GT(sim, 0.0);
}

TEST(NTreeSim, BoundedZeroOne) {
  const char* pages[] = {
      "<body><div><p>a</p></div></body>",
      "<body><table><tr><td>x</td></tr></table></body>",
      "<body></body>",
      "<body><div><div><div><div><p>deep</p></div></div></div></div></body>",
  };
  for (const char* pageA : pages) {
    for (const char* pageB : pages) {
      auto docA = html::parseHtml(pageA);
      auto docB = html::parseHtml(pageB);
      const double sim =
          nTreeSim(comparisonRoot(*docA), comparisonRoot(*docB), 5);
      EXPECT_GE(sim, 0.0);
      EXPECT_LE(sim, 1.0);
    }
  }
}

TEST(NTreeSim, SymmetricMetric) {
  auto docA = html::parseHtml(
      "<body><div><section><p>a</p></section><aside><ul><li>l</li></ul>"
      "</aside></div></body>");
  auto docB = html::parseHtml(
      "<body><div><section><p>a</p><p>b</p></section></div></body>");
  EXPECT_DOUBLE_EQ(nTreeSim(comparisonRoot(*docA), comparisonRoot(*docB), 5),
                   nTreeSim(comparisonRoot(*docB), comparisonRoot(*docA), 5));
}

TEST(ComparisonRoot, PrefersBody) {
  auto document = html::parseHtml("<body><p>x</p></body>");
  EXPECT_EQ(comparisonRoot(*document).name(), "body");
}

// Parameterized sweep: the restricted count is monotone in the level and
// never exceeds the visible non-leaf node population.
class RstmLevelSweep : public ::testing::TestWithParam<int> {};

TEST_P(RstmLevelSweep, CountMonotoneInLevel) {
  const int level = GetParam();
  auto document = html::parseHtml(
      "<body><div><main><section><h2>a</h2><div><ul><li><a>x</a></li>"
      "</ul></div></section><section><p>b</p><div><div><div><p>deep</p>"
      "</div></div></div></section></main></div></body>");
  const dom::Node& body = comparisonRoot(*document);
  EXPECT_LE(countRestrictedNodes(body, level),
            countRestrictedNodes(body, level + 1));
  EXPECT_EQ(restrictedSimpleTreeMatching(body, body, level),
            countRestrictedNodes(body, level));
}

INSTANTIATE_TEST_SUITE_P(Levels, RstmLevelSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 10, 12));

}  // namespace
}  // namespace cookiepicker::core
