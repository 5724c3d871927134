#include <gtest/gtest.h>

#include "dom/builder.h"
#include "dom/node.h"
#include "dom/serialize.h"
#include "html/tags.h"

namespace cookiepicker::dom {
namespace {

TEST(Node, FactoriesSetTypeAndName) {
  EXPECT_TRUE(Node::makeDocument()->isDocument());
  EXPECT_EQ(Node::makeDocument()->name(), "#document");
  EXPECT_TRUE(Node::makeElement("DIV")->isElement());
  EXPECT_EQ(Node::makeElement("DIV")->name(), "div");  // lowercased
  EXPECT_EQ(Node::makeText("hi")->value(), "hi");
  EXPECT_TRUE(Node::makeComment("c")->isComment());
  EXPECT_EQ(Node::makeDoctype("HTML")->name(), "html");
}

TEST(Node, AppendChildSetsParent) {
  auto parent = Node::makeElement("div");
  Node& child = parent->appendChild(Node::makeElement("p"));
  EXPECT_EQ(child.parent(), parent.get());
  EXPECT_EQ(parent->childCount(), 1u);
}

TEST(Node, InsertChildAtPosition) {
  auto parent = Node::makeElement("div");
  parent->appendChild(Node::makeElement("a"));
  parent->appendChild(Node::makeElement("c"));
  parent->insertChild(1, Node::makeElement("b"));
  EXPECT_EQ(parent->child(0).name(), "a");
  EXPECT_EQ(parent->child(1).name(), "b");
  EXPECT_EQ(parent->child(2).name(), "c");
}

TEST(Node, InsertChildClampsIndex) {
  auto parent = Node::makeElement("div");
  parent->insertChild(99, Node::makeElement("x"));
  EXPECT_EQ(parent->childCount(), 1u);
}

TEST(Node, RemoveChildReturnsOwnership) {
  auto parent = Node::makeElement("div");
  parent->appendChild(Node::makeElement("a"));
  parent->appendChild(Node::makeElement("b"));
  auto removed = parent->removeChild(0);
  EXPECT_EQ(removed->name(), "a");
  EXPECT_EQ(removed->parent(), nullptr);
  EXPECT_EQ(parent->childCount(), 1u);
}

TEST(Node, AttributesCaseInsensitiveNames) {
  auto element = Node::makeElement("img");
  element->setAttribute("SRC", "/x.png");
  EXPECT_EQ(element->attribute("src").value_or(""), "/x.png");
  EXPECT_TRUE(element->hasAttribute("Src"));
  element->setAttribute("src", "/y.png");  // overwrite, not duplicate
  EXPECT_EQ(element->attributes().size(), 1u);
  EXPECT_EQ(element->attribute("src").value_or(""), "/y.png");
}

TEST(Node, AttributesIgnoredOnNonElements) {
  auto text = Node::makeText("x");
  text->setAttribute("a", "b");
  EXPECT_TRUE(text->attributes().empty());
}

TEST(Node, SubtreeSizeCountsAllNodes) {
  auto tree = buildTree("a(b(c,d),e)");
  EXPECT_EQ(tree->subtreeSize(), 5u);
}

TEST(Node, SubtreeHeight) {
  EXPECT_EQ(buildTree("a")->subtreeHeight(), 1u);
  EXPECT_EQ(buildTree("a(b(c))")->subtreeHeight(), 3u);
  EXPECT_EQ(buildTree("a(b,c(d))")->subtreeHeight(), 3u);
}

TEST(Node, CloneIsDeepAndDetached) {
  auto tree = buildTree("a(b(c),d)");
  tree->child(0).setAttribute("id", "x");
  auto copy = tree->clone();
  EXPECT_EQ(copy->subtreeSize(), 4u);
  EXPECT_EQ(copy->parent(), nullptr);
  EXPECT_EQ(copy->child(0).attribute("id").value_or(""), "x");
  // Mutating the copy does not touch the original.
  copy->removeChild(0);
  EXPECT_EQ(tree->subtreeSize(), 4u);
}

TEST(Node, TextContentConcatenatesDescendants) {
  auto tree = Node::makeElement("p");
  tree->appendChild(Node::makeText("hello "));
  auto& bold = tree->appendChild(Node::makeElement("b"));
  bold.appendChild(Node::makeText("world"));
  EXPECT_EQ(tree->textContent(), "hello world");
}

TEST(Node, FindFirstPreorder) {
  auto tree = buildTree("a(b(c),c)");
  const Node* found = tree->findFirst("c");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->parent()->name(), "b");  // the nested one comes first
}

TEST(Node, FindFirstMissingReturnsNull) {
  auto tree = buildTree("a(b)");
  EXPECT_EQ(tree->findFirst("z"), nullptr);
}

TEST(Node, FindAllCollectsEveryMatch) {
  auto tree = buildTree("a(b(c),c,d(c))");
  EXPECT_EQ(tree->findAll("c").size(), 3u);
}

TEST(Preorder, VisitsNodeThenChildrenWithDepth) {
  auto tree = buildTree("a(b(c),d)");
  std::vector<std::pair<std::string, std::size_t>> visits;
  preorder(*tree, [&](const Node& node, std::size_t depth) {
    visits.emplace_back(node.name(), depth);
    return true;
  });
  const std::vector<std::pair<std::string, std::size_t>> expected = {
      {"a", 0}, {"b", 1}, {"c", 2}, {"d", 1}};
  EXPECT_EQ(visits, expected);
}

TEST(Preorder, ReturningFalsePrunesSubtree) {
  auto tree = buildTree("a(b(c),d)");
  std::vector<std::string> visits;
  preorder(*tree, [&](const Node& node, std::size_t) {
    visits.push_back(node.name());
    return node.name() != "b";
  });
  const std::vector<std::string> expected = {"a", "b", "d"};
  EXPECT_EQ(visits, expected);
}

TEST(NonVisualTags, ScriptAndStyleAreNonVisual) {
  EXPECT_TRUE(html::isNonVisualTag("script"));
  EXPECT_TRUE(html::isNonVisualTag("style"));
  EXPECT_TRUE(html::isNonVisualTag("head"));
  EXPECT_FALSE(html::isNonVisualTag("div"));
  EXPECT_FALSE(html::isNonVisualTag("img"));
}

// --- builder ---------------------------------------------------------------

TEST(Builder, BuildsNestedStructure) {
  auto tree = buildTree("a(b,c(d))");
  EXPECT_EQ(tree->name(), "a");
  EXPECT_EQ(tree->childCount(), 2u);
  EXPECT_EQ(tree->child(1).child(0).name(), "d");
}

TEST(Builder, TextAndCommentNodes) {
  auto tree = buildTree("p(#'hello world',!'note')");
  EXPECT_TRUE(tree->child(0).isText());
  EXPECT_EQ(tree->child(0).value(), "hello world");
  EXPECT_TRUE(tree->child(1).isComment());
  EXPECT_EQ(tree->child(1).value(), "note");
}

TEST(Builder, WhitespaceIgnored) {
  auto tree = buildTree("  a ( b , c )  ");
  EXPECT_EQ(tree->subtreeSize(), 3u);
}

TEST(Builder, MalformedInputThrows) {
  EXPECT_THROW(buildTree("a(b"), std::invalid_argument);
  EXPECT_THROW(buildTree("a)b"), std::invalid_argument);
  EXPECT_THROW(buildTree(""), std::invalid_argument);
  EXPECT_THROW(buildTree("a(b,)"), std::invalid_argument);
  EXPECT_THROW(buildTree("#x"), std::invalid_argument);  // missing quotes
}

TEST(Builder, Figure3TreesHaveRightShapes) {
  auto treeA = figure3TreeA();
  auto treeB = figure3TreeB();
  EXPECT_EQ(treeA->subtreeSize(), 14u);  // N1..N14
  EXPECT_EQ(treeB->subtreeSize(), 8u);   // N15..N22
  EXPECT_EQ(treeA->name(), "a");
  EXPECT_EQ(treeB->name(), "a");
}

// --- serialize ---------------------------------------------------------------

TEST(Serialize, ElementWithAttributesAndText) {
  auto div = Node::makeElement("div");
  div->setAttribute("id", "main");
  div->appendChild(Node::makeText("hi"));
  EXPECT_EQ(toHtml(*div), "<div id=\"main\">hi</div>");
}

TEST(Serialize, VoidElementsHaveNoEndTag) {
  auto br = Node::makeElement("br");
  EXPECT_EQ(toHtml(*br), "<br>");
  auto img = Node::makeElement("img");
  img->setAttribute("src", "/x.png");
  EXPECT_EQ(toHtml(*img), "<img src=\"/x.png\">");
}

TEST(Serialize, TextIsEscaped) {
  auto p = Node::makeElement("p");
  p->appendChild(Node::makeText("a < b & c > d"));
  EXPECT_EQ(toHtml(*p), "<p>a &lt; b &amp; c &gt; d</p>");
}

TEST(Serialize, AttributeValuesEscaped) {
  auto div = Node::makeElement("div");
  div->setAttribute("title", "say \"hi\" & go");
  EXPECT_EQ(toHtml(*div), "<div title=\"say &quot;hi&quot; &amp; go\"></div>");
}

TEST(Serialize, ScriptContentNotEscaped) {
  auto script = Node::makeElement("script");
  script->appendChild(Node::makeText("if (a < b && c > d) {}"));
  EXPECT_EQ(toHtml(*script), "<script>if (a < b && c > d) {}</script>");
}

TEST(Serialize, CommentsAndDoctype) {
  auto document = Node::makeDocument();
  document->appendChild(Node::makeDoctype("html"));
  document->appendChild(Node::makeComment(" note "));
  EXPECT_EQ(toHtml(*document), "<!DOCTYPE html><!-- note -->");
}

TEST(Serialize, StructureSignature) {
  auto tree = buildTree("html(head(title),body(div(p,p)))");
  EXPECT_EQ(structureSignature(*tree), "html(head(title),body(div(p,p)))");
}

TEST(Serialize, StructureSignatureSkipsTextAndComments) {
  auto tree = buildTree("div(#'x',p,!'c')");
  EXPECT_EQ(structureSignature(*tree), "div(p)");
}

TEST(Serialize, DebugStringShowsIndentation) {
  auto tree = buildTree("a(b)");
  const std::string debug = toDebugString(*tree);
  EXPECT_NE(debug.find("element a\n  element b"), std::string::npos);
}

// The oracle's text canonicalizer (dom::collapseWhitespace).
TEST(Strings, CollapseWhitespace) {
  EXPECT_EQ(collapseWhitespace("  hello \t  world \n"), "hello world");
  EXPECT_EQ(collapseWhitespace("   "), "");
}

}  // namespace
}  // namespace cookiepicker::dom
