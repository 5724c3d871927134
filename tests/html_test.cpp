#include <gtest/gtest.h>

#include "dom/serialize.h"
#include "html/entities.h"
#include "html/parser.h"
#include "html/tags.h"
#include "token_support.h"

namespace cookiepicker::html {
namespace {

using dom::structureSignature;
using dom::toHtml;

// --- entities ---------------------------------------------------------------

TEST(Entities, NamedReferences) {
  EXPECT_EQ(decodeEntities("a &amp; b"), "a & b");
  EXPECT_EQ(decodeEntities("&lt;div&gt;"), "<div>");
  EXPECT_EQ(decodeEntities("&quot;x&quot;"), "\"x\"");
}

TEST(Entities, NumericDecimalAndHex) {
  EXPECT_EQ(decodeEntities("&#65;"), "A");
  EXPECT_EQ(decodeEntities("&#x41;"), "A");
  EXPECT_EQ(decodeEntities("&#X41;"), "A");
}

TEST(Entities, MultiByteUtf8) {
  EXPECT_EQ(decodeEntities("&euro;"), "\xE2\x82\xAC");
  EXPECT_EQ(decodeEntities("&#233;"), "\xC3\xA9");   // é
  EXPECT_EQ(decodeEntities("&#x1F600;"), "\xF0\x9F\x98\x80");
}

TEST(Entities, InvalidCodePointsBecomeReplacement) {
  EXPECT_EQ(decodeEntities("&#xD800;"), "\xEF\xBF\xBD");   // surrogate
  EXPECT_EQ(decodeEntities("&#1114112;"), "\xEF\xBF\xBD"); // > U+10FFFF
}

TEST(Entities, UnknownOrMalformedPassThrough) {
  EXPECT_EQ(decodeEntities("&bogus;"), "&bogus;");
  EXPECT_EQ(decodeEntities("a & b"), "a & b");      // bare ampersand
  EXPECT_EQ(decodeEntities("&amp"), "&amp");        // missing semicolon
  EXPECT_EQ(decodeEntities("&;"), "&;");
  EXPECT_EQ(decodeEntities("&#xZZ;"), "&#xZZ;");
}

TEST(Entities, AdjacentReferences) {
  EXPECT_EQ(decodeEntities("&lt;&lt;&gt;&gt;"), "<<>>");
}

TEST(Entities, Html4TableSpotChecks) {
  EXPECT_EQ(decodeEntities("&Ntilde;"), "\xC3\x91");      // Ñ
  EXPECT_EQ(decodeEntities("&yuml;"), "\xC3\xBF");        // ÿ
  EXPECT_EQ(decodeEntities("&alpha;&Omega;"),
            "\xCE\xB1\xCE\xA9");                          // αΩ
  EXPECT_EQ(decodeEntities("&ne;"), "\xE2\x89\xA0");      // ≠
  EXPECT_EQ(decodeEntities("&hearts;"), "\xE2\x99\xA5");  // ♥
  EXPECT_EQ(decodeEntities("&OElig;"), "\xC5\x92");       // Œ
  EXPECT_EQ(decodeEntities("&sup2;"), "\xC2\xB2");        // ²
  EXPECT_EQ(decodeEntities("&rArr;"), "\xE2\x87\x92");    // ⇒
}

TEST(Entities, CaseSensitiveNames) {
  // &Delta; and &delta; are different characters; &AMP; is not defined in
  // the table (lenient passthrough).
  EXPECT_EQ(decodeEntities("&Delta;"), "\xCE\x94");
  EXPECT_EQ(decodeEntities("&delta;"), "\xCE\xB4");
  EXPECT_EQ(decodeEntities("&AMP;"), "&AMP;");
}

// --- tokenizer ---------------------------------------------------------------

TEST(Tokenizer, SimpleTagsAndText) {
  const auto tokens = tokenizeAll("<p>hello</p>");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].type, TokenType::StartTag);
  EXPECT_EQ(tokens[0].name, "p");
  EXPECT_EQ(tokens[1].type, TokenType::Text);
  EXPECT_EQ(tokens[1].text, "hello");
  EXPECT_EQ(tokens[2].type, TokenType::EndTag);
}

TEST(Tokenizer, TagNamesLowercased) {
  const auto tokens = tokenizeAll("<DiV></DIV>");
  EXPECT_EQ(tokens[0].name, "div");
  EXPECT_EQ(tokens[1].name, "div");
}

TEST(Tokenizer, AttributesAllQuoteStyles) {
  const auto tokens = tokenizeAll(
      "<a href=\"/x\" title='hi there' data-k=v disabled>");
  ASSERT_EQ(tokens.size(), 1u);
  const auto& attributes = tokens[0].attributes;
  ASSERT_EQ(attributes.size(), 4u);
  EXPECT_EQ(attributes[0].name, "href");
  EXPECT_EQ(attributes[0].value, "/x");
  EXPECT_EQ(attributes[1].value, "hi there");
  EXPECT_EQ(attributes[2].value, "v");
  EXPECT_EQ(attributes[3].name, "disabled");
  EXPECT_EQ(attributes[3].value, "");
}

TEST(Tokenizer, DuplicateAttributesFirstWins) {
  const auto tokens = tokenizeAll("<a id=one id=two>");
  ASSERT_EQ(tokens[0].attributes.size(), 1u);
  EXPECT_EQ(tokens[0].attributes[0].value, "one");
}

TEST(Tokenizer, AttributeValuesEntityDecoded) {
  const auto tokens = tokenizeAll("<a title=\"a &amp; b\">");
  EXPECT_EQ(tokens[0].attributes[0].value, "a & b");
}

TEST(Tokenizer, SelfClosingFlag) {
  const auto tokens = tokenizeAll("<br/><img src=x />");
  EXPECT_TRUE(tokens[0].selfClosing);
  EXPECT_TRUE(tokens[1].selfClosing);
}

TEST(Tokenizer, Comments) {
  const auto tokens = tokenizeAll("<!-- hello -->");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].type, TokenType::Comment);
  EXPECT_EQ(tokens[0].text, " hello ");
}

TEST(Tokenizer, UnterminatedCommentConsumesRest) {
  const auto tokens = tokenizeAll("<!-- oops <p>x</p>");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].type, TokenType::Comment);
}

TEST(Tokenizer, Doctype) {
  const auto tokens = tokenizeAll("<!DOCTYPE HTML>");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].type, TokenType::Doctype);
  EXPECT_EQ(tokens[0].name, "html");
}

TEST(Tokenizer, BogusCommentFromProcessingInstruction) {
  const auto tokens = tokenizeAll("<?xml version=\"1.0\"?><p>");
  EXPECT_EQ(tokens[0].type, TokenType::Comment);
  EXPECT_EQ(tokens[1].type, TokenType::StartTag);
}

TEST(Tokenizer, RawTextScriptContent) {
  const auto tokens =
      tokenizeAll("<script>if (a<b) x=\"</p>\";</script>");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[1].type, TokenType::Text);
  EXPECT_EQ(tokens[1].text, "if (a<b) x=\"</p>\";");
  EXPECT_EQ(tokens[2].type, TokenType::EndTag);
  EXPECT_EQ(tokens[2].name, "script");
}

TEST(Tokenizer, RawTextTitleIsEntityDecoded) {
  const auto tokens = tokenizeAll("<title>A &amp; B</title>");
  EXPECT_EQ(tokens[1].text, "A & B");
}

TEST(Tokenizer, RawTextUnterminatedConsumesRest) {
  const auto tokens = tokenizeAll("<style>p{} <div>");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[1].text, "p{} <div>");
}

TEST(Tokenizer, LoneAngleBracketIsText) {
  const auto tokens = tokenizeAll("a < b");
  ASSERT_EQ(tokens.size(), 2u);  // "a " then "< b"
  EXPECT_EQ(tokens[0].text, "a ");
  EXPECT_EQ(tokens[1].text, "< b");
}

TEST(Tokenizer, TextEntityDecoded) {
  const auto tokens = tokenizeAll("<p>1 &lt; 2</p>");
  EXPECT_EQ(tokens[1].text, "1 < 2");
}

// --- parser -------------------------------------------------------------------

TEST(Parser, WrapsBareContentInSkeleton) {
  auto document = parseHtml("<p>hi</p>");
  EXPECT_EQ(structureSignature(*document), "html(head,body(p))");
}

TEST(Parser, EmptyInputStillProducesSkeleton) {
  auto document = parseHtml("");
  EXPECT_EQ(structureSignature(*document), "html(head,body)");
}

TEST(Parser, FullDocumentStructure) {
  auto document = parseHtml(
      "<!DOCTYPE html><html><head><title>t</title></head>"
      "<body><div><p>x</p></div></body></html>");
  EXPECT_EQ(structureSignature(*document),
            "html(head(title),body(div(p)))");
}

TEST(Parser, HeadContentGoesToHead) {
  auto document = parseHtml(
      "<meta charset=utf-8><link rel=stylesheet href=a.css><p>x</p>");
  EXPECT_EQ(structureSignature(*document),
            "html(head(meta,link),body(p))");
}

TEST(Parser, ScriptBeforeBodyStaysInHead) {
  auto document = parseHtml("<script>x()</script><p>y</p>");
  EXPECT_EQ(structureSignature(*document),
            "html(head(script),body(p))");
}

TEST(Parser, UnclosedParagraphsAutoClose) {
  auto document = parseHtml("<body><p>one<p>two<div>three</div>");
  EXPECT_EQ(structureSignature(*document),
            "html(head,body(p,p,div))");
}

TEST(Parser, ListItemsAutoClose) {
  auto document = parseHtml("<ul><li>a<li>b<li>c</ul>");
  EXPECT_EQ(structureSignature(*document),
            "html(head,body(ul(li,li,li)))");
}

TEST(Parser, TableCellsAutoClose) {
  auto document =
      parseHtml("<table><tr><td>a<td>b<tr><td>c</table>");
  EXPECT_EQ(structureSignature(*document),
            "html(head,body(table(tr(td,td),tr(td))))");
}

TEST(Parser, DefinitionTermsAutoClose) {
  auto document = parseHtml("<dl><dt>t<dd>d<dt>t2</dl>");
  EXPECT_EQ(structureSignature(*document),
            "html(head,body(dl(dt,dd,dt)))");
}

TEST(Parser, VoidElementsTakeNoChildren) {
  auto document = parseHtml("<body><br><img src=x><p>after</p>");
  EXPECT_EQ(structureSignature(*document),
            "html(head,body(br,img,p))");
}

TEST(Parser, StrayEndTagIgnored) {
  auto document = parseHtml("<body><div>x</span></div>");
  EXPECT_EQ(structureSignature(*document), "html(head,body(div))");
}

TEST(Parser, MisnestedEndTagClosesToMatch) {
  // </div> closes the span implicitly.
  auto document = parseHtml("<div><span>x</div><p>y</p>");
  EXPECT_EQ(structureSignature(*document),
            "html(head,body(div(span),p))");
}

TEST(Parser, CommentsPreserved) {
  auto document = parseHtml("<body><!-- note --><p>x</p>");
  const dom::Node* body = document->findFirst("body");
  ASSERT_NE(body, nullptr);
  ASSERT_GE(body->childCount(), 2u);
  EXPECT_TRUE(body->child(0).isComment());
}

TEST(Parser, InterElementWhitespaceDropped) {
  auto document = parseHtml("<div>\n  <p>x</p>\n  </div>");
  const dom::Node* div = document->findFirst("div");
  ASSERT_NE(div, nullptr);
  EXPECT_EQ(div->childCount(), 1u);
}

TEST(Parser, WhitespaceKeptInsidePre) {
  auto document = parseHtml("<pre>  keep\n  this  </pre>");
  const dom::Node* pre = document->findFirst("pre");
  ASSERT_NE(pre, nullptr);
  ASSERT_EQ(pre->childCount(), 1u);
  EXPECT_EQ(pre->child(0).value(), "  keep\n  this  ");
}

TEST(Parser, OptionDropdownAutoCloses) {
  auto document =
      parseHtml("<select><option>a<option>b</select>");
  EXPECT_EQ(structureSignature(*document),
            "html(head,body(select(option,option)))");
}

TEST(Parser, TextBeforeAnyTagForcesBody) {
  auto document = parseHtml("hello <b>world</b>");
  const dom::Node* body = document->findFirst("body");
  ASSERT_NE(body, nullptr);
  EXPECT_TRUE(body->child(0).isText());
}

TEST(Parser, DuplicateHtmlTagMergesAttributes) {
  auto document = parseHtml("<html lang=en><html lang=fr dir=ltr><body>");
  const dom::Node* html = document->findFirst("html");
  ASSERT_NE(html, nullptr);
  EXPECT_EQ(html->attribute("lang").value_or(""), "en");   // first wins
  EXPECT_EQ(html->attribute("dir").value_or(""), "ltr");   // new ones added
}

TEST(Parser, ConsecutiveTextChunksMerge) {
  // The tokenizer may split text at entity boundaries; the DOM gets one node.
  auto document = parseHtml("<p>a&amp;b</p>");
  const dom::Node* p = document->findFirst("p");
  ASSERT_NE(p, nullptr);
  ASSERT_EQ(p->childCount(), 1u);
  EXPECT_EQ(p->child(0).value(), "a&b");
}

TEST(Parser, DeterministicOnMalformedInput) {
  const std::string malformed =
      "<div><p>a<div><span>b</p></div><table><td>x</div>";
  const std::string first = dom::toDebugString(*parseHtml(malformed));
  const std::string second = dom::toDebugString(*parseHtml(malformed));
  EXPECT_EQ(first, second);
}

TEST(Parser, ReparseSerializedTreeIsStable) {
  const std::string input =
      "<!DOCTYPE html><body><div id=a>text<p>para<ul><li>x<li>y</ul>"
      "<!--c--><script>s<t()</script>";
  auto once = parseHtml(input);
  auto twice = parseHtml(toHtml(*once));
  EXPECT_EQ(dom::toDebugString(*once), dom::toDebugString(*twice));
}

TEST(Parser, IsVoidElement) {
  EXPECT_TRUE(isVoidElement("br"));
  EXPECT_TRUE(isVoidElement("meta"));
  EXPECT_FALSE(isVoidElement("div"));
}

}  // namespace
}  // namespace cookiepicker::html
