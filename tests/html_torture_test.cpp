// Adversarial inputs for the HTML pipeline. The paper's step three only
// works if malformed pages are normalized identically on the regular and
// hidden paths, which makes the parser's *totality* and *determinism* the
// properties that matter more than spec-exact trees.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "dom/serialize.h"
#include "dom/snapshot.h"
#include "html/entities.h"
#include "html/parser.h"
#include "html/stream_snapshot.h"
#include "snapshot_compare.h"
#include "token_support.h"
#include "util/strings.h"
#include "util/text_hash.h"

namespace cookiepicker::html {
namespace {

using dom::structureSignature;
using dom::toDebugString;

std::string parseSignature(const std::string& input) {
  return structureSignature(*parseHtml(input));
}

// --- tag soup --------------------------------------------------------------

TEST(Torture, UnclosedEverything) {
  EXPECT_EQ(parseSignature("<div><span><b><i>deep"),
            "html(head,body(div(span(b(i)))))");
}

TEST(Torture, OnlyEndTags) {
  EXPECT_EQ(parseSignature("</div></p></body></html></table>"),
            "html(head,body)");
}

TEST(Torture, InterleavedTags) {
  // <b><i></b></i> — the classic misnesting; our parser closes i with b.
  EXPECT_EQ(parseSignature("<p><b><i>x</b>y</i></p>"),
            "html(head,body(p(b(i))))");
}

TEST(Torture, TagInsideAttributeValue) {
  const auto signature =
      parseSignature("<div title=\"<p>not a tag</p>\">x</div>");
  EXPECT_EQ(signature, "html(head,body(div))");
}

TEST(Torture, UnterminatedAttributeQuote) {
  // The quote swallows the rest of the input; parser must not hang or
  // crash, and must produce something deterministic.
  const std::string input = "<div class=\"oops><p>text</p>";
  EXPECT_EQ(toDebugString(*parseHtml(input)),
            toDebugString(*parseHtml(input)));
}

TEST(Torture, NullLikeAndControlCharacters) {
  std::string input = "<p>a";
  input.push_back('\x01');
  input += "b</p>";
  const auto document = parseHtml(input);
  EXPECT_NE(document->findFirst("p"), nullptr);
}

TEST(Torture, AbsurdNestingDepth) {
  std::string input;
  for (int i = 0; i < 200; ++i) input += "<div>";
  input += "bottom";
  const auto document = parseHtml(input);
  EXPECT_EQ(document->findAll("div").size(), 200u);
  // textContent at the bottom of the pit.
  EXPECT_NE(document->textContent().find("bottom"), std::string::npos);
}

TEST(Torture, ManySiblings) {
  std::string input = "<ul>";
  for (int i = 0; i < 500; ++i) input += "<li>x";
  input += "</ul>";
  const auto document = parseHtml(input);
  EXPECT_EQ(document->findAll("li").size(), 500u);
  const dom::Node* list = document->findFirst("ul");
  ASSERT_NE(list, nullptr);
  EXPECT_EQ(list->childCount(), 500u);  // all li are siblings, not nested
}

TEST(Torture, TableSoup) {
  // Rows and cells with no table context rules beyond auto-closing.
  EXPECT_EQ(parseSignature("<table><td>a<tr><td>b<td>c</table>"),
            "html(head,body(table(td,tr(td,td))))");
}

TEST(Torture, HeadAfterBodyContentIgnoredStructurally) {
  const auto signature = parseSignature("<p>x</p><head><title>t</title>");
  // The late <head> tag cannot rewind; title lands in body (lenient), but
  // structure stays deterministic.
  EXPECT_EQ(parseSignature("<p>x</p><head><title>t</title>"), signature);
}

TEST(Torture, SelfClosingNonVoidElement) {
  // "<div/>" — HTML treats the slash as noise... our tokenizer honours the
  // self-closing flag, so the div takes no children. Either behaviour is
  // fine as long as it is stable; pin it.
  EXPECT_EQ(parseSignature("<div/><p>x</p>"), "html(head,body(div,p))");
}

TEST(Torture, CommentContainingTags) {
  const auto document = parseHtml("<!-- <p>ghost</p> --><div>real</div>");
  EXPECT_EQ(document->findAll("p").size(), 0u);
  EXPECT_EQ(document->findAll("div").size(), 1u);
}

TEST(Torture, ConditionalCommentStyleInput) {
  const auto document =
      parseHtml("<!--[if IE]><p>ie only</p><![endif]--><div>x</div>");
  EXPECT_EQ(document->findAll("p").size(), 0u);
}

TEST(Torture, ScriptContainingFakeEndTags) {
  const auto document = parseHtml(
      "<script>var s = \"</div></body>\"; if (1 </scr + ipt>2) {}</script>"
      "<p>after</p>");
  // The first "</scr" does not terminate the script (only "</script" does);
  // ensure the paragraph still exists and nothing crashed.
  EXPECT_EQ(document->findAll("p").size(), 1u);
}

TEST(Torture, StyleWithBracesAndSelectors) {
  const auto document = parseHtml(
      "<style>div > p::before { content: \"<li>\"; }</style><div><p>x</p>"
      "</div>");
  EXPECT_EQ(document->findAll("li").size(), 0u);
  const dom::Node* style = document->findFirst("style");
  ASSERT_NE(style, nullptr);
  EXPECT_NE(style->textContent().find("content"), std::string::npos);
}

TEST(Torture, EntitiesEverywhere) {
  const auto document = parseHtml(
      "<p title=\"&lt;&amp;&gt;\">&amp;&#65;&bogus;&\n</p>");
  const dom::Node* paragraph = document->findFirst("p");
  ASSERT_NE(paragraph, nullptr);
  EXPECT_EQ(paragraph->attribute("title").value_or(""), "<&>");
  EXPECT_NE(paragraph->textContent().find("&A&bogus;"), std::string::npos);
}

TEST(Torture, VeryLongAttributeValue) {
  const std::string longValue(100'000, 'x');
  const auto document =
      parseHtml("<div data-blob=\"" + longValue + "\">y</div>");
  const dom::Node* div = document->findFirst("div");
  ASSERT_NE(div, nullptr);
  EXPECT_EQ(div->attribute("data-blob").value_or("").size(), 100'000u);
}

TEST(Torture, EmptyTagName) {
  // "< >" and "<>" are text, "</>" is a stray end tag.
  const auto document = parseHtml("a <> b </> c < > d");
  EXPECT_NE(document->textContent().find("a <> b"), std::string::npos);
}

// Determinism sweep over deliberately broken fragments.
class BrokenFragment : public ::testing::TestWithParam<const char*> {};

TEST_P(BrokenFragment, ParsesDeterministicallyAndSerializesStably) {
  const std::string input = GetParam();
  const auto first = parseHtml(input);
  const auto second = parseHtml(input);
  EXPECT_EQ(toDebugString(*first), toDebugString(*second));
  // serialize → reparse → serialize is a fixpoint.
  const std::string once = dom::toHtml(*first);
  const std::string twice = dom::toHtml(*parseHtml(once));
  EXPECT_EQ(once, twice) << input;
}

INSTANTIATE_TEST_SUITE_P(
    Fragments, BrokenFragment,
    ::testing::Values(
        "<div", "</", "<!", "<!-", "<!--", "<p class=", "<p class='",
        "<a href=\"x", "text<", "<<<<", "<p><p><p>", "</p></p>",
        "<table><table><table>", "<select><option><select>",
        "<script>", "<style>unclosed", "<title>t", "<textarea><p>x",
        "<li><li></ul><li>", "<b><p></b></p>", "&#;", "&#x;", "a&b;c",
        "<img src=x<p>", "<div =\"x\">", "<div ==>", "<DIV CLASS=UPPER>"));

// --- hostile corpus, both pipelines ----------------------------------------
//
// Corpus format: each entry is {label, payload}. The label names the attack
// class and shows up in failure messages; the payload is fed VERBATIM to
// both producers — the reference pipeline (parseHtml → dom::flattenTree →
// collectPageInfo) and the streaming pipeline (StreamingSnapshotBuilder) —
// which must (a) not crash, hang, or trip a sanitizer, and (b) produce
// byte-identical snapshots and page info. Entries that need runtime
// construction (null bytes, megabyte payloads, generated nesting) are built
// in hostileCorpus() below, and the scan-only page-info pass must agree too.
// Keep one entry per distinct hostile *shape* rather than piling on
// variants — the differential fuzz suite (snapshot_differential_test.cpp)
// covers random variation.
struct HostileDoc {
  std::string label;
  std::string payload;
};

std::vector<HostileDoc> hostileCorpus() {
  std::vector<HostileDoc> corpus;
  // Unclosed / misnested tags.
  corpus.push_back({"unclosed-cascade", "<div><span><b><i><table><tr><td>x"});
  corpus.push_back({"misnested-inline", "<b><i><u>x</b>y</i>z</u>"});
  corpus.push_back(
      {"close-wrong-order", "<div><p><ul><li>a</div></ul></p></li>"});
  corpus.push_back({"head-left-open", "<title>never closed<p>body?"});
  // Null bytes mid-token: inside text, a tag name, and an attribute value.
  {
    std::string nullText = "<p>a";
    nullText.push_back('\0');
    nullText += "b</p>";
    corpus.push_back({"null-in-text", nullText});
    std::string nullTag = "<di";
    nullTag.push_back('\0');
    nullTag += "v>x</div>";
    corpus.push_back({"null-in-tag-name", nullTag});
    std::string nullAttr = "<div class=\"a";
    nullAttr.push_back('\0');
    nullAttr += "b\">x</div>";
    corpus.push_back({"null-in-attribute", nullAttr});
  }
  // Megabyte attribute value (exercises the quoted-value memchr scan and
  // entity bulk copy on a single token).
  {
    std::string big(1 << 20, 'x');
    big[big.size() / 2] = '&';  // one entity candidate in the middle
    corpus.push_back(
        {"megabyte-attribute", "<div data-blob=\"" + big + "\">y</div>"});
  }
  // Pathological entity runs: thousands of adjacent candidates, complete,
  // bogus, and cut off at the end of input.
  {
    std::string entities = "<p>";
    for (int i = 0; i < 4000; ++i) entities += "&amp;&bogus;&#6";
    corpus.push_back({"entity-run", entities});
  }
  // Comment / CDATA-ish edge forms.
  corpus.push_back({"comment-unclosed", "<div><!-- never closed <p>x"});
  corpus.push_back({"comment-dashes", "<!-- a -- b --- c --><p>x</p>"});
  corpus.push_back({"comment-instant-close", "<!--><p>x</p>"});
  corpus.push_back({"cdata-form", "<![CDATA[ <p>not parsed</p> ]]><div>x"});
  corpus.push_back({"processing-instruction", "<?php echo '<p>'; ?><div>x"});
  corpus.push_back({"doctype-junk", "<!DOCTYPE html PUBLIC \"-//junk<p>\">x"});
  // Deeply nested tables (the optional-end-tag mask under depth stress).
  {
    std::string tables;
    for (int i = 0; i < 64; ++i) tables += "<table><tr><td>";
    tables += "bottom";
    corpus.push_back({"nested-tables", tables});
  }
  // Raw-text end-tag confusion at EOF.
  corpus.push_back({"script-eof-teaser", "<script>if (a </scrip"});
  corpus.push_back({"textarea-markup", "<textarea><div>&amp;</textarea><p>x"});
  // Structural tags repeated with conflicting attributes.
  corpus.push_back({"duplicate-structurals",
                    "<html class=a><body id=b><html class=c><body id=d>x"});
  // Whitespace-only soup around the skeleton.
  corpus.push_back({"whitespace-soup", "  \n\t  <html>  \f  <body>  \r\n "});
  return corpus;
}

// Byte-equality of the two producers over one payload.
void expectPipelinesAgree(const HostileDoc& doc) {
  SCOPED_TRACE(doc.label);
  const auto document = parseHtml(doc.payload);
  const dom::TreeSnapshot reference = dom::flattenTree(*document);
  const StreamPageInfo referencePage = collectPageInfo(*document);
  const StreamParseResult streamed = buildSnapshotStreaming(doc.payload);
  ASSERT_NE(streamed.snapshot, nullptr);
  testsupport::expectSnapshotsIdentical(reference, *streamed.snapshot);
  EXPECT_EQ(referencePage.baseHref, streamed.page.baseHref);
  EXPECT_EQ(referencePage.subresourceRefs, streamed.page.subresourceRefs);
  StreamingSnapshotBuilder builder;
  const StreamPageInfo scanned = builder.scanPageInfo(doc.payload);
  EXPECT_EQ(referencePage.baseHref, scanned.baseHref);
  EXPECT_EQ(referencePage.subresourceRefs, scanned.subresourceRefs);
}

// --- view tokenizer special cases --------------------------------------------
//
// Tokens are views into the input, or into tokenizer scratch that the next
// token overwrites. These inputs put each scratch path (lowered names,
// decoded text, decoded attribute values) next to each merge path, and
// check the bytes against literal expectations as well as the two
// producers against each other.

// The collapsed content of every streaming text row, rebuilt from the
// reference tree, must hash to what the streaming builder stored.
std::vector<std::string> textRows(const std::string& html) {
  std::vector<std::string> texts;
  const auto document = parseHtml(html);
  dom::preorder(*document, [&](const dom::Node& node, std::size_t) {
    if (node.isText()) texts.push_back(dom::collapseWhitespace(node.value()));
    return true;
  });
  return texts;
}

void expectSingleText(const std::string& html, const std::string& expected) {
  SCOPED_TRACE(html);
  expectPipelinesAgree({html, html});
  EXPECT_EQ(textRows(html), std::vector<std::string>{expected});
  const StreamParseResult streamed = buildSnapshotStreaming(html);
  const dom::TreeSnapshot& snapshot = *streamed.snapshot;
  int textRowsSeen = 0;
  for (std::uint32_t i = 0; i < snapshot.nodeCount(); ++i) {
    if (!snapshot.isText(i)) continue;
    ++textRowsSeen;
    EXPECT_EQ(snapshot.textHash(i), util::textHash64(expected));
  }
  EXPECT_EQ(textRowsSeen, 1);
}

TEST(Torture, ViewTokensLowerUppercaseNames) {
  const std::string html =
      "<DIV ID=\"Main\" CLASS=\"Top-AD\"><IMG SRC=\"/Up.png\" ALT=x>"
      "</DIV>";
  const auto tokens = tokenizeAll(html);
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].name, "div");
  ASSERT_EQ(tokens[0].attributes.size(), 2u);
  EXPECT_EQ(tokens[0].attributes[0].name, "id");
  EXPECT_EQ(tokens[0].attributes[0].value, "Main");
  EXPECT_EQ(tokens[0].attributes[1].name, "class");
  EXPECT_EQ(tokens[0].attributes[1].value, "Top-AD");
  EXPECT_EQ(tokens[1].name, "img");
  EXPECT_EQ(tokens[1].attributes[0].name, "src");
  EXPECT_EQ(tokens[2].type, TokenType::EndTag);
  EXPECT_EQ(tokens[2].name, "div");
  expectPipelinesAgree({"uppercase", html});
  const StreamParseResult streamed = buildSnapshotStreaming(html);
  EXPECT_EQ(streamed.page.subresourceRefs, std::vector<std::string>{"/Up.png"});
  bool sawAdDiv = false;
  for (std::uint32_t i = 0; i < streamed.snapshot->nodeCount(); ++i) {
    sawAdDiv = sawAdDiv || streamed.snapshot->isAdContainer(i);
  }
  EXPECT_TRUE(sawAdDiv);
  // Case-folded duplicates: the first occurrence wins, whatever its case.
  const auto duplicate = tokenizeAll("<a ID=one id=two Id=three>");
  ASSERT_EQ(duplicate[0].attributes.size(), 1u);
  EXPECT_EQ(duplicate[0].attributes[0].name, "id");
  EXPECT_EQ(duplicate[0].attributes[0].value, "one");
}

TEST(Torture, ViewTokensUppercaseRawTextClosers) {
  const auto script =
      tokenizeAll("<SCRIPT>var s = \"</p>\";</SCRIPT><p>after</p>");
  ASSERT_EQ(script.size(), 6u);
  EXPECT_EQ(script[0].name, "script");
  EXPECT_EQ(script[1].type, TokenType::Text);
  EXPECT_EQ(script[1].text, "var s = \"</p>\";");
  EXPECT_TRUE(script[1].textInInput);
  EXPECT_EQ(script[2].type, TokenType::EndTag);
  EXPECT_EQ(script[2].name, "script");
  EXPECT_EQ(script[4].text, "after");
  const auto title = tokenizeAll("<Title>A &amp; B</TITLE><Textarea>x &lt; "
                                 "y</TextArea><STYLE>a&amp;b</sTyLe>");
  ASSERT_EQ(title.size(), 9u);
  EXPECT_EQ(title[1].text, "A & B");
  EXPECT_FALSE(title[1].textInInput);
  EXPECT_EQ(title[4].text, "x < y");
  EXPECT_EQ(title[7].text, "a&amp;b");  // style content is never decoded
  for (const char* html :
       {"<SCRIPT>var s = \"</p>\";</SCRIPT><p>after</p>",
        "<Title>A &amp; B</TITLE><p>x", "<TEXTAREA>a</textarea>b",
        "<script>x</SCRIPT", "<STYLE>p{}</STYLE ><p>y"}) {
    expectPipelinesAgree({html, html});
  }
}

TEST(Torture, ViewTokensMergeDecodedTextAcrossBoundaries) {
  // Decoded, stray end tag, decoded: both halves lived in the same scratch.
  expectSingleText("<p>a &amp; b</x>c &lt; d</p>", "a & bc < d");
  // A lone '<' splits the run into two decoded tokens.
  expectSingleText("<p>x &amp; y < z &gt; w</p>", "x & y < z > w");
  // Source view first, decoded second, and the reverse.
  expectSingleText("<p>plain</i> then &amp; more</p>", "plain then & more");
  expectSingleText("<p>&lt;b&gt;</b> tail</p>", "<b> tail");
  // Three tokens, whitespace collapsed across the joins.
  expectSingleText("<p>  one &amp;</q>  two </r> &#51;  </p>", "one & two 3");
}

TEST(Torture, ViewTokensDecodeAttributeValues) {
  // Several decoded values and a lowered name in one tag: every view must
  // point at its own bytes once the tag's scratch stops growing.
  const auto tokens = tokenizeAll(
      "<img SRC=\"/x&amp;1\" Class=\"b&amp;c\" alt=\"&lt;\" Data-Q='&gt;' "
      "src=\"dup\">");
  ASSERT_EQ(tokens.size(), 1u);
  const auto& attributes = tokens[0].attributes;
  ASSERT_EQ(attributes.size(), 4u);
  EXPECT_EQ(attributes[0].name, "src");
  EXPECT_EQ(attributes[0].value, "/x&1");
  EXPECT_EQ(attributes[1].name, "class");
  EXPECT_EQ(attributes[1].value, "b&c");
  EXPECT_EQ(attributes[2].value, "<");
  EXPECT_EQ(attributes[3].name, "data-q");
  EXPECT_EQ(attributes[3].value, ">");

  const std::string page =
      "<head><base href=\"/b&#47;\"><link rel=\"style&#115;heet\" "
      "href=\"/s.css?a&amp;b\"></head><body><div class=\"ad&#32;slot\">x"
      "</div><img src=\"/a.png?x=1&amp;y=2\"><script "
      "src=\"/j.js?&lt;\"></script></body>";
  expectPipelinesAgree({"decoded-attributes", page});
  const StreamParseResult streamed = buildSnapshotStreaming(page);
  EXPECT_EQ(streamed.page.baseHref, "/b/");
  EXPECT_EQ(streamed.page.subresourceRefs,
            (std::vector<std::string>{"/s.css?a&b", "/a.png?x=1&y=2",
                                      "/j.js?<"}));
  // "ad&#32;slot" only reads as an ad marker once decoded to "ad slot".
  bool sawAdDiv = false;
  for (std::uint32_t i = 0; i < streamed.snapshot->nodeCount(); ++i) {
    sawAdDiv = sawAdDiv || streamed.snapshot->isAdContainer(i);
  }
  EXPECT_TRUE(sawAdDiv);
}

TEST(Torture, ViewTokensCommentsAndDoctypesAtEndOfInput) {
  const struct {
    const char* html;
    TokenType last;
    const char* lastText;
  } cases[] = {
      {"<p>x</p><!-- tail", TokenType::Comment, " tail"},
      {"<p>x</p><!--", TokenType::Comment, ""},
      {"<p>x<!---->", TokenType::Comment, ""},
      {"<p>x</p><?pi", TokenType::Comment, "pi"},
      {"<p>x</p><!x", TokenType::Comment, "x"},
      {"<p>x</p><!DOCTYP", TokenType::Comment, "DOCTYP"},
      {"<p>x</p><!DOCTYPE", TokenType::Doctype, ""},
      {"<p>x</p><!DOCTYPE ", TokenType::Doctype, ""},
      {"<p>x</p><!doctype HTML", TokenType::Doctype, ""},
      {"<!DOCTYPE HTML", TokenType::Doctype, ""},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.html);
    const auto tokens = tokenizeAll(c.html);
    ASSERT_FALSE(tokens.empty());
    EXPECT_EQ(tokens.back().type, c.last);
    if (c.last == TokenType::Comment) {
      EXPECT_EQ(tokens.back().text, c.lastText);
    } else {
      EXPECT_TRUE(tokens.back().name.empty() || tokens.back().name == "html");
    }
    expectPipelinesAgree({c.html, c.html});
  }
}

TEST(Torture, HostileCorpusBothPipelinesAgree) {
  for (const HostileDoc& doc : hostileCorpus()) {
    expectPipelinesAgree(doc);
    if (::testing::Test::HasFailure()) return;
  }
}

// The broken fragments above, through both pipelines too — the determinism
// sweep doubles as a streaming-equivalence sweep.
TEST_P(BrokenFragment, StreamingSnapshotMatchesReference) {
  expectPipelinesAgree({GetParam(), GetParam()});
}

}  // namespace
}  // namespace cookiepicker::html
