// Unit tests for the synthetic-web building blocks: word generation, HTML
// fragments, render-context plumbing, lifetime distribution, and behavior
// ordering inside WebSite.
#include <gtest/gtest.h>

#include <cctype>
#include <set>

#include "dom/select.h"
#include "dom/serialize.h"
#include "html/parser.h"
#include "server/fragments.h"
#include "server/generator.h"
#include "server/site.h"
#include "server/words.h"
#include "util/strings.h"

namespace cookiepicker::server {
namespace {

// The word generators append; these return what one call appends.
std::string randomWord(util::Pcg32& rng) {
  std::string out;
  appendWord(out, rng);
  return out;
}
std::string randomPhrase(util::Pcg32& rng, int count, bool sentence = false) {
  std::string out;
  appendPhrase(out, rng, count, sentence);
  return out;
}
std::string randomParagraph(util::Pcg32& rng, int sentences) {
  std::string out;
  appendParagraph(out, rng, sentences);
  return out;
}
std::string randomTitle(util::Pcg32& rng) {
  std::string out;
  appendTitle(out, rng);
  return out;
}
std::string randomAdCopy(util::Pcg32& rng) {
  std::string out;
  appendAdCopy(out, rng);
  return out;
}

// --- words -----------------------------------------------------------------

TEST(Words, Deterministic) {
  util::Pcg32 a(5, 1);
  util::Pcg32 b(5, 1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(randomWord(a), randomWord(b));
  }
}

TEST(Words, PhraseHasRequestedWordCount) {
  util::Pcg32 rng(5, 1);
  const std::string phrase = randomPhrase(rng, 4);
  EXPECT_EQ(util::splitWhitespace(phrase).size(), 4u);
  EXPECT_TRUE(std::isupper(static_cast<unsigned char>(phrase[0])));
}

TEST(Words, SentenceEndsWithPeriod) {
  util::Pcg32 rng(5, 1);
  const std::string sentence = randomPhrase(rng, 3, /*sentence=*/true);
  EXPECT_EQ(sentence.back(), '.');
}

TEST(Words, ParagraphHasSentences) {
  util::Pcg32 rng(5, 1);
  const std::string paragraph = randomParagraph(rng, 3);
  int periods = 0;
  for (const char ch : paragraph) {
    if (ch == '.') ++periods;
  }
  EXPECT_EQ(periods, 3);
}

TEST(Words, TitleIsTitleCase) {
  util::Pcg32 rng(9, 1);
  const std::string title = randomTitle(rng);
  for (const std::string& word : util::splitWhitespace(title)) {
    EXPECT_TRUE(std::isupper(static_cast<unsigned char>(word[0]))) << title;
  }
}

TEST(Words, AdCopyLooksLikeAdCopy) {
  util::Pcg32 rng(11, 1);
  const std::string copy = randomAdCopy(rng);
  EXPECT_NE(copy.find("SAVE "), std::string::npos);
  EXPECT_NE(copy.find('%'), std::string::npos);
}

// --- fragments --------------------------------------------------------------

// Parses one emitted fragment back into a detached tree.
std::unique_ptr<dom::Node> parseFragment(const std::string& html) {
  const auto document = html::parseHtml(html);
  const dom::Node* body = document->findFirst("body");
  return body->child(0).clone();
}

std::unique_ptr<dom::Node> makeContentSection(util::Pcg32& rng,
                                              int paragraphs, int adSlots,
                                              bool rotatingHeadline) {
  Block block;
  appendContentSection(block, rng, paragraphs, adSlots, rotatingHeadline);
  std::string html;
  emitBlock(html, block, nullptr);
  return parseFragment(html);
}

std::unique_ptr<dom::Node> makeSidebar(util::Pcg32& rng,
                                       std::string_view title, int items) {
  std::string html;
  appendSidebar(html, rng, title, items);
  return parseFragment(html);
}

std::unique_ptr<dom::Node> makeResultList(util::Pcg32& rng, int count) {
  std::string html;
  appendResultList(html, rng, count);
  return parseFragment(html);
}

std::unique_ptr<dom::Node> makeSignUpForm(util::Pcg32& rng) {
  std::string html;
  appendSignUpForm(html, rng);
  return parseFragment(html);
}

std::unique_ptr<dom::Node> makePromoBlock(util::Pcg32& rng, int variant) {
  std::string html;
  appendPromoBlock(html, rng, variant);
  return parseFragment(html);
}

TEST(Fragments, ContentSectionShape) {
  util::Pcg32 rng(3, 1);
  auto section = makeContentSection(rng, /*paragraphs=*/2, /*adSlots=*/2,
                                    /*rotatingHeadline=*/true);
  EXPECT_EQ(section->name(), "section");
  EXPECT_EQ(dom::select(*section, "h2").size(), 1u);
  EXPECT_EQ(dom::select(*section, "h3.rotating-headline").size(), 1u);
  EXPECT_EQ(dom::select(*section, "p").size(), 2u);
  EXPECT_EQ(dom::select(*section, "div.inner > div.adslot").size(), 2u);
  // Ad slots start empty (noise behaviors fill them per fetch).
  for (const dom::Node* slot : dom::select(*section, ".adslot")) {
    EXPECT_EQ(slot->childCount(), 0u);
  }
}

TEST(Fragments, AdSlotDepthIsBelowDefaultLevelCut) {
  // The slot must sit deeper than RSTM's l=5 window when mounted at the
  // standard body>div#page>main chain (design decision 1).
  util::Pcg32 rng(3, 1);
  auto section = makeContentSection(rng, 1, 1, false);
  // Depth of adslot inside the section subtree:
  const dom::Node* slot = dom::selectFirst(*section, ".adslot");
  ASSERT_NE(slot, nullptr);
  int depth = 0;
  for (const dom::Node* node = slot; node != section.get();
       node = node->parent()) {
    ++depth;
  }
  // section(+3 from body) + depth >= 6 → below the l=5 cut.
  EXPECT_GE(depth + 3, 6);
}

TEST(Fragments, SidebarAndResultListShapes) {
  util::Pcg32 rng(4, 1);
  auto sidebar = makeSidebar(rng, "Topics", 5);
  EXPECT_EQ(dom::select(*sidebar, "ul > li").size(), 5u);
  EXPECT_NE(sidebar->textContent().find("Topics"), std::string::npos);

  auto results = makeResultList(rng, 7);
  EXPECT_EQ(dom::select(*results, "ol > li").size(), 7u);
}

TEST(Fragments, SignUpFormHasFields) {
  util::Pcg32 rng(6, 1);
  auto form = makeSignUpForm(rng);
  EXPECT_EQ(dom::select(*form, "input[name=username]").size(), 1u);
  EXPECT_EQ(dom::select(*form, "input[type=password]").size(), 1u);
  EXPECT_EQ(dom::select(*form, "input[type=submit]").size(), 1u);
  EXPECT_NE(form->textContent().find("Create your account"),
            std::string::npos);
}

TEST(Fragments, PromoVariantsStructurallyDistinct) {
  util::Pcg32 rng(8, 1);
  auto variant0 = makePromoBlock(rng, 0);
  auto variant1 = makePromoBlock(rng, 1);
  auto variant2 = makePromoBlock(rng, 2);
  EXPECT_NE(dom::structureSignature(*variant0),
            dom::structureSignature(*variant1));
  EXPECT_NE(dom::structureSignature(*variant1),
            dom::structureSignature(*variant2));
  // None of them carries an ad-filter-triggering class.
  for (const auto* promo : {variant0.get(), variant1.get(), variant2.get()}) {
    EXPECT_EQ(promo->attribute("class").value_or("").find("promo"),
              std::string::npos);
  }
}

// --- lifetimes ----------------------------------------------------------------

TEST(TrackerLifetimes, DeterministicPerSeedAndIndex) {
  EXPECT_EQ(trackerLifetimeSeconds(5, 0), trackerLifetimeSeconds(5, 0));
  // Different indices usually differ (bucketed distribution).
  std::set<std::int64_t> values;
  for (int i = 0; i < 14; ++i) values.insert(trackerLifetimeSeconds(5, i));
  EXPECT_GT(values.size(), 3u);
}

TEST(TrackerLifetimes, MajorityLiveAYearOrMore) {
  int total = 0;
  int yearPlus = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    for (int index = 0; index < 5; ++index) {
      ++total;
      if (trackerLifetimeSeconds(seed, index) >= 365LL * 86400) ++yearPlus;
    }
  }
  EXPECT_GT(static_cast<double>(yearPlus) / total, 0.6);
}

// --- WebSite internals -----------------------------------------------------------

TEST(WebSiteInternals, BehaviorsRunInRegistrationOrder) {
  util::SimClock clock;
  SiteConfig config;
  config.domain = "order.example";
  config.title = "Order";
  config.category = "games";
  config.seed = 12;
  WebSite site(config, clock);

  struct Stamper : SiteBehavior {
    explicit Stamper(std::string tag) : tag_(std::move(tag)) {}
    void render(const RenderContext&, Page& page) override {
      Block marker;
      marker.html = "<span class=\"stamp-" + tag_ + "\"></span>";
      page.tail.push_back(std::move(marker));
    }
    std::string tag_;
  };
  site.addBehavior(std::make_unique<Stamper>("first"));
  site.addBehavior(std::make_unique<Stamper>("second"));

  net::HttpRequest request;
  request.url = *net::Url::parse("http://order.example/");
  auto document = html::parseHtml(site.handle(request).body);
  const dom::Node* body = document->findFirst("body");
  ASSERT_NE(body, nullptr);
  ASSERT_GE(body->childCount(), 2u);
  EXPECT_EQ(body->child(body->childCount() - 2)
                .attribute("class")
                .value_or(""),
            "stamp-first");
  EXPECT_EQ(body->child(body->childCount() - 1)
                .attribute("class")
                .value_or(""),
            "stamp-second");
}

TEST(WebSiteInternals, FetchCounterAdvances) {
  util::SimClock clock;
  SiteConfig config;
  config.domain = "count.example";
  config.title = "Count";
  config.category = "games";
  config.seed = 13;
  WebSite site(config, clock);
  net::HttpRequest request;
  request.url = *net::Url::parse("http://count.example/");
  site.handle(request);
  site.handle(request);
  EXPECT_EQ(site.fetchCount(), 2u);
}

TEST(WebSiteInternals, PixelImagesMatchConfiguredTrackerCount) {
  util::SimClock clock;
  SiteConfig config;
  config.domain = "px.example";
  config.title = "Px";
  config.category = "news";
  config.seed = 14;
  config.pixelTrackers = 3;
  WebSite site(config, clock);
  net::HttpRequest request;
  request.url = *net::Url::parse("http://px.example/");
  auto document = html::parseHtml(site.handle(request).body);
  EXPECT_EQ(dom::select(*document, "img[width=1]").size(), 3u);
}

TEST(WebSiteInternals, HeadHasStylesheetAndScript) {
  util::SimClock clock;
  SiteConfig config;
  config.domain = "head.example";
  config.title = "Head";
  config.category = "arts";
  config.seed = 15;
  WebSite site(config, clock);
  net::HttpRequest request;
  request.url = *net::Url::parse("http://head.example/");
  auto document = html::parseHtml(site.handle(request).body);
  EXPECT_EQ(dom::select(*document, "head > link[rel=stylesheet]").size(),
            1u);
  EXPECT_EQ(dom::select(*document, "head > script[src]").size(), 1u);
  EXPECT_NE(document->findFirst("title"), nullptr);
}

}  // namespace
}  // namespace cookiepicker::server
