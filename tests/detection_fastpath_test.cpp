// Differential properties of the detection fast path: the snapshot/interned
// implementations of RSTM, CVCE, and the decision algorithm must return
// *bit-identical* results to the dom::Node reference implementations, on
// thousands of seeded random tree pairs rich enough to exercise every noise
// filter and restriction. A failure prints the seed, so any divergence is
// reproducible offline.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/cvce.h"
#include "core/decision.h"
#include "core/node_detection.h"
#include "core/rstm.h"
#include "dom/interner.h"
#include "dom/node.h"
#include "dom/serialize.h"
#include "dom/snapshot.h"
#include "html/parser.h"
#include "util/rng.h"

namespace cookiepicker {
namespace {

using dom::Node;

// --- generators --------------------------------------------------------------

// Tags chosen to hit every snapshot predicate: visible structure, the
// script/style/noscript filter, <option> text, and plain containers.
constexpr const char* kTags[] = {"div",  "p",    "span",   "table", "tr",
                                 "td",   "ul",   "li",     "a",     "b",
                                 "form", "h1",   "select", "option", "script",
                                 "style"};

// Attribute values that straddle the ad-token boundary: some trip the
// class/id heuristic ("ad", "ads banner"), some only look like they might
// ("download", "shadow", "radar").
constexpr const char* kClassValues[] = {"content", "header",   "ad",
                                        "ads banner", "sidebar promo",
                                        "main",    "download", "shadow",
                                        "radar",   "top-ad"};

// Text spanning the CVCE noise rules: plain words, date/time-like strings,
// pure punctuation, whitespace-only, and strings needing collapsing.
constexpr const char* kTexts[] = {
    "breaking news",   "hello world", "2007-01-17", "12:30:05",
    "***",             "   ",         "a  b\t c",   "Weather: sunny",
    "01/17/2007",      "- - -",       "x",          "today 12:30:05 update",
};

std::unique_ptr<Node> richRandomTree(util::Pcg32& rng, int maxDepth,
                                     int maxChildren) {
  auto node = Node::makeElement(kTags[rng.uniform(0, std::size(kTags) - 1)]);
  if (rng.uniform(0, 4) == 0) {
    node->setAttribute(
        rng.uniform(0, 1) == 0 ? "class" : "id",
        kClassValues[rng.uniform(0, std::size(kClassValues) - 1)]);
  }
  if (maxDepth > 0) {
    const int children = static_cast<int>(
        rng.uniform(0, static_cast<std::uint32_t>(maxChildren)));
    for (int i = 0; i < children; ++i) {
      switch (rng.uniform(0, 5)) {
        case 0:
          node->appendChild(Node::makeText(
              kTexts[rng.uniform(0, std::size(kTexts) - 1)]));
          break;
        case 1:
          node->appendChild(Node::makeComment("c"));
          break;
        default:
          node->appendChild(richRandomTree(rng, maxDepth - 1, maxChildren));
          break;
      }
    }
  }
  return node;
}

void collectMutable(Node& node, std::vector<Node*>& out) {
  out.push_back(&node);
  for (std::size_t i = 0; i < node.childCount(); ++i) {
    collectMutable(node.child(i), out);
  }
}

// A handful of random structural/textual edits — the kind of difference a
// stripped cookie (or page dynamics) produces between two copies.
void mutate(Node& root, util::Pcg32& rng) {
  const int edits = 1 + static_cast<int>(rng.uniform(0, 3));
  for (int e = 0; e < edits; ++e) {
    std::vector<Node*> nodes;
    collectMutable(root, nodes);
    Node* victim = nodes[rng.uniform(
        0, static_cast<std::uint32_t>(nodes.size() - 1))];
    switch (rng.uniform(0, 3)) {
      case 0:  // drop a child subtree
        if (victim->childCount() > 0) {
          victim->removeChild(rng.uniform(
              0, static_cast<std::uint32_t>(victim->childCount() - 1)));
        }
        break;
      case 1:  // graft a fresh subtree
        victim->appendChild(richRandomTree(rng, 2, 3));
        break;
      case 2:  // rewrite a text node (same context, new content)
        if (victim->isText()) {
          victim->setValue(kTexts[rng.uniform(0, std::size(kTexts) - 1)]);
        } else {
          victim->appendChild(
              Node::makeText(kTexts[rng.uniform(0, std::size(kTexts) - 1)]));
        }
        break;
      default:  // swap two children
        if (victim->childCount() >= 2) {
          auto first = victim->removeChild(0);
          victim->appendChild(std::move(first));
        }
        break;
    }
  }
}

// HTML-ish soup for the end-to-end parser + decision differential.
std::string randomHtml(util::Pcg32& rng, int tokens) {
  static const char* kPieces[] = {
      "<div>",          "</div>",     "<p>",        "</p>",
      "<span class=ad>", "</span>",   "headline ",  "2007-01-17 ",
      "<br>",           "<option>us</option>", "<ul><li>", "</ul>",
      "<!-- c -->",     "<b>",        "</i>",       "<a href='u'>",
      "</a>",           "12:30:05 ",  "<script>s</script>", "*** ",
      "<table><tr><td>", "</table>",  "more words ", "\n  ",
  };
  std::string html = "<html><body>";
  for (int i = 0; i < tokens; ++i) {
    html += kPieces[rng.uniform(0, std::size(kPieces) - 1)];
  }
  return html;
}

// --- the differential ---------------------------------------------------------

// Every tree-metric comparison the fast path can be asked for, checked for
// exact equality against the reference.
void expectTreeMetricsIdentical(const Node& a, const Node& b,
                                const dom::TreeSnapshot& sa,
                                const dom::TreeSnapshot& sb,
                                core::RstmArena& arena) {
  for (const int level : {1, 3, 5, 8}) {
    EXPECT_EQ(core::restrictedSimpleTreeMatching(a, b, level),
              core::restrictedSimpleTreeMatching(sa, 0, sb, 0, arena, level))
        << "RSTM diverged at level " << level;
    EXPECT_EQ(core::countRestrictedNodes(a, level),
              core::countRestrictedNodes(sa, 0, level))
        << "N(A) diverged at level " << level;
    EXPECT_EQ(core::countRestrictedNodes(b, level),
              core::countRestrictedNodes(sb, 0, level))
        << "N(B) diverged at level " << level;
    // Same integer counts => the double division is bit-identical too.
    EXPECT_EQ(core::nTreeSim(a, b, level),
              core::nTreeSim(sa, 0, sb, 0, arena, level))
        << "NTreeSim diverged at level " << level;
  }
}

void expectTextMetricsIdentical(const Node& a, const Node& b,
                                const dom::TreeSnapshot& sa,
                                const dom::TreeSnapshot& sb,
                                core::CvceScratch& scratch) {
  core::CvceOptions allOff;
  allOff.filterScriptsAndStyles = false;
  allOff.filterAdvertisement = false;
  allOff.filterDateTime = false;
  allOff.filterOptionText = false;
  allOff.filterNonAlphanumeric = false;
  core::CvceOptions noAdNoOption;
  noAdNoOption.filterAdvertisement = false;
  noAdNoOption.filterOptionText = false;
  for (const core::CvceOptions& options :
       {core::CvceOptions{}, allOff, noAdNoOption}) {
    const std::set<std::string> refA = core::extractContextContent(a, options);
    const std::set<std::string> refB = core::extractContextContent(b, options);
    core::CvceFeatureSet fastA;
    core::CvceFeatureSet fastB;
    core::extractContextContentFeatures(sa, 0, options, scratch, fastA);
    core::extractContextContentFeatures(sb, 0, options, scratch, fastB);
    // Interned dedup must agree with string-set dedup exactly: same
    // cardinality means no hash collision merged two distinct strings and
    // no context aliasing split one.
    EXPECT_EQ(refA.size(), fastA.size());
    EXPECT_EQ(refB.size(), fastB.size());
    if (refB.size() != fastB.size()) {
      std::string dump = dom::toDebugString(b) + "\nref strings:\n";
      for (const auto& s : refB) dump += "  [" + s + "]\n";
      dump += "fast features:\n";
      for (const auto& f : fastB) {
        dump += "  ctx=" + std::to_string(f.contextId) +
                " hash=" + std::to_string(f.textHash) + "\n";
      }
      ADD_FAILURE() << dump;
      return;
    }
    for (const bool credit : {true, false}) {
      EXPECT_EQ(core::nTextSim(refA, refB, credit),
                core::nTextSim(fastA, fastB, scratch, credit))
          << "NTextSim diverged (credit=" << credit << ")";
    }
  }
}

class FastPathDifferential : public ::testing::TestWithParam<std::uint64_t> {};

// 100 pairs per seed x 10 seeds = 1000 random tree pairs: half independent
// draws (wildly different trees), half original-vs-mutated (the realistic
// regular-vs-hidden shape, mostly-equal with localized edits).
TEST_P(FastPathDifferential, RandomTreePairsBitIdentical) {
  util::Pcg32 rng(GetParam(), 21);
  core::RstmArena arena;
  core::CvceScratch scratch;
  for (int trial = 0; trial < 50; ++trial) {
    const auto treeA = richRandomTree(rng, 5, 3);
    const auto independent = richRandomTree(rng, 5, 3);
    auto mutated = treeA->clone();
    mutate(*mutated, rng);
    for (const Node* treeB : {independent.get(), mutated.get()}) {
      const dom::TreeSnapshot sa = dom::flattenTree(*treeA);
      const dom::TreeSnapshot sb = dom::flattenTree(*treeB);
      expectTreeMetricsIdentical(*treeA, *treeB, sa, sb, arena);
      expectTextMetricsIdentical(*treeA, *treeB, sa, sb, scratch);
    }
  }
}

// End to end through the real parser and Figure 5, the way FORCUM calls it:
// identical similarities and identical verdicts, across decision modes.
TEST_P(FastPathDifferential, ParsedHtmlDecisionsMatch) {
  util::Pcg32 rng(GetParam(), 22);
  core::DetectionScratch scratch;
  for (int trial = 0; trial < 10; ++trial) {
    const std::string htmlA = randomHtml(rng, 40);
    std::string htmlB = htmlA;
    if (rng.uniform(0, 1) == 0) {
      htmlB += "<div><p>injected difference</p></div>";
    }
    const auto docA = html::parseHtml(htmlA);
    const auto docB = html::parseHtml(htmlB);
    const dom::TreeSnapshot sa = dom::flattenTree(*docA);
    const dom::TreeSnapshot sb = dom::flattenTree(*docB);
    for (const core::DecisionMode mode :
         {core::DecisionMode::Both, core::DecisionMode::TreeOnly,
          core::DecisionMode::TextOnly, core::DecisionMode::Either}) {
      core::DecisionConfig config;
      config.mode = mode;
      const core::DecisionResult reference =
          core::decideCookieUsefulness(*docA, *docB, config);
      const core::DecisionResult fast =
          core::decideCookieUsefulness(sa, sb, scratch, config);
      EXPECT_EQ(reference.treeSim, fast.treeSim);
      EXPECT_EQ(reference.textSim, fast.textSim);
      EXPECT_EQ(reference.causedByCookies, fast.causedByCookies);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastPathDifferential,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

// --- interner ----------------------------------------------------------------

TEST(Interner, SameNameSameIdAcrossThreads) {
  // Hammer the global interners from many threads over an overlapping name
  // set; every thread must observe the same name -> id mapping (and under
  // COOKIEPICKER_SANITIZE=thread this doubles as the data-race check).
  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  std::vector<std::vector<dom::SymbolId>> perThread(kThreads);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([t, &perThread]() {
      auto& mine = perThread[static_cast<std::size_t>(t)];
      for (int round = 0; round < kRounds; ++round) {
        const std::string name =
            "tag" + std::to_string((round + t) % 37);
        const dom::SymbolId id = dom::globalSymbolInterner().intern(name);
        mine.push_back(id);
        // Contexts too: seed and extend race through the same locks.
        const dom::ContextId seeded = dom::globalContextInterner().seed(id);
        const dom::ContextId extended =
            dom::globalContextInterner().extend(seeded, id);
        EXPECT_NE(seeded, extended);
      }
    });
  }
  for (std::thread& thread : pool) thread.join();

  // Re-intern single-threaded and check every thread saw the same ids.
  for (int t = 0; t < kThreads; ++t) {
    for (int round = 0; round < kRounds; ++round) {
      const std::string name = "tag" + std::to_string((round + t) % 37);
      EXPECT_EQ(perThread[static_cast<std::size_t>(t)]
                         [static_cast<std::size_t>(round)],
                dom::globalSymbolInterner().intern(name));
    }
  }
}

TEST(Interner, SeededAndExtendedPathsDistinct) {
  // "body" (seeded root path) and ":body" (extension of the empty context)
  // are different reference strings; the interner must keep them apart.
  const dom::SymbolId body = dom::globalSymbolInterner().intern("body");
  const dom::ContextId seeded = dom::globalContextInterner().seed(body);
  const dom::ContextId extended = dom::globalContextInterner().extend(
      dom::ContextInterner::kEmpty, body);
  EXPECT_NE(seeded, extended);
  // Determinism: asking again returns the same ids.
  EXPECT_EQ(seeded, dom::globalContextInterner().seed(body));
  EXPECT_EQ(extended, dom::globalContextInterner().extend(
                          dom::ContextInterner::kEmpty, body));
}

}  // namespace
}  // namespace cookiepicker
