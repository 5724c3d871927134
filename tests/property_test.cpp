// Randomized property tests over the core invariants, driven by seeded
// generators so failures are reproducible from the printed seed.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "baseline/tree_distance.h"
#include "browser/browser.h"
#include "core/cookie_picker.h"
#include "core/cvce.h"
#include "core/node_detection.h"
#include "core/rstm.h"
#include "core/stm.h"
#include "dom/builder.h"
#include "dom/serialize.h"
#include "html/parser.h"
#include "net/network.h"
#include "server/generator.h"
#include "util/clock.h"
#include "util/rng.h"

namespace cookiepicker {
namespace {

using dom::Node;

// Random tree over a small label alphabet.
std::unique_ptr<Node> randomTree(util::Pcg32& rng, int maxDepth,
                                 int maxChildren) {
  const char label = static_cast<char>('a' + rng.uniform(0, 5));
  auto node = Node::makeElement(std::string(1, label));
  if (maxDepth > 0) {
    const int children =
        static_cast<int>(rng.uniform(0, static_cast<std::uint32_t>(
                                            maxChildren)));
    for (int i = 0; i < children; ++i) {
      node->appendChild(randomTree(rng, maxDepth - 1, maxChildren));
    }
  }
  return node;
}

// Random HTML-ish text: mixes valid tags, text, and deliberate garbage.
std::string randomHtml(util::Pcg32& rng, int tokens) {
  static const char* kPieces[] = {
      "<div>",      "</div>",   "<p>",        "</p>",     "<span>",
      "</span>",    "text ",    "more words ", "<br>",    "<img src=x>",
      "<ul><li>",   "</ul>",    "<!-- c -->", "<b>",      "</i>",
      "<a href='u'>", "</a>",   "& ",         "<",        "<script>s</script>",
      "<table><tr><td>", "</table>", "<input type=text>", "\n  ",
  };
  std::string html;
  for (int i = 0; i < tokens; ++i) {
    html += kPieces[rng.uniform(0, std::size(kPieces) - 1)];
  }
  return html;
}

class SeededProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeededProperty, StmIsSymmetricAndBounded) {
  util::Pcg32 rng(GetParam(), 1);
  for (int trial = 0; trial < 20; ++trial) {
    auto treeA = randomTree(rng, 4, 3);
    auto treeB = randomTree(rng, 4, 3);
    const std::size_t ab = core::simpleTreeMatching(*treeA, *treeB);
    const std::size_t ba = core::simpleTreeMatching(*treeB, *treeA);
    EXPECT_EQ(ab, ba);
    EXPECT_LE(ab, std::min(treeA->subtreeSize(), treeB->subtreeSize()));
    // Self-matching is maximal.
    EXPECT_EQ(core::simpleTreeMatching(*treeA, *treeA),
              treeA->subtreeSize());
  }
}

TEST_P(SeededProperty, StmMappingConsistentWithCount) {
  util::Pcg32 rng(GetParam(), 2);
  for (int trial = 0; trial < 10; ++trial) {
    auto treeA = randomTree(rng, 4, 3);
    auto treeB = randomTree(rng, 4, 3);
    const auto mapping = core::simpleTreeMatchingWithMapping(*treeA, *treeB);
    EXPECT_EQ(mapping.matchCount,
              core::simpleTreeMatching(*treeA, *treeB));
    EXPECT_EQ(mapping.pairs.size(), mapping.matchCount);
    // Every pair has equal labels, and parents of paired nodes are paired
    // (the top-down mapping property, Definition 3).
    std::map<const Node*, const Node*> pairMap;
    for (const auto& [nodeA, nodeB] : mapping.pairs) {
      EXPECT_EQ(nodeA->name(), nodeB->name());
      pairMap[nodeA] = nodeB;
    }
    for (const auto& [nodeA, nodeB] : mapping.pairs) {
      if (nodeA->parent() != nullptr && nodeB->parent() != nullptr &&
          nodeA != treeA.get()) {
        const auto parentPair = pairMap.find(nodeA->parent());
        ASSERT_NE(parentPair, pairMap.end());
        EXPECT_EQ(parentPair->second, nodeB->parent());
      }
    }
  }
}

TEST_P(SeededProperty, RstmNeverExceedsStm) {
  util::Pcg32 rng(GetParam(), 3);
  for (int trial = 0; trial < 15; ++trial) {
    auto treeA = randomTree(rng, 5, 3);
    auto treeB = randomTree(rng, 5, 3);
    for (const int level : {1, 3, 5, 50}) {
      EXPECT_LE(core::restrictedSimpleTreeMatching(*treeA, *treeB, level),
                core::simpleTreeMatching(*treeA, *treeB));
    }
  }
}

TEST_P(SeededProperty, RstmMonotoneInLevel) {
  util::Pcg32 rng(GetParam(), 4);
  for (int trial = 0; trial < 15; ++trial) {
    auto treeA = randomTree(rng, 6, 3);
    auto treeB = randomTree(rng, 6, 3);
    std::size_t previous = 0;
    for (int level = 1; level <= 8; ++level) {
      const std::size_t current =
          core::restrictedSimpleTreeMatching(*treeA, *treeB, level);
      EXPECT_GE(current, previous);
      previous = current;
    }
  }
}

TEST_P(SeededProperty, NTreeSimBoundedSymmetricReflexive) {
  util::Pcg32 rng(GetParam(), 5);
  for (int trial = 0; trial < 15; ++trial) {
    auto treeA = randomTree(rng, 5, 3);
    auto treeB = randomTree(rng, 5, 3);
    const double ab = core::nTreeSim(*treeA, *treeB, 5);
    EXPECT_GE(ab, 0.0);
    EXPECT_LE(ab, 1.0);
    EXPECT_DOUBLE_EQ(ab, core::nTreeSim(*treeB, *treeA, 5));
    EXPECT_DOUBLE_EQ(core::nTreeSim(*treeA, *treeA, 5), 1.0);
  }
}

TEST_P(SeededProperty, ParserTotalAndDeterministic) {
  util::Pcg32 rng(GetParam(), 6);
  for (int trial = 0; trial < 20; ++trial) {
    const std::string html = randomHtml(rng, 30);
    auto first = html::parseHtml(html);
    auto second = html::parseHtml(html);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(dom::toDebugString(*first), dom::toDebugString(*second))
        << html;
  }
}

TEST_P(SeededProperty, SerializeReparseFixpoint) {
  // parse(serialize(parse(x))) == parse(serialize(parse(serialize(...)))):
  // one serialize/reparse round reaches a fixpoint.
  util::Pcg32 rng(GetParam(), 7);
  for (int trial = 0; trial < 15; ++trial) {
    const std::string html = randomHtml(rng, 25);
    auto parsed = html::parseHtml(html);
    const std::string onceHtml = dom::toHtml(*parsed);
    auto reparsed = html::parseHtml(onceHtml);
    const std::string twiceHtml = dom::toHtml(*reparsed);
    EXPECT_EQ(onceHtml, twiceHtml) << html;
  }
}

TEST_P(SeededProperty, SameParserSameTreeForBothCopies) {
  // The paper's step-three requirement: regular and hidden copies of the
  // same bytes produce identical DOM trees.
  util::Pcg32 rng(GetParam(), 8);
  const std::string html = randomHtml(rng, 60);
  EXPECT_EQ(core::nTreeSim(core::comparisonRoot(*html::parseHtml(html)),
                           core::comparisonRoot(*html::parseHtml(html)), 5),
            1.0);
}

TEST_P(SeededProperty, NTextSimBoundedAndSymmetric) {
  util::Pcg32 rng(GetParam(), 9);
  auto randomSet = [&rng]() {
    std::set<std::string> entries;
    const int count = static_cast<int>(rng.uniform(0, 12));
    for (int i = 0; i < count; ++i) {
      const std::string context =
          "body:div" + std::to_string(rng.uniform(0, 3));
      entries.insert(context + core::kContextSeparator + "t" +
                     std::to_string(rng.uniform(0, 20)));
    }
    return entries;
  };
  for (int trial = 0; trial < 30; ++trial) {
    const auto set1 = randomSet();
    const auto set2 = randomSet();
    const double sim = core::nTextSim(set1, set2);
    EXPECT_GE(sim, 0.0);
    EXPECT_LE(sim, 1.0) << "s-term must never push similarity above 1";
    EXPECT_DOUBLE_EQ(sim, core::nTextSim(set2, set1));
    EXPECT_DOUBLE_EQ(core::nTextSim(set1, set1), 1.0);
    // The s term only ever helps.
    EXPECT_GE(sim, core::nTextSim(set1, set2, /*sameContextCredit=*/false));
  }
}

TEST_P(SeededProperty, EditDistancesAreMetricsOnIdentity) {
  util::Pcg32 rng(GetParam(), 10);
  for (int trial = 0; trial < 8; ++trial) {
    auto treeA = randomTree(rng, 3, 3);
    auto treeB = randomTree(rng, 3, 3);
    EXPECT_EQ(baseline::selkowEditDistance(*treeA, *treeA), 0u);
    EXPECT_EQ(baseline::zhangShashaEditDistance(*treeA, *treeA), 0u);
    // Symmetry.
    EXPECT_EQ(baseline::selkowEditDistance(*treeA, *treeB),
              baseline::selkowEditDistance(*treeB, *treeA));
    EXPECT_EQ(baseline::zhangShashaEditDistance(*treeA, *treeB),
              baseline::zhangShashaEditDistance(*treeB, *treeA));
    // General distance never exceeds the constrained one.
    EXPECT_LE(baseline::zhangShashaEditDistance(*treeA, *treeB),
              baseline::selkowEditDistance(*treeA, *treeB));
  }
}

TEST_P(SeededProperty, BottomUpNeverExceedsTreeSizes) {
  util::Pcg32 rng(GetParam(), 11);
  for (int trial = 0; trial < 10; ++trial) {
    auto treeA = randomTree(rng, 4, 3);
    auto treeB = randomTree(rng, 4, 3);
    const std::size_t matched = baseline::bottomUpMatching(*treeA, *treeB);
    EXPECT_LE(matched, treeA->subtreeSize());
    EXPECT_LE(matched, treeB->subtreeSize());
  }
}

TEST_P(SeededProperty, ConcurrentBrowseEnforceRecoverPreservesJarInvariants) {
  // Random interleavings of the three user-facing operations across threads
  // must never corrupt the jar: every CookieKey unique, serialization
  // round-trips, and an enforced host's unmarked persistent cookies are
  // never transmitted. Each thread draws its op sequence from its own
  // forked RNG stream, so the schedule is random but reproducible.
  const std::uint64_t seed = GetParam();
  const auto roster = server::measurementRoster(5, seed);
  util::SimClock serverClock;
  net::Network network(seed);
  server::registerRoster(network, serverClock, roster);

  util::SimClock clock;
  browser::Browser browser(network, clock,
                           cookies::CookiePolicy::recommended(), seed);
  core::CookiePicker picker(browser);
  for (const server::SiteSpec& spec : roster) {
    picker.browse("http://" + spec.domain + "/page0");
  }

  const int threadCount = 4;
  std::vector<std::thread> pool;
  pool.reserve(threadCount);
  for (int t = 0; t < threadCount; ++t) {
    pool.emplace_back([&, t]() {
      util::Pcg32 rng(seed, static_cast<std::uint64_t>(t) + 101);
      for (int op = 0; op < 12; ++op) {
        const server::SiteSpec& spec =
            roster[rng.uniform(0, static_cast<std::uint32_t>(
                                      roster.size() - 1))];
        const std::string url = "http://" + spec.domain + "/page" +
                                std::to_string(rng.uniform(0, 3));
        switch (rng.uniform(0, 2)) {
          case 0:
            picker.browse(url);
            break;
          case 1:
            picker.enforceForHost(spec.domain);
            break;
          default: {
            const auto parsed = net::Url::parse(url);
            ASSERT_TRUE(parsed.has_value());
            picker.pressRecoveryButton(*parsed);
            break;
          }
        }
      }
    });
  }
  for (std::thread& thread : pool) thread.join();

  // Invariant 1: no duplicate CookieKey, and serialize/deserialize is a
  // bijection on the surviving records.
  std::set<cookies::CookieKey> keys;
  for (const cookies::CookieRecord* record : browser.jar().all()) {
    EXPECT_TRUE(keys.insert(record->key).second);
  }
  const cookies::CookieJar reloaded =
      cookies::CookieJar::deserialize(browser.jar().serialize());
  EXPECT_EQ(reloaded.size(), browser.jar().size());

  // Invariant 2: blocked ⟹ not transmitted. Revisit each enforced host and
  // check the Cookie header that actually went out.
  for (const server::SiteSpec& spec : roster) {
    if (!picker.isEnforced(spec.domain)) continue;
    const auto url = net::Url::parse("http://" + spec.domain + "/page0");
    ASSERT_TRUE(url.has_value());
    const std::string header =
        browser.visit(*url).containerRequest.cookieHeader();
    for (const cookies::CookieRecord* record :
         browser.jar().persistentCookiesForHost(spec.domain)) {
      if (record->useful) continue;
      EXPECT_EQ(header.find(record->key.name + "="), std::string::npos)
          << record->key.name << " leaked from enforced host "
          << spec.domain;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

}  // namespace
}  // namespace cookiepicker
