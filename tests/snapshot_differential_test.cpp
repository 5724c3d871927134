// Differential fuzz harness for the streaming tokenizer→snapshot pipeline.
//
// The streaming builder (html/stream_snapshot.h) must produce *byte-identical*
// output to the reference pipeline — parseHtml into a dom::Node tree, then
// dom::flattenTree(root) — for any input whatsoever: every preorder row (symbol,
// subtree extent, level, flags, text hash), the CSR child spans, the
// comparison root, the collected page info (from the build and from the
// scan-only pass), and every downstream RSTM/CVCE similarity computed from
// the snapshots, with exact double equality.
//
// Inputs are seeded random documents pushed through mutation operators that
// deliberately break well-formedness: tag deletion, truncation at arbitrary
// byte offsets (mid-tag, mid-entity, mid-attribute), attribute-quote flips,
// entity splicing, and nesting shuffles. Every failure message carries the
// parameter seed, so any divergence reproduces offline with a one-line
// filter. COOKIEPICKER_FUZZ scales the per-seed trial count for soak runs
// (tools/check.sh wires it into the sanitizer matrix as `fuzz-soak`).
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/decision.h"
#include "core/node_detection.h"
#include "dom/interner.h"
#include "dom/node.h"
#include "dom/snapshot.h"
#include "fuzz_documents.h"
#include "html/parser.h"
#include "html/stream_snapshot.h"
#include "pin_pages.h"
#include "snapshot_compare.h"
#include "test_support.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/text_hash.h"

namespace cookiepicker {
namespace {

using testsupport::expectSnapshotsIdentical;
using testsupport::fuzzScale;
using testsupport::mutate;
using testsupport::randomDocument;

// --- the differential --------------------------------------------------------

struct ReferenceParse {
  std::unique_ptr<dom::Node> document;
  std::shared_ptr<const dom::TreeSnapshot> snapshot;
  html::StreamPageInfo page;
};

ReferenceParse referenceParse(const std::string& htmlText) {
  ReferenceParse result;
  result.document = html::parseHtml(htmlText);
  result.snapshot = std::make_shared<const dom::TreeSnapshot>(
      dom::flattenTree(*result.document));
  result.page = html::collectPageInfo(*result.document);
  return result;
}

void expectPageInfoIdentical(const html::StreamPageInfo& reference,
                             const html::StreamPageInfo& streaming) {
  EXPECT_EQ(reference.baseHref, streaming.baseHref);
  ASSERT_EQ(reference.subresourceRefs.size(), streaming.subresourceRefs.size());
  for (std::size_t i = 0; i < reference.subresourceRefs.size(); ++i) {
    EXPECT_EQ(reference.subresourceRefs[i], streaming.subresourceRefs[i]);
  }
}

class SnapshotDifferential : public ::testing::TestWithParam<std::uint64_t> {};

// 40 documents per seed x 25 seeds = 1000 generated documents per default
// run, each checked pristine and after every mutation operator — well over
// 5000 distinct inputs through both pipelines. COOKIEPICKER_FUZZ multiplies
// the per-seed count.
TEST_P(SnapshotDifferential, StreamingMatchesReferenceByteForByte) {
  util::Pcg32 rng(GetParam(), 31);
  html::StreamingSnapshotBuilder builder;  // reused: exercises scratch reuse
  const int trials = 40 * fuzzScale();
  for (int trial = 0; trial < trials; ++trial) {
    std::string htmlText = randomDocument(rng);
    for (int round = 0; round < 6; ++round) {
      SCOPED_TRACE("seed=" + std::to_string(GetParam()) + " trial=" +
                   std::to_string(trial) + " round=" + std::to_string(round) +
                   " input:\n" + htmlText);
      const ReferenceParse reference = referenceParse(htmlText);
      const html::StreamParseResult streamed = builder.build(htmlText);
      ASSERT_NE(streamed.snapshot, nullptr);
      expectSnapshotsIdentical(*reference.snapshot, *streamed.snapshot);
      expectPageInfoIdentical(reference.page, streamed.page);
      // The scan-only pass a page view without a snapshot runs, on the
      // same reused builder.
      expectPageInfoIdentical(streamed.page, builder.scanPageInfo(htmlText));
      if (::testing::Test::HasFailure()) return;  // first divergence suffices
      mutate(rng, htmlText);  // next round: a progressively nastier document
    }
  }
}

// Downstream equality, the property FORCUM actually relies on: decisions
// computed from streaming snapshots equal the dom::Node reference decisions
// exactly (bitwise-equal doubles), across all decision modes.
TEST_P(SnapshotDifferential, DecisionsOverStreamingSnapshotsExact) {
  util::Pcg32 rng(GetParam(), 32);
  core::DetectionScratch scratch;
  const int trials = 5 * fuzzScale();
  for (int trial = 0; trial < trials; ++trial) {
    const std::string htmlA = randomDocument(rng);
    std::string htmlB = htmlA;
    if (rng.uniform(0, 1) == 0) mutate(rng, htmlB);
    const auto docA = html::parseHtml(htmlA);
    const auto docB = html::parseHtml(htmlB);
    const auto streamA = html::buildSnapshotStreaming(htmlA);
    const auto streamB = html::buildSnapshotStreaming(htmlB);
    for (const core::DecisionMode mode :
         {core::DecisionMode::Both, core::DecisionMode::TreeOnly,
          core::DecisionMode::TextOnly, core::DecisionMode::Either}) {
      core::DecisionConfig config;
      config.mode = mode;
      const core::DecisionResult reference =
          core::decideCookieUsefulness(*docA, *docB, config);
      const core::DecisionResult fast = core::decideCookieUsefulness(
          *streamA.snapshot, *streamB.snapshot, scratch, config);
      EXPECT_EQ(reference.treeSim, fast.treeSim) << "seed " << GetParam();
      EXPECT_EQ(reference.textSim, fast.textSim) << "seed " << GetParam();
      EXPECT_EQ(reference.causedByCookies, fast.causedByCookies);
    }
  }
}

// Structural invariants of any snapshot the streaming builder emits, checked
// without reference to the dom::Node path (catches bugs the differential
// could only see if the reference had them too).
TEST_P(SnapshotDifferential, StreamingSnapshotStructurallySound) {
  util::Pcg32 rng(GetParam(), 33);
  const int trials = 10 * fuzzScale();
  for (int trial = 0; trial < trials; ++trial) {
    std::string htmlText = randomDocument(rng);
    if (rng.uniform(0, 1) == 0) mutate(rng, htmlText);
    const auto first = html::buildSnapshotStreaming(htmlText);
    const dom::TreeSnapshot& snap = *first.snapshot;
    const std::uint32_t n = snap.nodeCount();
    ASSERT_GT(n, 0u);

    // Preorder extents are properly nested: walking rows with a stack of
    // open extents, every row fits strictly inside its enclosing extent.
    std::vector<std::uint32_t> extents;  // stack of subtreeEnd values
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t end = snap.subtreeEnd(i);
      ASSERT_GT(end, i) << "empty extent at row " << i;
      ASSERT_LE(end, n) << "extent past the end at row " << i;
      while (!extents.empty() && extents.back() <= i) extents.pop_back();
      if (!extents.empty()) {
        ASSERT_LE(end, extents.back())
            << "extent of row " << i << " crosses its parent's";
      }
      extents.push_back(end);

      // Interner IDs in bounds.
      ASSERT_LT(static_cast<std::size_t>(snap.symbol(i)),
                dom::globalSymbolInterner().size());

      // Child spans partition the extent: consecutive children tile
      // [i+1, subtreeEnd(i)) with no gaps or overlap.
      std::uint32_t cursor = i + 1;
      for (std::uint32_t k = 0; k < snap.childCount(i); ++k) {
        const std::uint32_t childRow = snap.child(i, k);
        ASSERT_EQ(childRow, cursor)
            << "row " << i << ": child " << k << " does not tile the extent";
        cursor = snap.subtreeEnd(childRow);
      }
      ASSERT_EQ(cursor, end) << "row " << i << ": children under-cover extent";
    }

    // Re-parse stability: the same bytes produce the same snapshot,
    // including text hashes (hashing is content-deterministic, no pointers).
    const auto second = html::buildSnapshotStreaming(htmlText);
    ASSERT_EQ(second.snapshot->nodeCount(), n);
    for (std::uint32_t i = 0; i < n; ++i) {
      ASSERT_EQ(second.snapshot->textHash(i), snap.textHash(i));
      ASSERT_EQ(second.snapshot->symbol(i), snap.symbol(i));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotDifferential,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89,
                                           144, 233, 377, 610, 987, 1597,
                                           2584, 4181, 6765, 10946, 17711,
                                           28657, 46368, 75025, 121393));

// --- text hash collision smoke test ------------------------------------------
//
// Snapshot text hashes are an in-memory identity: CVCE and the attribution
// fingerprint treat equal hashes as equal text. Over every container page
// the pins fetch plus the fuzz corpus above, distinct collapsed texts
// must hash apart, and equal texts must hash equal wherever their bytes sit.

class TextCollector : public pin::PageVisitor {
 public:
  void response(const net::HttpResponse& response) override {
    page(response.body);
  }
  void page(std::string_view html) override {
    const auto document = html::parseHtml(html);
    dom::preorder(*document, [&](const dom::Node& node, std::size_t) {
      if (node.isText()) {
        std::string collapsed = dom::collapseWhitespace(node.value());
        if (!collapsed.empty()) texts.insert(std::move(collapsed));
      }
      return true;
    });
  }

  std::set<std::string> texts;
};

TEST(TextHash, DistinctCorpusTextsHashApart) {
  TextCollector collector;
  for (const pin::Scenario& scenario : pin::scenarios()) {
    scenario.run(collector);
  }
  const std::size_t rosterTexts = collector.texts.size();
  for (const std::uint64_t seed : {1, 2, 3, 5, 8, 13, 21, 34}) {
    util::Pcg32 rng(seed, 31);
    for (int trial = 0; trial < 40; ++trial) {
      std::string htmlText = randomDocument(rng);
      for (int round = 0; round < 6; ++round) {
        collector.page(htmlText);
        mutate(rng, htmlText);
      }
    }
  }
  EXPECT_GT(rosterTexts, 1000u);
  EXPECT_GT(collector.texts.size(), rosterTexts);

  std::unordered_map<std::uint64_t, const std::string*> byHash;
  std::string shifted;
  for (const std::string& text : collector.texts) {
    const std::uint64_t hash = util::textHash64(text);
    const auto [it, inserted] = byHash.emplace(hash, &text);
    EXPECT_TRUE(inserted) << "\"" << text << "\" collides with \""
                          << *it->second << "\"";
    // Same bytes at every alignment: same hash.
    for (std::size_t offset = 1; offset < 8; ++offset) {
      shifted.assign(offset, '#');
      shifted += text;
      ASSERT_EQ(util::textHash64(std::string_view(shifted).substr(offset)),
                hash)
          << text;
    }
  }
}

// --- attribution-off differential pin ----------------------------------------
//
// The provenance tier must be invisible while AttributionMode::Off (the
// default): the deterministic metrics JSON, the audit JSONL stream, the
// serialized FORCUM state, and the persisted jar have to stay byte-identical
// to builds that predate the tier. A fleet run is a pure function of
// (seed, roster), so the pin is enforceable across builds: the constants
// below are fnv1a64 hashes of the exact bytes the pre-tier sources produce
// for this scenario (recomputed by compiling the same driver against the
// pre-tier tree). If an Off-mode code path starts leaking attribution
// artifacts — a counter section, an audit key, an extra state field, a
// fingerprint suffix — a hash here moves and this test names the surface.

constexpr std::uint64_t kPreTierMetricsHash = 0x13bdc065f19c69cfull;
constexpr std::uint64_t kPreTierAuditHash = 0xcc9adc3f8b478260ull;
constexpr std::uint64_t kPreTierStateHash = 0x6f760840ef2c0b00ull;
constexpr std::uint64_t kPreTierJarHash = 0x6eaf22a7526ec8cbull;

fleet::FleetReport runPinnedFleet(core::AttributionMode attribution) {
  const auto roster = server::measurementRoster(6, 2007);
  testsupport::FleetRunOptions options;
  options.workers = 2;
  options.viewsPerHost = 8;
  options.collectObservability = true;
  options.attribution = attribution;
  return testsupport::runMeasurementFleet(roster, options);
}

TEST(AttributionOffPin, OffModeBytesMatchPreTierBuild) {
  const fleet::FleetReport report = runPinnedFleet(core::AttributionMode::Off);
  EXPECT_EQ(util::fnv1a64(report.mergedMetrics().deterministicJson()),
            kPreTierMetricsHash);
  EXPECT_EQ(util::fnv1a64(report.auditJsonl()), kPreTierAuditHash);
  EXPECT_EQ(util::fnv1a64(report.serializeState()), kPreTierStateHash);
  EXPECT_EQ(util::fnv1a64(report.mergedJar().serialize()), kPreTierJarHash);
}

TEST(AttributionOffPin, OffModeCarriesNoAttributionArtifacts) {
  const fleet::FleetReport report = runPinnedFleet(core::AttributionMode::Off);
  // Metrics: the "attribution" section is emitted only when a counter in it
  // is nonzero, which Off-mode runs can never produce.
  EXPECT_EQ(report.mergedMetrics().deterministicJson().find("attribution"),
            std::string::npos);
  // Audit: the three attribution keys ride only on records whose step
  // actually ran the provenance path.
  EXPECT_EQ(report.auditJsonl().find("attributed_cookie"), std::string::npos);
  EXPECT_EQ(report.auditJsonl().find("attribution_"), std::string::npos);
  // State: FORCUM site lines carry exactly the pre-tier six tab-separated
  // fields — the attributed-useful list is an optional seventh that Off
  // mode never writes. The blob interleaves per-host sections; only lines
  // inside "== forcum ==" are site lines.
  bool inForcum = false;
  for (const std::string& line :
       util::split(report.serializeState(), '\n')) {
    if (line.rfind("== ", 0) == 0) {
      inForcum = line == "== forcum ==";
      continue;
    }
    if (!inForcum || line.empty()) continue;
    EXPECT_LE(util::split(line, '\t').size(), 6u) << line;
  }
}

TEST(AttributionOffPin, FingerprintGainsSuffixOnlyWhenOn) {
  net::Network network(1);
  fleet::FleetConfig config;
  fleet::TrainingFleet off(network, config);
  EXPECT_EQ(off.configFingerprint().find(":attr1"), std::string::npos);
  config.picker.forcum.attribution = core::AttributionMode::Provenance;
  fleet::TrainingFleet on(network, config);
  EXPECT_EQ(on.configFingerprint(), off.configFingerprint() + ":attr1");
}

// Sensitivity check for the pin: the same scenario with attribution ON must
// move the observability surface (the counters section appears), proving the
// hashes above would catch an Off-mode leak rather than hashing a surface
// attribution never touches.
TEST(AttributionOffPin, ProvenanceModeMovesTheSurface) {
  const fleet::FleetReport report =
      runPinnedFleet(core::AttributionMode::Provenance);
  EXPECT_NE(report.mergedMetrics().deterministicJson().find("\"attribution\""),
            std::string::npos);
  EXPECT_NE(util::fnv1a64(report.mergedMetrics().deterministicJson()),
            kPreTierMetricsHash);
}

}  // namespace
}  // namespace cookiepicker
