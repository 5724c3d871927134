// Provenance & attribution tier tests: ProvenanceMap canonical form and
// framing, streaming-vs-reference taint stamping, attribution-vs-bisection
// verdict equivalence on the paper rosters, the adversarial shared-region
// case, and fault-degraded confirm strips.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/cookie_picker.h"
#include "core/forcum.h"
#include "dom/serialize.h"
#include "dom/snapshot.h"
#include "faults/fault_plan.h"
#include "html/parser.h"
#include "html/stream_snapshot.h"
#include "provenance/taint.h"
#include "server/generator.h"
#include "snapshot_compare.h"
#include "test_support.h"
#include "util/strings.h"

namespace cookiepicker {
namespace {

using testsupport::SimWorld;

// --- ProvenanceMap canonical form -------------------------------------------

TEST(ProvenanceMap, NormalizeFlattensOverlapsNestsAndCoalesces) {
  provenance::ProvenanceMap map;
  map.add(10, 30, 0b01);  // outer range
  map.add(15, 20, 0b10);  // nested inside it
  map.add(25, 40, 0b10);  // overlaps its tail
  map.add(40, 50, 0b11);  // adjacent with a different mask
  map.add(5, 5, 0b01);    // empty — ignored
  map.add(9, 3, 0b01);    // inverted — ignored
  map.add(60, 70, 0);     // no labels — ignored
  map.normalize();

  const std::vector<provenance::TaintRange> expected = {
      {10, 15, 0b01}, {15, 20, 0b11}, {20, 25, 0b01},
      {25, 30, 0b11}, {30, 40, 0b10}, {40, 50, 0b11}};
  EXPECT_EQ(map.ranges(), expected);

  EXPECT_EQ(map.labelsAt(12), 0b01u);
  EXPECT_EQ(map.labelsAt(17), 0b11u);
  EXPECT_EQ(map.labelsAt(49), 0b11u);
  EXPECT_EQ(map.labelsAt(50), 0u);  // end is exclusive
  EXPECT_EQ(map.labelsAt(55), 0u);
  EXPECT_EQ(map.labelsIn(0, 100), 0b11u);
  EXPECT_EQ(map.labelsIn(30, 40), 0b10u);
  EXPECT_EQ(map.labelsIn(50, 60), 0u);

  // Idempotent: a second normalize changes nothing.
  provenance::ProvenanceMap again = map;
  again.normalize();
  EXPECT_EQ(again.ranges(), map.ranges());
}

TEST(ProvenanceMap, AdjacentEqualMasksCoalesce) {
  provenance::ProvenanceMap map;
  map.add(0, 10, 0b01);
  map.add(10, 20, 0b01);
  map.normalize();
  const std::vector<provenance::TaintRange> expected = {{0, 20, 0b01}};
  EXPECT_EQ(map.ranges(), expected);
}

TEST(ProvenanceMap, SerializeParseRoundTripWithHostileNames) {
  provenance::ProvenanceMap map;
  map.setLabelNames({"tab\tname", "new\nline", "pipe|semi;colon", "pct%09"});
  map.add(3, 9, 0b0001);
  map.add(5, 7, 0b0010);   // nested
  map.add(9, 12, 0b1100);  // adjacent, different mask
  const std::string bytes = map.serialize();

  const auto parsed = provenance::ProvenanceMap::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, map);
  EXPECT_EQ(parsed->labelNames(), map.labelNames());
  // parse(serialize(m)) reproduces the canonical bytes exactly.
  provenance::ProvenanceMap reparsed = *parsed;
  EXPECT_EQ(reparsed.serialize(), bytes);
}

// Builds a frame the way serialize() does, so malformed-payload cases can
// pass the checksum gate and exercise the line-level validation.
std::string frame(const std::string& payload) {
  std::string out = "cookiepicker-prov-v1\n";
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((payload.size() >> shift) & 0xff));
  }
  const std::uint64_t checksum = util::fnv1a64(payload);
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((checksum >> shift) & 0xff));
  }
  out += payload;
  return out;
}

TEST(ProvenanceMap, ParseRejectsCorruptFraming) {
  provenance::ProvenanceMap map;
  map.setLabelNames({"alpha", "beta"});
  map.add(4, 20, 0b01);
  map.add(8, 16, 0b10);
  const std::string bytes = map.serialize();
  ASSERT_TRUE(provenance::ProvenanceMap::parse(bytes).has_value());

  EXPECT_FALSE(provenance::ProvenanceMap::parse("").has_value());
  EXPECT_FALSE(provenance::ProvenanceMap::parse("garbage").has_value());
  // Every truncation is rejected wholesale — no half-parsed maps.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(
        provenance::ProvenanceMap::parse(bytes.substr(0, len)).has_value())
        << "truncated at " << len;
  }
  // Trailing bytes are corruption, not a second record.
  EXPECT_FALSE(provenance::ProvenanceMap::parse(bytes + "x").has_value());
  // Any single flipped byte trips the magic, length, or checksum gate.
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string flipped = bytes;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x01);
    EXPECT_FALSE(provenance::ProvenanceMap::parse(flipped).has_value())
        << "flipped byte " << i;
  }
}

TEST(ProvenanceMap, ParseRejectsNonCanonicalPayloads) {
  // Well-framed (checksum valid) payloads that violate the canonical form.
  const char* bad[] = {
      "range\t1\t2\t1\n",                            // range before labels
      "labels\t1\tc\nlabels\t1\tc\n",                // duplicate labels line
      "labels\t40\tc\n",                             // count past kMaxLabels
      "labels\t2\tc\n",                              // count != names given
      "labels\t1\tc\nrange\t10\t20\t1\nrange\t5\t8\t1\n",   // unsorted
      "labels\t1\tc\nrange\t10\t20\t1\nrange\t15\t25\t1\n", // overlapping
      "labels\t1\tc\nrange\t10\t20\t1\nrange\t20\t30\t1\n", // uncoalesced
      "labels\t1\tc\nrange\t20\t10\t1\n",            // inverted
      "labels\t1\tc\nrange\t10\t20\t0\n",            // empty label-set
      "labels\t1\tc\nrange\t10\t20\t4\n",            // bit beyond name table
      "labels\t1\tc\nrange\t10\t20\tzz\n",           // non-hex mask
      "labels\t1\tc\nbogus\t1\n",                    // unknown record
      "labels\t1\tc\nrange\t10\t20\t1",              // missing final newline
  };
  for (const char* payload : bad) {
    EXPECT_FALSE(provenance::ProvenanceMap::parse(frame(payload)).has_value())
        << payload;
  }
  // The overflow label is always representable, whatever the table size.
  EXPECT_TRUE(provenance::ProvenanceMap::parse(
                  frame("labels\t1\tc\nrange\t10\t20\t80000000\n"))
                  .has_value());
}

TEST(ProvenanceMap, HeaderTransportRoundTripsAndRejectsNonHex) {
  provenance::ProvenanceMap map;
  map.setLabelNames({"alpha"});
  map.add(0, 42, 0b01);
  const std::string header = map.encodeHeader();
  const auto decoded = provenance::ProvenanceMap::decodeHeader(header);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, map);

  EXPECT_FALSE(provenance::ProvenanceMap::decodeHeader("").has_value());
  EXPECT_FALSE(
      provenance::ProvenanceMap::decodeHeader(header.substr(1)).has_value());
  std::string nonHex = header;
  nonHex[4] = 'g';
  EXPECT_FALSE(provenance::ProvenanceMap::decodeHeader(nonHex).has_value());
}

TEST(ProvenanceMap, SoleLabelNameOnlyForSingleInTableBits) {
  provenance::ProvenanceMap map;
  map.setLabelNames({"alpha", "beta"});
  EXPECT_EQ(map.soleLabelName(0b01).value_or(""), "alpha");
  EXPECT_EQ(map.soleLabelName(0b10).value_or(""), "beta");
  EXPECT_FALSE(map.soleLabelName(0b11).has_value());
  EXPECT_FALSE(map.soleLabelName(0).has_value());
  EXPECT_FALSE(map.soleLabelName(provenance::kOverflowLabel).has_value());
  EXPECT_FALSE(map.soleLabelName(0b100).has_value());  // beyond the table
}

TEST(TaintRecorder, InternsInOrderAndOverflowsPast31) {
  provenance::TaintRecorder recorder;
  for (int i = 0; i < provenance::kMaxLabels; ++i) {
    EXPECT_EQ(recorder.labelFor("cookie" + std::to_string(i)),
              provenance::LabelSet{1} << i);
  }
  EXPECT_FALSE(recorder.overflowed());
  EXPECT_EQ(recorder.labelFor("one-too-many"), provenance::kOverflowLabel);
  EXPECT_TRUE(recorder.overflowed());
  // Existing names keep their bit; the overflow is sticky.
  EXPECT_EQ(recorder.labelFor("cookie0"), provenance::LabelSet{1});
  EXPECT_EQ(recorder.labelFor("another"), provenance::kOverflowLabel);
}

// --- taint-stamped snapshots -------------------------------------------------

TEST(ProvenanceSnapshot, StreamingStampsMatchReferenceTree) {
  // A server-side tree with nested taint; the streaming builder must stamp
  // the identical effective label-sets from the serialized byte ranges that
  // the reference constructor derives from the node labels directly.
  auto document = dom::Node::makeDocument();
  dom::Node& html = document->appendChild(dom::Node::makeElement("html"));
  dom::Node& head = html.appendChild(dom::Node::makeElement("head"));
  head.appendChild(dom::Node::makeElement("title"))
      .appendChild(dom::Node::makeText("Taint fixture"));
  dom::Node& body = html.appendChild(dom::Node::makeElement("body"));
  body.appendChild(dom::Node::makeElement("p"))
      .appendChild(dom::Node::makeText("untainted intro"));
  dom::Node& outer = body.appendChild(dom::Node::makeElement("div"));
  outer.setAttribute("class", "pref");
  outer.addTaintLabels(0b01);
  outer.appendChild(dom::Node::makeText("outer tainted"));
  dom::Node& inner = outer.appendChild(dom::Node::makeElement("span"));
  inner.addTaintLabels(0b10);
  inner.appendChild(dom::Node::makeText("doubly tainted"));
  body.appendChild(dom::Node::makeElement("footer"))
      .appendChild(dom::Node::makeText("untainted tail"));

  provenance::ProvenanceMap map;
  const std::string htmlText = dom::toHtmlWithProvenance(*document, map);
  map.setLabelNames({"alpha", "beta"});
  map.normalize();

  const dom::TreeSnapshot reference = dom::flattenTree(*document, true);
  const auto streamed = html::buildSnapshotStreaming(htmlText, &map);
  ASSERT_NE(streamed.snapshot, nullptr);
  const dom::TreeSnapshot& streaming = *streamed.snapshot;

  ASSERT_TRUE(reference.hasProvenance());
  testsupport::expectSnapshotsIdentical(reference, streaming);

  // Effective taint accumulates down the tree: outer subtree rows carry bit
  // 0, the nested span (and its text) both bits, everything else nothing.
  std::set<provenance::TaintSetId> seen;
  for (std::uint32_t i = 0; i < reference.nodeCount(); ++i) {
    seen.insert(reference.taintSet(i));
  }
  EXPECT_EQ(seen, (std::set<provenance::TaintSetId>{0, 0b01, 0b11}));

  // Without a map the same build pays nothing and stamps nothing.
  const auto plain = html::buildSnapshotStreaming(htmlText);
  ASSERT_NE(plain.snapshot, nullptr);
  EXPECT_FALSE(plain.snapshot->hasProvenance());
  EXPECT_EQ(plain.snapshot->taintSet(0), 0u);
}

TEST(ProvenanceSnapshot, BrowserCarriesMapEndToEnd) {
  SimWorld world;
  const auto spec = world.addGenericSite("e2e.example");
  world.browser.setWantProvenance(true);
  world.browser.visit("http://e2e.example/");  // first view sets cookies
  const browser::PageView view = world.browser.visit("http://e2e.example/");
  ASSERT_NE(view.provenance, nullptr);
  EXPECT_FALSE(view.provenance->empty());
  ASSERT_NE(view.snapshot, nullptr);
  ASSERT_TRUE(view.snapshot->hasProvenance());
  bool anyTainted = false;
  for (std::uint32_t i = 0; i < view.snapshot->nodeCount(); ++i) {
    anyTainted = anyTainted || view.snapshot->taintSet(i) != 0;
  }
  EXPECT_TRUE(anyTainted);
}

TEST(ProvenanceSnapshot, OrdinaryTrafficCarriesNoProvenance) {
  SimWorld world;
  world.addGenericSite("plain.example");
  world.browser.visit("http://plain.example/");
  const browser::PageView view = world.browser.visit("http://plain.example/");
  EXPECT_EQ(view.provenance, nullptr);
  ASSERT_NE(view.snapshot, nullptr);
  EXPECT_FALSE(view.snapshot->hasProvenance());
}

// --- attribution vs bisection ------------------------------------------------

// Runs one site to completion under the given FORCUM setup and returns the
// names the jar ended up marking useful.
std::set<std::string> markedNames(const server::SiteSpec& spec,
                                  core::CookieGroupMode groupMode,
                                  core::AttributionMode attribution,
                                  int views = 24) {
  SimWorld world;
  world.addSite(spec);
  core::CookiePickerConfig config;
  config.forcum.groupMode = groupMode;
  config.forcum.attribution = attribution;
  core::CookiePicker picker(world.browser, config);
  const int pages = std::max(1, spec.pageCount);
  for (int view = 0; view < views; ++view) {
    picker.browse("http://" + spec.domain + "/page" +
                  std::to_string(view % pages));
  }
  std::set<std::string> marked;
  for (const cookies::CookieRecord* record :
       world.browser.jar().persistentCookiesForHost(spec.domain)) {
    if (record->useful) marked.insert(record->key.name);
  }
  return marked;
}

TEST(AttributionDifferential, MatchesBisectionOnBothRosters) {
  // The acceptance differential: attribution must reach the same verdict on
  // every genuinely useful cookie as the bisection baseline, on both paper
  // rosters, while never false-marking a tracker (taint can only narrow the
  // candidate set; the confirming strip gates every mark).
  for (const std::vector<server::SiteSpec>& roster :
       {server::table1Roster(), server::table2Roster()}) {
    for (const server::SiteSpec& spec : roster) {
      const std::set<std::string> bisect = markedNames(
          spec, core::CookieGroupMode::Bisection, core::AttributionMode::Off);
      const std::set<std::string> attrib =
          markedNames(spec, core::CookieGroupMode::AllPersistent,
                      core::AttributionMode::Provenance);
      const std::vector<std::string> usefulList = spec.usefulCookieNames();
      const std::set<std::string> useful(usefulList.begin(), usefulList.end());

      std::set<std::string> bisectUseful;
      for (const std::string& name : bisect) {
        if (useful.contains(name)) bisectUseful.insert(name);
      }
      std::set<std::string> attribUseful;
      for (const std::string& name : attrib) {
        if (useful.contains(name)) attribUseful.insert(name);
      }
      EXPECT_EQ(attribUseful, bisectUseful) << spec.label;
      // Attribution never marks outside the ground-truth useful set — the
      // improvement over the baselines' noise-driven false positives.
      for (const std::string& name : attrib) {
        EXPECT_TRUE(useful.contains(name)) << spec.label << " " << name;
      }
    }
  }
}

// --- adversarial shared region ------------------------------------------------

// Two cookies read while rendering ONE region, but only "shared-a" actually
// changes the output — "shared-b" is a decoy read. Taint implicates both;
// only the confirming strips may decide.
class SharedRegionBehavior : public server::SiteBehavior {
 public:
  void onRequest(const server::RenderContext& context,
                 net::HttpResponse& response) override {
    for (const char* name : {"shared-a", "shared-b"}) {
      if (!context.hasCookie(name)) {
        response.headers.add("Set-Cookie", std::string(name) +
                                               "=1; Max-Age=86400; Path=/");
      }
    }
  }
  void render(const server::RenderContext& context,
              server::Page& page) override {
    const provenance::LabelSet taint =
        context.taintFor("shared-a") | context.taintFor("shared-b");
    // The effect must dominate the page the way PreferenceCookieBehavior's
    // intensity-3 personalization does — a single inserted section reads as
    // forgivable layout churn to the decision algorithms.
    if (context.hasCookie("shared-a")) {
      for (int section = 0; section < 3; ++section) {
        server::Block banner;
        banner.taint = taint;
        banner.html = "<section class=\"shared-banner\"><h2>Your shortcuts " +
                      std::to_string(section) + "</h2><ul>";
        for (int i = 0; i < 6; ++i) {
          banner.html += "<li>pinned entry " + std::to_string(section) + "-" +
                         std::to_string(i) + "</li>";
        }
        banner.html += "</ul></section>";
        page.main.insert(page.main.begin(), std::move(banner));
      }
      // And the generic sections give way to the personalized ones.
      if (page.main.size() > 4) page.main.resize(4);
    } else {
      server::Block hint;
      hint.taint = taint;
      hint.html =
          "<p class=\"shared-banner\">Pin pages to see them here.</p>";
      page.main.insert(page.main.begin(), std::move(hint));
    }
  }
};

TEST(AttributionAdversarial, SharedRegionConfirmsInsteadOfGuessing) {
  SimWorld world;
  server::SiteSpec spec;
  spec.label = "ADV";
  spec.domain = "shared.example";
  spec.category = "news";
  spec.seed = 57;
  spec.containerTrackers = 1;  // must never be marked
  auto site = server::buildSite(spec, world.clock);
  site->addBehavior(std::make_unique<SharedRegionBehavior>());
  world.network.registerHost(spec.domain, site, spec.latencyProfile());

  core::CookiePickerConfig config;
  config.forcum.attribution = core::AttributionMode::Provenance;
  core::CookiePicker picker(world.browser, config);

  bool sawAmbiguous = false;
  int confirmStrips = 0;
  for (int view = 0; view < 10; ++view) {
    const core::ForcumStepReport report =
        picker.browse("http://shared.example/page" + std::to_string(view % 4));
    sawAmbiguous = sawAmbiguous || report.attributionAmbiguous;
    confirmStrips += report.attributionConfirmStrips;
  }
  // Taint implicated both cookies on the shared region, forcing per-name
  // confirms rather than a single nomination.
  EXPECT_TRUE(sawAmbiguous);
  EXPECT_GE(confirmStrips, 2);
  // Only the cookie that actually reproduces the difference marks; the
  // decoy read and the co-sent tracker never do.
  std::set<std::string> marked;
  for (const cookies::CookieRecord* record :
       world.browser.jar().persistentCookiesForHost(spec.domain)) {
    if (record->useful) marked.insert(record->key.name);
  }
  EXPECT_EQ(marked, std::set<std::string>{"shared-a"});
}

// --- fault-degraded confirms ---------------------------------------------------

TEST(AttributionFaults, DegradedConfirmMarksNothing) {
  SimWorld world;
  server::SiteSpec spec;
  spec.label = "FLT";
  spec.domain = "flaky.example";
  spec.category = "arts";
  spec.seed = 32;
  spec.preferenceCookies = 1;
  spec.preferenceIntensity = 2;
  spec.containerTrackers = 2;  // group of 3, so marking needs a confirm
  world.addSite(spec);

  // The first hidden request (the all-strip that detects the difference)
  // succeeds; everything after — the targeted confirm included — drops.
  faults::FaultPlan plan;
  faults::FaultRule rule;
  rule.host = spec.domain;
  rule.scope = faults::Scope::Hidden;
  rule.firstIndex = 1;
  rule.action = faults::Action::ConnectionDrop;
  plan.rules.push_back(rule);
  world.network.setFaultPlan(std::make_shared<const faults::FaultPlan>(plan));

  core::CookiePickerConfig config;
  config.forcum.attribution = core::AttributionMode::Provenance;
  core::CookiePicker picker(world.browser, config);

  bool sawDegradedConfirm = false;
  bool anyConfirmed = false;
  for (int view = 0; view < 8; ++view) {
    const core::ForcumStepReport report =
        picker.browse("http://flaky.example/page" + std::to_string(view % 4));
    if (report.attributionRan &&
        report.attributionFallback.starts_with("confirm-degraded:")) {
      sawDegradedConfirm = true;
      EXPECT_TRUE(report.newlyMarked.empty());
    }
    anyConfirmed = anyConfirmed || report.attributionConfirmed;
  }
  EXPECT_TRUE(sawDegradedConfirm);
  EXPECT_FALSE(anyConfirmed);
  // A degraded attribution step marks nothing, ever.
  for (const cookies::CookieRecord* record :
       world.browser.jar().persistentCookiesForHost(spec.domain)) {
    EXPECT_FALSE(record->useful) << record->key.name;
  }
}

}  // namespace
}  // namespace cookiepicker
