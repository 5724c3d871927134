// Differential suite for audit evidence. The snapshot evidence FORCUM
// attaches to cookie-caused audit records must equal the node-tree oracle
// (parse both copies, diff the node trees) list for list, byte for byte.
//
// Two sources of page pairs:
//  * every cookie-caused audited FORCUM step over both paper rosters, with
//    and without the consistency re-probe. A recording transport keeps the
//    exact container and hidden bytes each step compared, and the step's
//    audit record must carry the oracle's lists for those bytes, as must
//    the snapshot evidence over the oracle's flattened trees of them;
//  * the snapshot differential's document generator and mutators, at
//    several restriction levels and item caps. COOKIEPICKER_FUZZ scales
//    the trial count (tools/check.sh fuzz-thread / fuzz-address).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/explain.h"
#include "core/node_detection.h"
#include "core/session.h"
#include "dom/snapshot.h"
#include "fuzz_documents.h"
#include "html/parser.h"
#include "html/stream_snapshot.h"
#include "net/network.h"
#include "obs/audit.h"
#include "obs/recorder.h"
#include "server/generator.h"
#include "util/clock.h"
#include "util/rng.h"
#include "util/text_hash.h"

namespace cookiepicker {
namespace {

void expectSameLists(const core::DifferenceExplanation& oracle,
                     const core::DifferenceExplanation& snapshot) {
  EXPECT_EQ(oracle.structureOnlyInRegular, snapshot.structureOnlyInRegular);
  EXPECT_EQ(oracle.structureOnlyInHidden, snapshot.structureOnlyInHidden);
  EXPECT_EQ(oracle.textOnlyInRegular, snapshot.textOnlyInRegular);
  EXPECT_EQ(oracle.textOnlyInHidden, snapshot.textOnlyInHidden);
}

// --- every cookie-caused audited step over the rosters ------------------------

// Forwards to the network and keeps the bytes a FORCUM step compares: the
// last container response, and the hidden responses that followed it (the
// first is the compared copy; a re-probe adds the second).
class RecordingTransport : public net::Transport {
 public:
  explicit RecordingTransport(net::Transport& inner) : inner_(inner) {}

  net::Exchange dispatch(const net::HttpRequest& request) override {
    net::Exchange exchange = inner_.dispatch(request);
    if (request.kind == net::RequestKind::Container) {
      container = exchange.response.body;
      hidden.clear();
    } else if (request.kind == net::RequestKind::Hidden) {
      hidden.push_back(exchange.response.body);
    }
    return exchange;
  }

  std::string container;
  std::vector<std::string> hidden;

 private:
  net::Transport& inner_;
};

struct RosterCase {
  const char* name;
  bool table1;
  bool reprobe;
};

void PrintTo(const RosterCase& param, std::ostream* out) { *out << param.name; }

class EvidenceDifferential : public ::testing::TestWithParam<RosterCase> {};

TEST_P(EvidenceDifferential, CookieCausedStepsMatchOracle) {
  const RosterCase& param = GetParam();
  const auto roster =
      param.table1 ? server::table1Roster() : server::table2Roster();
  constexpr std::uint64_t kSeed = 2007;
  constexpr int kViews = 12;
  util::SimClock serverClock;
  net::Network network(kSeed);
  server::registerRoster(network, serverClock, roster);

  int compared = 0;
  for (const server::SiteSpec& spec : roster) {
    // The fleet's and the verdict service's session, stepped one view at a
    // time.
    RecordingTransport transport(network);
    core::SessionConfig config;
    config.seed = kSeed;
    config.picker.forcum.consistencyReprobe = param.reprobe;
    core::Session session(transport, spec.domain, config);
    obs::MetricsRegistry metrics;
    obs::AuditTrail audit;
    obs::ScopedObsSession scope(&metrics, &audit);
    core::EvidenceScratch scratch;

    for (int view = 0; view < kViews; ++view) {
      const core::ForcumStepReport report =
          session.browse(view, spec.pageCount);
      if (!report.decision.causedByCookies) continue;
      SCOPED_TRACE(spec.domain + " view " + std::to_string(view));
      // Evidence rides the step's record, the last line of the trail.
      const std::string jsonl = audit.jsonl();
      ASSERT_FALSE(jsonl.empty());
      const std::string_view lines(jsonl.data(), jsonl.size() - 1);
      const std::size_t newline = lines.rfind('\n');
      const auto record = obs::parseAuditRecordLine(
          lines.substr(newline == std::string_view::npos ? 0 : newline + 1));
      ASSERT_TRUE(record.has_value());
      ASSERT_FALSE(transport.hidden.empty());

      const auto regular = html::parseHtml(transport.container);
      const auto hidden = html::parseHtml(transport.hidden.front());
      core::ExplainOptions options;
      options.decision = config.picker.forcum.decision;
      core::DifferenceExplanation oracle;
      core::collectDifferenceEvidence(*regular, *hidden, options, oracle);
      EXPECT_EQ(record->evidenceStructureRegular,
                oracle.structureOnlyInRegular);
      EXPECT_EQ(record->evidenceStructureHidden,
                oracle.structureOnlyInHidden);
      EXPECT_EQ(record->evidenceTextRegular, oracle.textOnlyInRegular);
      EXPECT_EQ(record->evidenceTextHidden, oracle.textOnlyInHidden);
      // The same evidence from the oracle's own snapshot rows of the bytes.
      const dom::TreeSnapshot regularRows = dom::flattenTree(*regular);
      const dom::TreeSnapshot hiddenRows = dom::flattenTree(*hidden);
      core::DifferenceExplanation flattened;
      core::collectDifferenceEvidence({regularRows, transport.container},
                                      {hiddenRows, transport.hidden.front()},
                                      options, scratch, flattened);
      expectSameLists(oracle, flattened);
      ++compared;
    }
  }
  // Both rosters have useful cookies whose absence shows.
  EXPECT_GE(compared, param.table1 ? 20 : 50);
}

INSTANTIATE_TEST_SUITE_P(
    Rosters, EvidenceDifferential,
    ::testing::Values(RosterCase{"Table1Streaming", true, false},
                      RosterCase{"Table1Reprobe", true, true},
                      RosterCase{"Table2Streaming", false, false},
                      RosterCase{"Table2Reprobe", false, true}),
    [](const ::testing::TestParamInfo<RosterCase>& info) {
      return std::string(info.param.name);
    });

// --- the fuzz corpus ---------------------------------------------------------

class EvidenceDifferentialFuzz
    : public ::testing::TestWithParam<std::uint64_t> {};

// Pairs a generated document with a mutation of itself or with another
// document, and compares every list at restriction levels 1/3/5/8 and caps
// 0/1/5/1000. The hidden side's snapshot comes from the oracle's flattened
// node tree; the regular side's from the streaming builder.
TEST_P(EvidenceDifferentialFuzz, GeneratedPairsMatchOracle) {
  util::Pcg32 rng(GetParam(), 35);
  core::EvidenceScratch scratch;  // reused: exercises scratch reuse
  const int trials = 40 * testsupport::fuzzScale();
  for (int trial = 0; trial < trials; ++trial) {
    const std::string regularHtml = testsupport::randomDocument(rng);
    std::string hiddenHtml = rng.uniform(0, 2) == 0
                                 ? testsupport::randomDocument(rng)
                                 : regularHtml;
    const int mutations = static_cast<int>(rng.uniform(0, 2));
    for (int i = 0; i < mutations; ++i) testsupport::mutate(rng, hiddenHtml);
    SCOPED_TRACE("seed=" + std::to_string(GetParam()) +
                 " trial=" + std::to_string(trial) + "\nregular:\n" +
                 regularHtml + "\nhidden:\n" + hiddenHtml);

    const auto regularDocument = html::parseHtml(regularHtml);
    const auto hiddenDocument = html::parseHtml(hiddenHtml);
    const auto regularSnapshot =
        html::buildSnapshotStreaming(regularHtml).snapshot;
    const dom::TreeSnapshot hiddenSnapshot = dom::flattenTree(*hiddenDocument);
    for (const int level : {1, 3, 5, 8}) {
      for (const std::size_t maxItems : {0, 1, 5, 1000}) {
        core::ExplainOptions options;
        options.decision.maxLevel = level;
        options.maxItems = maxItems;
        core::DifferenceExplanation oracle;
        core::collectDifferenceEvidence(*regularDocument, *hiddenDocument,
                                        options, oracle);
        core::DifferenceExplanation snapshot;
        core::collectDifferenceEvidence({*regularSnapshot, regularHtml},
                                        {hiddenSnapshot, hiddenHtml}, options,
                                        scratch, snapshot);
        expectSameLists(oracle, snapshot);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvidenceDifferentialFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89,
                                           144, 233, 377, 610, 987, 1597));

}  // namespace
}  // namespace cookiepicker
