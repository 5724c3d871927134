// Flight-recorder tests: metrics registry mechanics (sharded counters,
// gauge merge policies, log2 histograms), thread-local sink routing, the
// audit-trail JSONL round trip, the 1-vs-8-worker determinism of the
// deterministic metrics and audit bytes, the guarantee that the detection
// hot path still allocates nothing with instrumentation enabled, and that
// audit evidence stays linear on deeply nested pages.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "browser/browser.h"
#include "core/decision.h"
#include "core/explain.h"
#include "core/node_detection.h"
#include "fleet/fleet.h"
#include "html/parser.h"
#include "html/stream_snapshot.h"
#include "net/network.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "server/generator.h"
#include "test_support.h"
#include "util/clock.h"

// --- allocation accounting ----------------------------------------------------
// Same global operator-new funnel the hot-path benchmark uses; the
// zero-allocation guard below snapshots the counters around a measured loop.

namespace {
std::atomic<std::uint64_t> g_allocBytes{0};
std::atomic<std::uint64_t> g_allocCalls{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocBytes.fetch_add(size, std::memory_order_relaxed);
  g_allocCalls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// Not inlined: inlined into gtest's test factories, GCC 12 sees free() on
// memory from operator new and reports -Wmismatched-new-delete, although
// the replaced pair matches (malloc above, free here).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

// Sanitizers interpose their own allocator, so byte accounting through the
// override above is not meaningful under them.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CP_OBS_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CP_OBS_TEST_SANITIZED 1
#endif
#endif

namespace cookiepicker {
namespace {

// --- histograms --------------------------------------------------------------

TEST(ObsHistogram, BucketIndexBounds) {
  // Bucket 0 is "< 1 us"; bucket i >= 1 covers [2^(i-1), 2^i) us.
  EXPECT_EQ(obs::histogramBucketIndex(0), 0u);
  EXPECT_EQ(obs::histogramBucketIndex(1023), 0u);       // 1023 ns < 1 us
  EXPECT_EQ(obs::histogramBucketIndex(1024), 1u);       // exactly 1 us
  EXPECT_EQ(obs::histogramBucketIndex(2047), 1u);       // < 2 us
  EXPECT_EQ(obs::histogramBucketIndex(2048), 2u);       // 2 us
  EXPECT_EQ(obs::histogramBucketIndex(1024 * 1024), 11u);  // 1 ms = 2^10 us
  // The last bucket is open-ended: nothing indexes past it.
  EXPECT_EQ(obs::histogramBucketIndex(~std::uint64_t{0}),
            obs::kHistogramBuckets - 1);
}

TEST(ObsHistogram, BucketUpperBoundsIncrease) {
  double previous = 0.0;
  for (std::size_t bucket = 0; bucket < obs::kHistogramBuckets; ++bucket) {
    const double upper = obs::histogramBucketUpperMs(bucket);
    EXPECT_GT(upper, previous) << "bucket " << bucket;
    previous = upper;
  }
  // Bucket 0's upper bound is one binary microsecond (1024 ns).
  EXPECT_DOUBLE_EQ(obs::histogramBucketUpperMs(0), 1024.0 / 1e6);
  EXPECT_DOUBLE_EQ(obs::histogramBucketUpperMs(1), 2048.0 / 1e6);
}

TEST(ObsHistogram, MergeAddsAndPercentilesMatchBuckets) {
  obs::MetricsRegistry registry;
  // Nine fast records (~2 us) and one slow one (~1 ms): p50 lands in the
  // 2 us bucket, p99 in the 1 ms bucket.
  for (int i = 0; i < 9; ++i) {
    registry.recordTimerNs(obs::Timer::RstmDp, 1500);
  }
  registry.recordTimerNs(obs::Timer::RstmDp, 1000000);
  const obs::HistogramSnapshot histogram =
      registry.snapshot().timer(obs::Timer::RstmDp);
  EXPECT_EQ(histogram.count, 10u);
  EXPECT_EQ(histogram.sumNs, 9u * 1500u + 1000000u);
  EXPECT_DOUBLE_EQ(
      histogram.percentileMs(50.0),
      obs::histogramBucketUpperMs(obs::histogramBucketIndex(1500)));
  EXPECT_DOUBLE_EQ(
      histogram.percentileMs(99.0),
      obs::histogramBucketUpperMs(obs::histogramBucketIndex(1000000)));

  obs::HistogramSnapshot merged = histogram;
  merged.merge(histogram);
  EXPECT_EQ(merged.count, 20u);
  EXPECT_EQ(merged.sumNs, 2u * histogram.sumNs);
  for (std::size_t bucket = 0; bucket < obs::kHistogramBuckets; ++bucket) {
    EXPECT_EQ(merged.buckets[bucket], 2u * histogram.buckets[bucket]);
  }
}

// --- registry ----------------------------------------------------------------

TEST(ObsRegistry, ConcurrentCountersSumExactly) {
  obs::MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&registry]() {
      for (int i = 0; i < kPerThread; ++i) {
        registry.add(obs::Counter::Decisions);
        registry.add(obs::Counter::NetworkBytes, 3);
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counter(obs::Counter::Decisions),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snapshot.counter(obs::Counter::NetworkBytes),
            static_cast<std::uint64_t>(kThreads) * kPerThread * 3);
}

TEST(ObsRegistry, GaugeMergePolicies) {
  obs::MetricsRegistry a;
  obs::MetricsRegistry b;
  a.gaugeSet(obs::Gauge::JarCookies, 5);
  a.gaugeMax(obs::Gauge::RstmArenaCells, 100);
  a.gaugeMax(obs::Gauge::RstmArenaCells, 40);  // high-water stays 100
  b.gaugeSet(obs::Gauge::JarCookies, 7);
  b.gaugeMax(obs::Gauge::RstmArenaCells, 60);

  obs::MetricsSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  // JarCookies sums across sessions (total cookies held fleet-wide);
  // RstmArenaCells takes the max (fleet-wide high-water mark).
  EXPECT_EQ(merged.gauge(obs::Gauge::JarCookies), 12);
  EXPECT_EQ(merged.gauge(obs::Gauge::RstmArenaCells), 100);
}

TEST(ObsRegistry, DisabledRegistryRecordsNothing) {
  obs::MetricsRegistry registry(/*enabled=*/false);
  registry.add(obs::Counter::Decisions);
  registry.gaugeSet(obs::Gauge::JarCookies, 9);
  registry.recordTimerNs(obs::Timer::Decision, 5000);
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counter(obs::Counter::Decisions), 0u);
  EXPECT_EQ(snapshot.gauge(obs::Gauge::JarCookies), 0);
  EXPECT_EQ(snapshot.timer(obs::Timer::Decision).count, 0u);
}

TEST(ObsRecorder, ScopedSessionRoutesAndNests) {
  obs::MetricsRegistry outer;
  obs::MetricsRegistry inner;
  obs::AuditTrail trail;
  {
    obs::ScopedObsSession outerScope(&outer, &trail);
    EXPECT_EQ(obs::activeMetrics(), &outer);
    EXPECT_EQ(obs::activeAudit(), &trail);
    obs::count(obs::Counter::PagesVisited);
    {
      obs::ScopedObsSession innerScope(&inner, nullptr);
      EXPECT_EQ(obs::activeMetrics(), &inner);
      EXPECT_EQ(obs::activeAudit(), nullptr);
      obs::count(obs::Counter::PagesVisited);
    }
    EXPECT_EQ(obs::activeMetrics(), &outer);  // restored on scope exit
    obs::count(obs::Counter::PagesVisited);
  }
  EXPECT_EQ(outer.snapshot().counter(obs::Counter::PagesVisited), 2u);
  EXPECT_EQ(inner.snapshot().counter(obs::Counter::PagesVisited), 1u);
  // Sinks installed on this thread are invisible to others.
  obs::ScopedObsSession scope(&outer, nullptr);
  std::thread([]() { EXPECT_EQ(obs::activeAudit(), nullptr); }).join();
}

// --- audit trail -------------------------------------------------------------

obs::AuditRecord sampleRecord() {
  obs::AuditRecord record;
  record.host = "s1.example";
  record.url = "http://s1.example/page0?q=\"quoted\"\\path";
  record.view = 3;
  record.testedGroup = {"sess|s1.example|/", "trk\t1|s1.example|/a"};
  record.treeSim = 1.0 / 3.0;  // exercises shortest-round-trip doubles
  record.textSim = 0.85;
  record.treeThreshold = 0.85;
  record.textThreshold = 0.85;
  record.level = 5;
  record.mode = "both";
  record.branch = obs::figure5Branch(true, true);
  record.skippedReason = "hidden-degraded:connection dropped";
  record.causedByCookies = true;
  record.reprobeRan = true;
  record.reprobeVetoed = false;
  record.reprobeTreeSim = 0.99;
  record.reprobeTextSim = 1.0;
  record.hiddenLatencyMs = 2123.003163775879;
  record.hiddenAttempts = 3;
  record.viewsTotal = 3;
  record.hiddenRequests = 2;
  record.quietBefore = 1;
  record.quietAfter = 0;
  record.trainingActiveAfter = true;
  record.marked = {"sess|s1.example|/"};
  record.evidenceStructureRegular = {"body>div>main (x2)"};
  record.evidenceStructureHidden = {};
  record.evidenceTextRegular = {"body:div:Welcome back\nuser"};
  record.evidenceTextHidden = {"body:div:Please log in \x01"};
  return record;
}

TEST(ObsAudit, JsonLineRoundTripsByteForByte) {
  obs::AuditTrail trail;
  obs::AuditRecord record = sampleRecord();
  trail.append(record);
  EXPECT_EQ(record.seq, 1u);

  const std::string line =
      trail.jsonl().substr(0, trail.jsonl().size() - 1);  // strip '\n'
  const std::optional<obs::AuditRecord> parsed =
      obs::parseAuditRecordLine(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->toJsonLine(), line);
  EXPECT_EQ(parsed->host, record.host);
  EXPECT_EQ(parsed->url, record.url);
  EXPECT_EQ(parsed->testedGroup, record.testedGroup);
  EXPECT_EQ(parsed->treeSim, record.treeSim);  // exact, not approximate
  EXPECT_EQ(parsed->hiddenLatencyMs, record.hiddenLatencyMs);
  EXPECT_EQ(parsed->hiddenAttempts, record.hiddenAttempts);
  EXPECT_EQ(parsed->skippedReason, record.skippedReason);
  EXPECT_EQ(parsed->evidenceTextHidden, record.evidenceTextHidden);
  EXPECT_EQ(parsed->marked, record.marked);
}

TEST(ObsAudit, SequenceNumbersArePerTrail) {
  obs::AuditTrail trail;
  obs::AuditRecord first = sampleRecord();
  obs::AuditRecord second = sampleRecord();
  trail.append(first);
  trail.append(second);
  EXPECT_EQ(first.seq, 1u);
  EXPECT_EQ(second.seq, 2u);
  EXPECT_EQ(trail.recordCount(), 2u);
}

TEST(ObsAudit, ParserRejectsMalformedInput) {
  EXPECT_FALSE(obs::parseAuditRecordLine("").has_value());
  EXPECT_FALSE(obs::parseAuditRecordLine("not json").has_value());
  EXPECT_FALSE(obs::parseAuditRecordLine("{}").has_value());
  const std::string line = sampleRecord().toJsonLine();
  // Trailing bytes and unknown keys are errors: the format is closed.
  EXPECT_FALSE(obs::parseAuditRecordLine(line + "x").has_value());
  std::string withUnknown = line;
  withUnknown.insert(withUnknown.size() - 1, ",\"bogus\":1");
  EXPECT_FALSE(obs::parseAuditRecordLine(withUnknown).has_value());
  EXPECT_TRUE(obs::parseAuditRecordLine(line).has_value());
}

TEST(ObsAudit, Figure5HelpersMatchDecisionTable) {
  EXPECT_STREQ(obs::figure5Branch(true, true), "both-differ");
  EXPECT_STREQ(obs::figure5Branch(true, false), "tree-only-differs");
  EXPECT_STREQ(obs::figure5Branch(false, true), "text-only-differs");
  EXPECT_STREQ(obs::figure5Branch(false, false), "neither-differs");

  EXPECT_TRUE(obs::figure5Verdict("both", true, true));
  EXPECT_FALSE(obs::figure5Verdict("both", true, false));
  EXPECT_TRUE(obs::figure5Verdict("tree-only", true, false));
  EXPECT_FALSE(obs::figure5Verdict("tree-only", false, true));
  EXPECT_TRUE(obs::figure5Verdict("text-only", false, true));
  EXPECT_TRUE(obs::figure5Verdict("either", true, false));
  EXPECT_FALSE(obs::figure5Verdict("either", false, false));
  EXPECT_FALSE(obs::figure5Verdict("unknown-mode", true, true));
}

// --- fleet determinism -------------------------------------------------------

fleet::FleetReport runObservedFleet(
    const std::vector<server::SiteSpec>& roster, int workers, int views) {
  testsupport::FleetRunOptions options;
  options.workers = workers;
  options.viewsPerHost = views;
  options.seed = 4242;
  options.collectObservability = true;
  return testsupport::runMeasurementFleet(roster, options);
}

TEST(ObsFleetDeterminism, MetricsAndAuditIdenticalForOneVsEightWorkers) {
  const auto roster = server::measurementRoster(64, 21);
  const fleet::FleetReport serial = runObservedFleet(roster, 1, 4);
  const fleet::FleetReport parallel = runObservedFleet(roster, 8, 4);

  // The deterministic half of the flight recorder obeys the same invariant
  // as serializeState(): byte-identical for any worker count — merged and
  // per host.
  EXPECT_EQ(serial.mergedMetrics().deterministicJson(),
            parallel.mergedMetrics().deterministicJson());
  EXPECT_EQ(serial.auditJsonl(), parallel.auditJsonl());
  ASSERT_EQ(serial.hosts.size(), parallel.hosts.size());
  for (std::size_t i = 0; i < serial.hosts.size(); ++i) {
    EXPECT_EQ(serial.hosts[i].metrics.deterministicJson(),
              parallel.hosts[i].metrics.deterministicJson())
        << roster[i].domain;
    EXPECT_EQ(serial.hosts[i].auditJsonl, parallel.hosts[i].auditJsonl)
        << roster[i].domain;
  }
  // And the instrumented run still upholds the original state invariant.
  EXPECT_EQ(serial.serializeState(), parallel.serializeState());

  // Sanity: the recorder actually recorded.
  const obs::MetricsSnapshot merged = serial.mergedMetrics();
  EXPECT_EQ(merged.counter(obs::Counter::PagesVisited), 64u * 4u);
  EXPECT_GT(merged.counter(obs::Counter::Decisions), 0u);
  EXPECT_EQ(merged.counter(obs::Counter::Decisions),
            merged.counter(obs::Counter::VerdictCookieCaused) +
                merged.counter(obs::Counter::VerdictNoDifference));
  EXPECT_GT(merged.timer(obs::Timer::PageVisit).count, 0u);
  EXPECT_FALSE(serial.auditJsonl().empty());
}

TEST(ObsFleetDeterminism, AuditRecordsRederiveTheirFigure5Branch) {
  const auto roster = server::measurementRoster(12, 33);
  const fleet::FleetReport report = runObservedFleet(roster, 4, 6);
  const std::string jsonl = report.auditJsonl();
  ASSERT_FALSE(jsonl.empty());

  std::size_t records = 0;
  std::size_t start = 0;
  while (start < jsonl.size()) {
    const std::size_t end = jsonl.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    const std::optional<obs::AuditRecord> record =
        obs::parseAuditRecordLine(
            std::string_view(jsonl).substr(start, end - start));
    ASSERT_TRUE(record.has_value()) << "unparseable audit line";
    // The branch and verdict must be pure functions of the recorded
    // similarities — that is what makes the trail auditable offline.
    const bool treeDiffers = record->treeSim <= record->treeThreshold;
    const bool textDiffers = record->textSim <= record->textThreshold;
    EXPECT_EQ(record->branch, obs::figure5Branch(treeDiffers, textDiffers));
    EXPECT_EQ(record->causedByCookies,
              obs::figure5Verdict(record->mode, treeDiffers, textDiffers));
    // Marking requires the verdict to have survived the re-probe.
    if (!record->marked.empty()) {
      EXPECT_TRUE(record->causedByCookies && !record->reprobeVetoed);
      for (const std::string& key : record->marked) {
        EXPECT_NE(std::find(record->testedGroup.begin(),
                            record->testedGroup.end(), key),
                  record->testedGroup.end())
            << "marked a cookie outside the tested group";
      }
    }
    ++records;
    start = end + 1;
  }
  EXPECT_GT(records, 0u);
}

// --- hot-path allocation guard -----------------------------------------------

TEST(ObsHotPath, DetectionStepAllocatesNothingWithInstrumentationOn) {
#ifdef CP_OBS_TEST_SANITIZED
  GTEST_SKIP() << "allocation accounting is not meaningful under sanitizers";
#else
  // Build one regular/hidden snapshot pair the way FORCUM does.
  util::SimClock serverClock;
  net::Network network(7);
  server::SiteSpec spec = server::makeGenericSpec("Obs", "obs.example", 7);
  network.registerHost(spec.domain, server::buildSite(spec, serverClock));
  util::SimClock clock;
  browser::Browser browser(network, clock);
  browser.visit("http://obs.example/page0");
  browser.visit("http://obs.example/page1");
  const browser::PageView view = browser.visit("http://obs.example/page0");
  const browser::HiddenFetchResult hidden = browser.hiddenFetch(
      view, [](const cookies::CookieRecord&) { return true; });
  ASSERT_NE(view.snapshot, nullptr);
  ASSERT_NE(hidden.snapshot, nullptr);

  obs::MetricsRegistry metrics;
  obs::AuditTrail audit;
  obs::ScopedObsSession scope(&metrics, &audit);
  core::DetectionScratch scratch;
  const core::DecisionConfig config;
  // Warm pass: grows the arena/scratch to working-set size.
  for (int i = 0; i < 4; ++i) {
    core::decideCookieUsefulness(*view.snapshot, *hidden.snapshot, scratch,
                                 config);
  }

  const std::uint64_t callsBefore =
      g_allocCalls.load(std::memory_order_relaxed);
  const std::uint64_t bytesBefore =
      g_allocBytes.load(std::memory_order_relaxed);
  constexpr int kSteps = 64;
  for (int i = 0; i < kSteps; ++i) {
    core::decideCookieUsefulness(*view.snapshot, *hidden.snapshot, scratch,
                                 config);
  }
  EXPECT_EQ(g_allocCalls.load(std::memory_order_relaxed), callsBefore)
      << "instrumented hot path allocated";
  EXPECT_EQ(g_allocBytes.load(std::memory_order_relaxed), bytesBefore);
  // The instrumentation recorded while staying allocation-free.
  const obs::MetricsSnapshot snapshot = metrics.snapshot();
  EXPECT_GE(snapshot.counter(obs::Counter::Decisions),
            static_cast<std::uint64_t>(kSteps));
  EXPECT_GE(snapshot.timer(obs::Timer::Decision).count,
            static_cast<std::uint64_t>(kSteps));
#endif
}

// --- audit evidence on deep nesting -------------------------------------------

// A page whose only text sits `depth` <div>s below <body>; the open
// elements close at end of input.
std::string nestedPage(int depth, const std::string& text) {
  std::string html = "<html><body>";
  for (int i = 0; i < depth; ++i) html += "<div>";
  return html + "<p>" + text + "</p>";
}

// The oracle copies the whole context string at every nesting level, so
// its memory grows with the square of the depth (about 2 400 bytes per
// input byte at 8 000 levels). Snapshot evidence must stay linear.
TEST(ObsEvidence, DeepNestingAllocatesLinearly) {
#ifdef CP_OBS_TEST_SANITIZED
  GTEST_SKIP() << "allocation accounting is not meaningful under sanitizers";
#else
  constexpr int kDepth = 8000;
  const std::string regular = nestedPage(kDepth, "welcome back member");
  const std::string hidden = nestedPage(kDepth, "please sign in");
  const auto regularSnapshot = html::buildSnapshotStreaming(regular).snapshot;
  const auto hiddenSnapshot = html::buildSnapshotStreaming(hidden).snapshot;
  core::EvidenceScratch scratch;
  core::DifferenceExplanation evidence;

  const std::uint64_t bytesBefore =
      g_allocBytes.load(std::memory_order_relaxed);
  core::collectDifferenceEvidence({*regularSnapshot, regular},
                                  {*hiddenSnapshot, hidden}, {}, scratch,
                                  evidence);
  const auto allocated = static_cast<double>(
      g_allocBytes.load(std::memory_order_relaxed) - bytesBefore);
  const auto inputBytes = static_cast<double>(regular.size() + hidden.size());
  EXPECT_LE(allocated / inputBytes, 64.0)
      << allocated << " bytes allocated for " << inputBytes << " input bytes";

  // The one line per side carries the full 8 000-level context.
  ASSERT_EQ(evidence.textOnlyInRegular.size(), 1u);
  ASSERT_EQ(evidence.textOnlyInHidden.size(), 1u);
  std::string context = "body";
  for (int i = 0; i < kDepth; ++i) context += ":div";
  EXPECT_EQ(evidence.textOnlyInRegular[0],
            context + ":p|>welcome back member");
  EXPECT_EQ(evidence.textOnlyInHidden[0], context + ":p|>please sign in");
#endif
}

TEST(ObsEvidence, DeepNestingMatchesOracle) {
  constexpr int kDepth = 2000;
  const std::string regular = nestedPage(kDepth, "welcome back member");
  const std::string hidden = nestedPage(kDepth, "please sign in");
  const auto regularSnapshot = html::buildSnapshotStreaming(regular).snapshot;
  const auto hiddenSnapshot = html::buildSnapshotStreaming(hidden).snapshot;
  core::EvidenceScratch scratch;
  core::DifferenceExplanation evidence;
  core::collectDifferenceEvidence({*regularSnapshot, regular},
                                  {*hiddenSnapshot, hidden}, {}, scratch,
                                  evidence);

  core::DifferenceExplanation oracle;
  core::collectDifferenceEvidence(*html::parseHtml(regular),
                                  *html::parseHtml(hidden), {}, oracle);
  ASSERT_EQ(oracle.textOnlyInRegular.size(), 1u);
  EXPECT_EQ(evidence.textOnlyInRegular, oracle.textOnlyInRegular);
  EXPECT_EQ(evidence.textOnlyInHidden, oracle.textOnlyInHidden);
  EXPECT_EQ(evidence.structureOnlyInRegular, oracle.structureOnlyInRegular);
  EXPECT_EQ(evidence.structureOnlyInHidden, oracle.structureOnlyInHidden);
}

}  // namespace
}  // namespace cookiepicker
