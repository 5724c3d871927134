// The resilience layer above the fault engine: hidden-fetch retry/backoff,
// the session retry budget, graceful degradation (a degraded pair never
// marks cookies and never trains a host toward "stable"), the re-probe
// veto, an A/B property test — a faulty run equals a canonical run with
// the affected steps skipped — and a chaos soak the sanitizer configs run
// under an aggressive plan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/cookie_picker.h"
#include "faults/fault_plan.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "server/generator.h"
#include "test_support.h"
#include "util/rng.h"
#include "util/strings.h"

namespace cookiepicker {
namespace {

using testsupport::SimWorld;

std::shared_ptr<const faults::FaultPlan> planOf(const std::string& text) {
  const auto parsed = faults::FaultPlan::parse(text);
  EXPECT_TRUE(parsed.has_value()) << "unparseable plan:\n" << text;
  if (!parsed.has_value()) return nullptr;
  return std::make_shared<const faults::FaultPlan>(*parsed);
}

// --- retry & backoff ---------------------------------------------------------

TEST(HiddenRetry, RecoversAfterTransientDrops) {
  SimWorld world;
  const auto spec = world.addGenericSite("retry.example");
  core::CookiePicker picker(world.browser);
  picker.browse(world.urlFor(spec));  // seed cookies, fault-free
  const browser::PageView goodView = world.browser.visit(world.urlFor(spec));

  // Flap: the first two hidden attempts drop, the third goes through.
  world.network.setFaultPlan(
      planOf("rule scope=hidden action=connection-drop fail=2 recover=1"));
  obs::MetricsRegistry metrics;
  obs::ScopedObsSession scope(&metrics, nullptr);
  const double before = world.clock.nowMs();
  const core::ForcumStepReport report = picker.onPageLoaded(goodView);

  EXPECT_TRUE(report.hiddenRequestSent);
  EXPECT_FALSE(report.skipped);
  EXPECT_EQ(report.hiddenAttempts, 3);
  EXPECT_EQ(world.browser.hiddenRetriesUsed(), 2u);
  EXPECT_EQ(metrics.snapshot().counter(obs::Counter::HiddenFetchRetries), 2u);
  EXPECT_EQ(metrics.snapshot().counter(obs::Counter::HiddenFetchExhausted), 0u);
  // Both backoffs (400 and 800 ms nominal, ±25% jitter) ran on the virtual
  // clock and are part of the step's reported latency.
  EXPECT_GE(world.clock.nowMs() - before, 900.0);
  EXPECT_GT(report.hiddenLatencyMs, 900.0);
}

TEST(HiddenRetry, SessionBudgetCapsRetries) {
  SimWorld world;
  const auto spec = world.addGenericSite("budget.example");
  core::CookiePicker picker(world.browser);
  picker.browse(world.urlFor(spec));
  const browser::PageView goodView = world.browser.visit(world.urlFor(spec));

  net::RetrySpec retry = world.browser.hiddenRetrySpec();
  retry.maxAttempts = 4;
  retry.retryBudget = 1;
  world.browser.setHiddenRetrySpec(retry);
  world.network.setFaultPlan(
      planOf("rule scope=hidden action=connection-drop"));
  obs::MetricsRegistry metrics;
  obs::ScopedObsSession scope(&metrics, nullptr);

  // First degraded step spends the whole budget: one retry, then give up.
  const core::ForcumStepReport first = picker.onPageLoaded(goodView);
  EXPECT_TRUE(first.skipped);
  EXPECT_EQ(first.skipReason, "hidden-degraded:connection dropped");
  EXPECT_EQ(first.hiddenAttempts, 2);
  EXPECT_EQ(world.browser.hiddenRetriesUsed(), 1u);

  // With the budget exhausted the next failure degrades immediately
  // instead of hammering a host that is clearly down.
  const core::ForcumStepReport second = picker.onPageLoaded(goodView);
  EXPECT_TRUE(second.skipped);
  EXPECT_EQ(second.hiddenAttempts, 1);
  EXPECT_EQ(world.browser.hiddenRetriesUsed(), 1u);

  const obs::MetricsSnapshot snapshot = metrics.snapshot();
  EXPECT_EQ(snapshot.counter(obs::Counter::HiddenFetchRetries), 1u);
  EXPECT_EQ(snapshot.counter(obs::Counter::HiddenFetchExhausted), 2u);
  EXPECT_EQ(snapshot.counter(obs::Counter::HiddenRetryBudgetExhausted), 2u);
  EXPECT_EQ(snapshot.counter(obs::Counter::ForcumStepsSkipped), 2u);
}

// --- graceful degradation ----------------------------------------------------

TEST(Degradation, DegradedPairsNeverMarkAndNeverQuietTheHost) {
  SimWorld world;
  const auto spec = world.addGenericSite("dark.example");
  core::CookiePicker picker(world.browser);
  obs::MetricsRegistry metrics;
  obs::AuditTrail trail;
  obs::ScopedObsSession scope(&metrics, &trail);
  picker.browse(world.urlFor(spec));  // seed cookies, fault-free

  world.network.setFaultPlan(
      planOf("rule scope=hidden action=connection-drop"));
  int degraded = 0;
  for (int i = 0; i < 4; ++i) {
    const core::ForcumStepReport report =
        picker.browse(world.urlFor(spec, "/page" + std::to_string(i % 3 + 1)));
    if (!report.hiddenRequestSent) continue;
    ++degraded;
    EXPECT_TRUE(report.skipped);
    EXPECT_EQ(report.skipReason, "hidden-degraded:connection dropped");
    EXPECT_TRUE(report.newlyMarked.empty());
  }
  ASSERT_GT(degraded, 0);

  // No mark ever came out of a degraded pair...
  for (const cookies::CookieRecord* record : world.browser.jar().all()) {
    EXPECT_FALSE(record->useful) << record->key.name;
  }
  // ...and the host never trained toward "stable": skipped steps count no
  // usable hidden round and leave the quiet streak untouched.
  const core::ForcumEngine::SiteState* state =
      picker.forcum().siteState(spec.domain);
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->hiddenRequests, 0);
  EXPECT_EQ(state->consecutiveQuietViews, 0);
  EXPECT_TRUE(state->trainingActive);

  // Every degraded step left an explicit audit record: branch "skipped",
  // the reason recorded, nothing marked.
  int skippedRecords = 0;
  for (const std::string_view line : util::split(trail.jsonl(), '\n')) {
    if (line.empty()) continue;
    const auto record = obs::parseAuditRecordLine(line);
    ASSERT_TRUE(record.has_value()) << line;
    if (record->skippedReason.empty()) continue;
    ++skippedRecords;
    EXPECT_EQ(record->branch, "skipped");
    EXPECT_EQ(record->skippedReason, "hidden-degraded:connection dropped");
    EXPECT_TRUE(record->marked.empty());
    EXPECT_EQ(record->hiddenAttempts, 3);
  }
  EXPECT_EQ(skippedRecords, degraded);
  EXPECT_EQ(metrics.snapshot().counter(obs::Counter::ForcumStepsSkipped),
            static_cast<std::uint64_t>(degraded));
}

TEST(Degradation, ErrorContainerPageSkipsWithoutAnAuditVerdict) {
  SimWorld world;
  const auto spec = world.addGenericSite("down.example");
  core::CookiePicker picker(world.browser);
  picker.browse(world.urlFor(spec));  // fault-free priming view

  obs::AuditTrail trail;
  obs::ScopedObsSession scope(nullptr, &trail);
  world.network.setFaultPlan(faults::FaultPlan::uniformFailure(1.0));
  const core::ForcumStepReport report = picker.browse(world.urlFor(spec));
  EXPECT_TRUE(report.skipped);
  EXPECT_EQ(report.skipReason, "container-error");
  EXPECT_FALSE(report.hiddenRequestSent);
  // An error container page is not a decision: nothing to audit.
  EXPECT_EQ(trail.recordCount(), 0u);
}

TEST(Degradation, DegradedReprobeVetoesTheMarking) {
  server::SiteSpec spec;
  spec.label = "R";
  spec.domain = "pref.example";
  spec.category = "science";
  spec.seed = 6;
  spec.preferenceCookies = 1;
  spec.preferenceIntensity = 2;
  spec.containerTrackers = 1;
  core::CookiePickerConfig config;
  config.forcum.consistencyReprobe = true;

  // Control world: the second view's regular/hidden pair genuinely differs,
  // the re-probe agrees, cookies get marked.
  SimWorld control(21);
  control.addSite(spec);
  core::CookiePicker controlPicker(control.browser, config);
  controlPicker.browse("http://" + spec.domain + "/");
  const browser::PageView controlView =
      control.browser.visit("http://" + spec.domain + "/");
  const core::ForcumStepReport controlReport =
      controlPicker.onPageLoaded(controlView);
  ASSERT_TRUE(controlReport.decision.causedByCookies);
  ASSERT_TRUE(controlReport.reprobeRan);
  ASSERT_FALSE(controlReport.newlyMarked.empty());

  // Same world, same seeds — but the re-probe (the host's second logical
  // hidden request, retries included) never comes back. The primary
  // detection stands, yet without a confirming copy no mark is trusted.
  SimWorld faulty(21);
  faulty.addSite(spec);
  core::CookiePicker faultyPicker(faulty.browser, config);
  faulty.network.setFaultPlan(
      planOf("rule scope=hidden first=1 last=1 action=connection-drop"));
  faultyPicker.browse("http://" + spec.domain + "/");
  const browser::PageView faultyView =
      faulty.browser.visit("http://" + spec.domain + "/");
  const core::ForcumStepReport report = faultyPicker.onPageLoaded(faultyView);

  EXPECT_TRUE(report.hiddenRequestSent);
  EXPECT_TRUE(report.skipped);
  EXPECT_EQ(report.skipReason, "reprobe-degraded:connection dropped");
  EXPECT_TRUE(report.newlyMarked.empty());
  EXPECT_FALSE(report.decision.causedByCookies);  // vetoed
  for (const cookies::CookieRecord* record : faulty.browser.jar().all()) {
    EXPECT_FALSE(record->useful) << record->key.name;
  }
}

// --- the skip-equivalence property -------------------------------------------

// One training session over one site, with the logical hidden-request index
// of every degraded step recorded. With the consistency re-probe off, each
// FORCUM step issues exactly one logical hidden request, so the step's
// ordinal among hidden-sending steps *is* its fault-schedule index.
struct SessionOutcome {
  std::vector<std::uint64_t> degradedHiddenIndices;
  std::string forcumState;
  std::vector<std::string> usefulKeys;
  bool degradedStepMarked = false;
};

SessionOutcome runFaultySession(const server::SiteSpec& spec,
                                std::uint64_t seed,
                                std::shared_ptr<const faults::FaultPlan> plan,
                                int views) {
  SimWorld world(seed);
  world.addSite(spec);
  if (plan != nullptr) world.network.setFaultPlan(plan);
  core::CookiePicker picker(world.browser);
  SessionOutcome outcome;
  std::uint64_t hiddenIndex = 0;
  for (int i = 0; i < views; ++i) {
    const core::ForcumStepReport report = picker.browse(
        "http://" + spec.domain + "/page" + std::to_string(i % 4 + 1));
    if (!report.hiddenRequestSent) continue;
    const std::uint64_t index = hiddenIndex++;
    if (report.skipped &&
        report.skipReason.rfind("hidden-degraded:", 0) == 0) {
      outcome.degradedHiddenIndices.push_back(index);
      if (!report.newlyMarked.empty()) outcome.degradedStepMarked = true;
    }
  }
  outcome.forcumState = picker.forcum().serializeState();
  for (const cookies::CookieRecord* record : world.browser.jar().all()) {
    if (!record->useful) continue;
    outcome.usefulKeys.push_back(record->key.name + "|" + record->key.domain +
                                 "|" + record->key.path);
  }
  std::sort(outcome.usefulKeys.begin(), outcome.usefulKeys.end());
  return outcome;
}

// Property: a run under a randomized hidden-scoped fault plan is
// observably equivalent to a clean run in which exactly the degraded
// steps were skipped. Run A uses random pre-handler faults (drops, 5xx,
// timeouts — never reaching the site handler, so both runs see identical
// server-side streams); run B replays with a canonical plan that drops
// precisely the logical hidden indices A degraded. Training state and
// useful marks must match byte for byte.
TEST(ResilienceProperty, FaultyRunEqualsCanonicalRunWithStepsSkipped) {
  const int views = 8;
  for (const std::uint64_t seed : {101u, 202u, 303u}) {
    const server::SiteSpec spec =
        server::makeGenericSpec("P", "prop.example", seed);

    util::Pcg32 rng(seed, 0x70726f70ULL);
    const faults::Action actions[] = {faults::Action::ServerError,
                                      faults::Action::ConnectionDrop,
                                      faults::Action::Timeout};
    auto randomPlan = std::make_shared<faults::FaultPlan>();
    const int ruleCount = 2 + static_cast<int>(rng.uniform(0, 2));
    for (int i = 0; i < ruleCount; ++i) {
      faults::FaultRule rule;
      rule.scope = faults::Scope::Hidden;
      rule.action = actions[rng.uniform(0, 2)];
      rule.extraLatencyMs = 150.0;  // keep injected timeouts cheap
      rule.firstIndex = rng.uniform(0, 3);
      rule.lastIndex = rule.firstIndex + rng.uniform(0, 2);
      if (rng.chance(0.5)) rule.probability = 0.6;
      if (rng.chance(0.4)) {
        rule.failCount = 1 + rng.uniform(0, 1);
        rule.recoverCount = 1 + rng.uniform(0, 2);
      }
      randomPlan->rules.push_back(rule);
    }

    const SessionOutcome faulty = runFaultySession(
        spec, seed, std::shared_ptr<const faults::FaultPlan>(randomPlan),
        views);
    EXPECT_FALSE(faulty.degradedStepMarked) << "seed " << seed;

    // The canonical plan: unconditionally drop exactly the hidden indices
    // the random plan degraded — nothing else.
    auto canonical = std::make_shared<faults::FaultPlan>();
    for (const std::uint64_t index : faulty.degradedHiddenIndices) {
      faults::FaultRule rule;
      rule.scope = faults::Scope::Hidden;
      rule.action = faults::Action::ConnectionDrop;
      rule.firstIndex = index;
      rule.lastIndex = index;
      canonical->rules.push_back(rule);
    }
    const SessionOutcome replay = runFaultySession(
        spec, seed, std::shared_ptr<const faults::FaultPlan>(canonical),
        views);

    EXPECT_EQ(replay.degradedHiddenIndices, faulty.degradedHiddenIndices)
        << "seed " << seed;
    EXPECT_EQ(replay.forcumState, faulty.forcumState) << "seed " << seed;
    EXPECT_EQ(replay.usefulKeys, faulty.usefulKeys) << "seed " << seed;
    EXPECT_FALSE(replay.degradedStepMarked) << "seed " << seed;
  }
}

// --- chaos soak --------------------------------------------------------------

// Run by the sanitizer configs in tools/check.sh with COOKIEPICKER_CHAOS=1
// (which scales the roster up and fans out to 8 workers): a fleet under an
// aggressive mixed fault plan must complete, stay race-free, and never let
// a degraded step mark cookies.
TEST(ChaosSoak, FleetSurvivesAggressiveFaultPlan) {
  const char* env = std::getenv("COOKIEPICKER_CHAOS");
  const bool chaos = env != nullptr && std::string_view(env) != "0";
  const int hosts = chaos ? 64 : 16;
  const auto roster = server::measurementRoster(hosts, 4242);
  const auto plan = planOf(
      "rule scope=hidden action=connection-drop fail=2 recover=3\n"
      "rule scope=hidden action=server-error status=502 p=0.25\n"
      "rule scope=container action=server-error p=0.1\n"
      "rule scope=subresource action=timeout extra-ms=400 p=0.1\n"
      "rule action=truncate-body truncate-at=700 p=0.15\n"
      "rule action=corrupt-set-cookie p=0.1\n"
      "rule action=slow-drip extra-ms=200 p=0.2\n");
  ASSERT_NE(plan, nullptr);

  testsupport::FleetRunOptions options;
  options.workers = chaos ? 8 : 4;
  options.viewsPerHost = 4;
  options.seed = 4242;
  options.collectObservability = true;
  options.faultPlan = plan;
  const fleet::FleetReport report =
      testsupport::runMeasurementFleet(roster, options);

  // The fleet finished every host despite the weather.
  EXPECT_EQ(report.pagesVisited, static_cast<std::uint64_t>(hosts) * 4u);
  const obs::MetricsSnapshot metrics = report.mergedMetrics();
  EXPECT_GT(metrics.counter(obs::Counter::NetworkFailuresInjected), 0u);
  EXPECT_GT(metrics.counter(obs::Counter::HiddenFetchRetries), 0u);
  EXPECT_GT(metrics.counter(obs::Counter::ForcumStepsSkipped), 0u);

  // The safety invariant under chaos: every audit record parses, and no
  // record that reports a degraded (skipped) step carries a mark.
  int parsed = 0;
  for (const std::string_view line : util::split(report.auditJsonl(), '\n')) {
    if (line.empty()) continue;
    const auto record = obs::parseAuditRecordLine(line);
    ASSERT_TRUE(record.has_value()) << line;
    ++parsed;
    if (!record->skippedReason.empty()) {
      EXPECT_TRUE(record->marked.empty()) << line;
    }
  }
  EXPECT_GT(parsed, 0);
}

}  // namespace
}  // namespace cookiepicker
