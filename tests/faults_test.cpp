// The deterministic fault-injection engine: plan format round-trips, every
// action observable at the dispatch boundary, schedule semantics (index
// windows, scopes, flapping, retry/logical-index sharing), determinism
// across identical runs, and the acceptance invariant — a faulty 64-host fleet is byte-identical for 1 vs
// 8 workers.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "faults/fault_plan.h"
#include "net/http.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "server/generator.h"
#include "test_support.h"

namespace cookiepicker {
namespace {

using testsupport::SimWorld;

std::shared_ptr<const faults::FaultPlan> planOf(const std::string& text) {
  const auto parsed = faults::FaultPlan::parse(text);
  EXPECT_TRUE(parsed.has_value()) << "unparseable plan:\n" << text;
  if (!parsed.has_value()) return nullptr;
  return std::make_shared<const faults::FaultPlan>(*parsed);
}

net::HttpRequest makeRequest(const std::string& url,
                             net::RequestKind kind = net::RequestKind::Container,
                             int attempt = 0) {
  net::HttpRequest request;
  const auto parsed = net::Url::parse(url);
  EXPECT_TRUE(parsed.has_value()) << url;
  if (parsed.has_value()) request.url = *parsed;
  request.kind = kind;
  request.attempt = attempt;
  return request;
}

// --- plan format -------------------------------------------------------------

TEST(FaultPlanFormat, SerializeParseRoundTrips) {
  faults::FaultPlan plan;
  faults::FaultRule drop;
  drop.host = "shop.example";
  drop.scope = faults::Scope::Hidden;
  drop.action = faults::Action::ConnectionDrop;
  drop.firstIndex = 2;
  drop.lastIndex = 5;
  drop.failCount = 2;
  drop.recoverCount = 3;
  drop.probability = 0.25;
  plan.rules.push_back(drop);
  faults::FaultRule error;
  error.action = faults::Action::ServerError;
  error.status = 502;
  plan.rules.push_back(error);
  faults::FaultRule truncate;
  truncate.scope = faults::Scope::Subresource;
  truncate.action = faults::Action::TruncateBody;
  truncate.truncateAtBytes = 77;
  plan.rules.push_back(truncate);
  faults::FaultRule timeout;
  timeout.action = faults::Action::Timeout;
  timeout.extraLatencyMs = 1234.5;
  plan.rules.push_back(timeout);
  faults::FaultRule corrupt;
  corrupt.scope = faults::Scope::Container;
  corrupt.action = faults::Action::CorruptSetCookie;
  plan.rules.push_back(corrupt);
  faults::FaultRule drip;
  drip.action = faults::Action::SlowDrip;
  drip.extraLatencyMs = 250.0;
  plan.rules.push_back(drip);

  const std::string text = plan.serialize();
  EXPECT_NE(text.find("# cookiepicker fault plan v1"), std::string::npos);
  // kAllRequests renders as the symbolic form, not a magic number.
  EXPECT_NE(text.find("last=max"), std::string::npos);

  const auto reparsed = faults::FaultPlan::parse(text);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(*reparsed, plan);
  // And the round trip is a fixed point: serialize(parse(serialize)) is
  // byte-identical, so plans can be diffed and stored canonically.
  EXPECT_EQ(reparsed->serialize(), text);
}

TEST(FaultPlanFormat, ParserAcceptsAnyKeyOrderCommentsAndBlanks) {
  const auto plan = faults::FaultPlan::parse(
      "# hand-written plan\n"
      "\n"
      "rule p=0.5 action=timeout host=a.example extra-ms=50 scope=hidden\n"
      "   \n"
      "rule action=server-error\n");
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->rules.size(), 2u);
  const faults::FaultRule& rule = plan->rules[0];
  EXPECT_EQ(rule.host, "a.example");
  EXPECT_EQ(rule.scope, faults::Scope::Hidden);
  EXPECT_EQ(rule.action, faults::Action::Timeout);
  EXPECT_DOUBLE_EQ(rule.probability, 0.5);
  EXPECT_DOUBLE_EQ(rule.extraLatencyMs, 50.0);
  // Unspecified keys keep their defaults.
  EXPECT_EQ(rule.firstIndex, 0u);
  EXPECT_EQ(rule.lastIndex, faults::kAllRequests);
  EXPECT_EQ(rule.failCount, 0u);
  EXPECT_EQ(plan->rules[1].host, "*");
}

TEST(FaultPlanFormat, ParserRejectsMalformedRules) {
  const char* bad[] = {
      "rule",                                   // action is mandatory
      "rule action=server-error bogus=1",       // unknown key
      "rule action=server-error action=timeout",  // duplicate key
      "rule action=no-such-action",
      "rule action=server-error scope=weird",
      "rule action=server-error p=1.5",
      "rule action=server-error p=-0.1",
      "rule action=server-error status=99",
      "rule action=server-error status=600",
      "rule action=server-error first=5 last=2",
      "rule action=timeout extra-ms=-5",
      "rule action=server-error host=",         // empty host
      "fault action=server-error",              // first token must be `rule`
  };
  for (const char* text : bad) {
    EXPECT_FALSE(faults::FaultPlan::parse(text).has_value()) << text;
  }
}

TEST(FaultPlanFormat, UniformFailureIsOneWildcard503Rule) {
  const auto plan = faults::FaultPlan::uniformFailure(0.3);
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(plan->rules.size(), 1u);
  const faults::FaultRule& rule = plan->rules[0];
  EXPECT_EQ(rule.host, "*");
  EXPECT_EQ(rule.scope, faults::Scope::Any);
  EXPECT_EQ(rule.action, faults::Action::ServerError);
  EXPECT_EQ(rule.status, 503);
  EXPECT_DOUBLE_EQ(rule.probability, 0.3);
  // Out-of-range probabilities clamp instead of producing invalid plans.
  EXPECT_DOUBLE_EQ(faults::FaultPlan::uniformFailure(7.0)->rules[0].probability,
                   1.0);
  EXPECT_DOUBLE_EQ(
      faults::FaultPlan::uniformFailure(-2.0)->rules[0].probability, 0.0);
}

// --- every action at the dispatch boundary -----------------------------------

TEST(FaultDispatch, ServerErrorShortCircuitsWithLegacy503Bytes) {
  SimWorld world;
  const auto spec = world.addGenericSite("err.example");
  world.network.setFaultPlan(planOf("rule action=server-error"));
  const net::Exchange exchange =
      world.network.dispatch(makeRequest(world.urlFor(spec)));
  EXPECT_EQ(exchange.response.status, 503);
  EXPECT_EQ(exchange.response.statusText, "Service Unavailable");
  // Byte-compatible with the error page the legacy knob used to fabricate.
  EXPECT_EQ(exchange.response.body,
            "<html><body><h1>503 Service Unavailable</h1></body></html>");
  EXPECT_STREQ(exchange.injectedFault, "server-error");
  EXPECT_EQ(world.network.injectedFailures(), 1u);

  world.network.setFaultPlan(planOf("rule action=server-error status=502"));
  const net::Exchange badGateway =
      world.network.dispatch(makeRequest(world.urlFor(spec)));
  EXPECT_EQ(badGateway.response.status, 502);
  EXPECT_EQ(badGateway.response.body,
            "<html><body><h1>502 Server Error</h1></body></html>");
}

TEST(FaultDispatch, ConnectionDropIsTransportLevelFailure) {
  SimWorld world;
  const auto spec = world.addGenericSite("drop.example");
  world.network.setFaultPlan(planOf("rule action=connection-drop"));
  const net::Exchange exchange =
      world.network.dispatch(makeRequest(world.urlFor(spec)));
  EXPECT_EQ(exchange.response.status, 0);
  EXPECT_EQ(exchange.response.statusText, "connection dropped");
  EXPECT_TRUE(exchange.response.body.empty());
  EXPECT_STREQ(exchange.injectedFault, "connection-drop");
}

TEST(FaultDispatch, TimeoutBurnsTheDeadlineBeforeFailing) {
  SimWorld world;
  const auto spec = world.addGenericSite("slow.example");
  world.network.setFaultPlan(planOf("rule action=timeout extra-ms=2500"));
  const net::Exchange exchange =
      world.network.dispatch(makeRequest(world.urlFor(spec)));
  EXPECT_EQ(exchange.response.status, 0);
  EXPECT_EQ(exchange.response.statusText, "timeout");
  EXPECT_GE(exchange.latencyMs, 2500.0);  // deadline + transit latency
  EXPECT_STREQ(exchange.injectedFault, "timeout");
}

TEST(FaultDispatch, TruncateBodyCutsPayloadButDeclaresFullLength) {
  // Two same-seed worlds: the truncated body must be a strict prefix of
  // the clean one, and the declared Content-Length must still name the
  // original size — that mismatch is what makes truncation detectable.
  SimWorld clean(7);
  SimWorld faulty(7);
  const auto spec = clean.addGenericSite("cut.example");
  faulty.addGenericSite("cut.example");
  faulty.network.setFaultPlan(planOf("rule action=truncate-body truncate-at=64"));

  const net::Exchange whole = clean.network.dispatch(makeRequest(clean.urlFor(spec)));
  const net::Exchange cut = faulty.network.dispatch(makeRequest(faulty.urlFor(spec)));
  ASSERT_GT(whole.response.body.size(), 64u);
  EXPECT_EQ(cut.response.body.size(), 64u);
  EXPECT_EQ(cut.response.body, whole.response.body.substr(0, 64));
  EXPECT_EQ(cut.response.headers.get("Content-Length").value_or(""),
            std::to_string(whole.response.body.size()));
  EXPECT_STREQ(cut.injectedFault, "truncate-body");
}

TEST(FaultDispatch, IneffectiveTruncationIsNotCountedAsInjected) {
  SimWorld world;
  const auto spec = world.addGenericSite("cut.example");
  world.network.setFaultPlan(
      planOf("rule action=truncate-body truncate-at=1048576"));
  const net::Exchange exchange =
      world.network.dispatch(makeRequest(world.urlFor(spec)));
  // The body was already shorter than the cut point: nothing changed, so
  // nothing is reported as a fault.
  EXPECT_EQ(exchange.injectedFault, nullptr);
  EXPECT_EQ(world.network.injectedFailures(), 0u);
  EXPECT_EQ(exchange.response.status, 200);
}

TEST(FaultDispatch, CorruptSetCookieMangledHeaderOnly) {
  SimWorld clean(9);
  SimWorld faulty(9);
  const auto spec = clean.addGenericSite("mangle.example");
  faulty.addGenericSite("mangle.example");
  faulty.network.setFaultPlan(planOf("rule action=corrupt-set-cookie"));

  const net::Exchange good = clean.network.dispatch(makeRequest(clean.urlFor(spec)));
  const net::Exchange bad = faulty.network.dispatch(makeRequest(faulty.urlFor(spec)));
  const auto goodCookies = good.response.setCookieHeaders();
  const auto badCookies = bad.response.setCookieHeaders();
  ASSERT_FALSE(goodCookies.empty());  // the site does set cookies here
  ASSERT_EQ(badCookies.size(), goodCookies.size());
  EXPECT_NE(badCookies, goodCookies);
  // Only the Set-Cookie headers were touched.
  EXPECT_EQ(bad.response.body, good.response.body);
  EXPECT_EQ(bad.response.status, good.response.status);
  EXPECT_STREQ(bad.injectedFault, "corrupt-set-cookie");
}

TEST(FaultDispatch, SlowDripAddsExactlyTheConfiguredDelay) {
  SimWorld clean(13);
  SimWorld faulty(13);
  const auto spec = clean.addGenericSite("drip.example");
  faulty.addGenericSite("drip.example");
  faulty.network.setFaultPlan(planOf("rule action=slow-drip extra-ms=750"));

  const net::Exchange fast = clean.network.dispatch(makeRequest(clean.urlFor(spec)));
  const net::Exchange slow = faulty.network.dispatch(makeRequest(faulty.urlFor(spec)));
  // Same seed, same latency draw: the delta is exactly the drip delay, and
  // the payload is untouched.
  EXPECT_DOUBLE_EQ(slow.latencyMs, fast.latencyMs + 750.0);
  EXPECT_EQ(slow.response.body, fast.response.body);
  EXPECT_STREQ(slow.injectedFault, "slow-drip");
}

// --- schedule semantics ------------------------------------------------------

TEST(FaultSchedule, IndexWindowTargetsSpecificRequests) {
  SimWorld world;
  const auto spec = world.addGenericSite("window.example");
  world.network.setFaultPlan(planOf("rule action=server-error first=2 last=3"));
  std::vector<int> statuses;
  for (int i = 0; i < 6; ++i) {
    statuses.push_back(
        world.network.dispatch(makeRequest(world.urlFor(spec))).response.status);
  }
  EXPECT_EQ(statuses, (std::vector<int>{200, 200, 503, 503, 200, 200}));
}

TEST(FaultSchedule, ScopeRestrictsToRequestKind) {
  SimWorld world;
  const auto spec = world.addGenericSite("scope.example");
  world.network.setFaultPlan(planOf("rule scope=hidden action=connection-drop"));
  EXPECT_EQ(world.network
                .dispatch(makeRequest(world.urlFor(spec),
                                      net::RequestKind::Container))
                .response.status,
            200);
  EXPECT_EQ(world.network
                .dispatch(makeRequest(world.urlFor(spec),
                                      net::RequestKind::Subresource))
                .response.status,
            200);
  EXPECT_EQ(world.network
                .dispatch(
                    makeRequest(world.urlFor(spec), net::RequestKind::Hidden))
                .response.status,
            0);
}

TEST(FaultSchedule, FlappingFailsKThenRecovers) {
  SimWorld world;
  const auto spec = world.addGenericSite("flap.example");
  world.network.setFaultPlan(
      planOf("rule action=connection-drop fail=2 recover=3"));
  std::vector<int> statuses;
  for (int i = 0; i < 10; ++i) {
    statuses.push_back(
        world.network.dispatch(makeRequest(world.urlFor(spec))).response.status);
  }
  EXPECT_EQ(statuses,
            (std::vector<int>{0, 0, 200, 200, 200, 0, 0, 200, 200, 200}));
}

TEST(FaultSchedule, RetriesShareTheFirstAttemptsLogicalIndex) {
  SimWorld world;
  const auto spec = world.addGenericSite("retry.example");
  world.network.setFaultPlan(
      planOf("rule action=connection-drop first=1 last=1"));
  const std::string url = world.urlFor(spec);
  EXPECT_EQ(world.network.dispatch(makeRequest(url)).response.status, 200);
  // Logical request #1 fails — and so does every retry of it: a retry
  // carries attempt > 0 and therefore re-hits the same schedule slot
  // instead of consuming the next one.
  EXPECT_EQ(world.network
                .dispatch(makeRequest(url, net::RequestKind::Container, 0))
                .response.status,
            0);
  EXPECT_EQ(world.network
                .dispatch(makeRequest(url, net::RequestKind::Container, 1))
                .response.status,
            0);
  EXPECT_EQ(world.network
                .dispatch(makeRequest(url, net::RequestKind::Container, 2))
                .response.status,
            0);
  // The next fresh request is logical #2, outside the window.
  EXPECT_EQ(world.network.dispatch(makeRequest(url)).response.status, 200);
}

TEST(FaultSchedule, HostScopedRuleLeavesOtherHostsAlone) {
  SimWorld world;
  const auto sick = world.addGenericSite("sick.example");
  const auto healthy = world.addGenericSite("healthy.example", 8);
  world.network.setFaultPlan(
      planOf("rule host=sick.example action=server-error"));
  EXPECT_EQ(world.network.dispatch(makeRequest(world.urlFor(sick)))
                .response.status,
            503);
  EXPECT_EQ(world.network.dispatch(makeRequest(world.urlFor(healthy)))
                .response.status,
            200);
}

TEST(FaultSchedule, ReinstallingAPlanRestartsItsSchedule) {
  SimWorld world;
  const auto spec = world.addGenericSite("restart.example");
  const std::string text = "rule action=server-error first=0 last=0";
  world.network.setFaultPlan(planOf(text));
  EXPECT_EQ(world.network.dispatch(makeRequest(world.urlFor(spec)))
                .response.status,
            503);
  EXPECT_EQ(world.network.dispatch(makeRequest(world.urlFor(spec)))
                .response.status,
            200);
  // A new setFaultPlan — even of an identical plan — is a new schedule
  // generation: logical indices and flap cursors start over.
  world.network.setFaultPlan(planOf(text));
  EXPECT_EQ(world.network.dispatch(makeRequest(world.urlFor(spec)))
                .response.status,
            503);
}

TEST(FaultSchedule, ProbabilisticPlansReplayIdentically) {
  const std::string planText =
      "rule action=connection-drop p=0.4\n"
      "rule action=slow-drip extra-ms=100 p=0.5\n";
  auto run = [&](std::uint64_t seed) {
    SimWorld world(seed);
    const auto spec = world.addGenericSite("replay.example");
    world.network.setFaultPlan(planOf(planText));
    std::vector<std::string> transcript;
    for (int i = 0; i < 40; ++i) {
      const net::Exchange exchange =
          world.network.dispatch(makeRequest(world.urlFor(spec)));
      transcript.push_back(
          std::to_string(exchange.response.status) + "/" +
          std::to_string(exchange.latencyMs) + "/" +
          (exchange.injectedFault == nullptr ? "clean" : exchange.injectedFault));
    }
    return transcript;
  };
  const auto first = run(99);
  const auto second = run(99);
  EXPECT_EQ(first, second);
  // And the plan actually bites on this stream: both outcomes occur.
  int drops = 0, cleans = 0;
  for (const std::string& entry : first) {
    if (entry.find("connection-drop") != std::string::npos) ++drops;
    if (entry.find("clean") != std::string::npos) ++cleans;
  }
  EXPECT_GT(drops, 0);
  EXPECT_GT(cleans, 0);
}

// --- traffic counters --------------------------------------------------------

TEST(NetworkCounters, ResetPreservesInjectedFailures) {
  SimWorld world;
  const auto spec = world.addGenericSite("count.example");
  world.network.setFaultPlan(planOf("rule action=server-error"));
  for (int i = 0; i < 3; ++i) {
    world.network.dispatch(makeRequest(world.urlFor(spec)));
  }
  EXPECT_EQ(world.network.injectedFailures(), 3u);
  EXPECT_EQ(world.network.snapshotCounters().requests, 3u);

  // The documented contract: resetCounters() zeroes the traffic counters
  // but never injectedFailures, whose consumers track deltas themselves.
  world.network.resetCounters();
  const net::Network::TrafficCounters counters = world.network.snapshotCounters();
  EXPECT_EQ(counters.requests, 0u);
  EXPECT_EQ(counters.bytes, 0u);
  EXPECT_EQ(counters.injectedFailures, 3u);
  world.network.dispatch(makeRequest(world.urlFor(spec)));
  EXPECT_EQ(world.network.injectedFailures(), 4u);
}

// --- fleet determinism under faults ------------------------------------------

// The PR's acceptance invariant: an aggressive plan over a 64-host fleet
// produces byte-identical state, jar, deterministic metrics, and audit
// bytes whether 1 worker or 8 raced through the roster.
TEST(FaultFleet, FaultyFleetByteIdenticalForOneVsEightWorkers) {
  const auto roster = server::measurementRoster(64, 2026);
  const auto plan = planOf(
      "rule scope=hidden action=connection-drop fail=1 recover=3\n"
      "rule scope=subresource action=slow-drip extra-ms=120 p=0.2\n"
      "rule scope=container action=server-error p=0.05\n"
      "rule action=truncate-body truncate-at=900 p=0.1\n");
  ASSERT_NE(plan, nullptr);

  testsupport::FleetRunOptions options;
  options.viewsPerHost = 4;
  options.seed = 2026;
  options.collectObservability = true;
  options.faultPlan = plan;
  options.workers = 1;
  const fleet::FleetReport serial = testsupport::runMeasurementFleet(roster, options);
  options.workers = 8;
  const fleet::FleetReport parallel =
      testsupport::runMeasurementFleet(roster, options);

  EXPECT_EQ(serial.serializeState(), parallel.serializeState());
  EXPECT_EQ(serial.mergedJar().serialize(), parallel.mergedJar().serialize());
  EXPECT_EQ(serial.mergedMetrics().deterministicJson(),
            parallel.mergedMetrics().deterministicJson());
  EXPECT_EQ(serial.auditJsonl(), parallel.auditJsonl());

  // The run was genuinely faulty, not a vacuous pass.
  const obs::MetricsSnapshot metrics = serial.mergedMetrics();
  EXPECT_GT(metrics.counter(obs::Counter::FaultConnectionDrops), 0u);
  EXPECT_GT(metrics.counter(obs::Counter::HiddenFetchRetries), 0u);
  EXPECT_GT(metrics.counter(obs::Counter::NetworkFailuresInjected), 0u);
}

}  // namespace
}  // namespace cookiepicker
