// End-to-end socket-tier tests: OriginTier + AsyncHttpClient +
// SocketTransport against the sim Network as the reference.
//
// The central claim of the serve module is that everything above the
// net::Transport seam cannot tell the two transports apart except by
// timing: same bodies, same Set-Cookie headers (even corrupted ones —
// both sides draw from the same forked RNG stream), same failure
// vocabulary for drops/timeouts/truncations. Each test here builds the
// same synthetic site twice — once behind the sim, once behind a real
// loopback listener — runs identical request sequences, and compares.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "faults/fault_plan.h"
#include "net/http.h"
#include "net/network.h"
#include "net/transport.h"
#include "net/url.h"
#include "obs/metrics.h"
#include "serve/async_client.h"
#include "serve/event_loop.h"
#include "serve/origin_tier.h"
#include "serve/socket_transport.h"
#include "server/generator.h"
#include "server/site.h"
#include "util/clock.h"

namespace cookiepicker {
namespace {

constexpr std::uint64_t kSeed = 2007;

server::SiteSpec cookieSpec(const std::string& label,
                            const std::string& domain) {
  server::SiteSpec spec = server::makeGenericSpec(label, domain, 42);
  spec.preferenceCookies = 2;
  spec.containerTrackers = 1;
  return spec;
}

net::HttpRequest makeRequest(const std::string& host, const std::string& path,
                             net::RequestKind kind = net::RequestKind::Hidden) {
  net::HttpRequest request;
  request.url = net::Url::parse("http://" + host + path).value();
  request.kind = kind;
  return request;
}

std::shared_ptr<const faults::FaultPlan> onePlan(faults::FaultRule rule) {
  auto plan = std::make_shared<faults::FaultPlan>();
  plan->rules.push_back(std::move(rule));
  return plan;
}

// The sim reference: same sites, same seed, virtual latency.
struct SimRig {
  util::SimClock siteClock;  // never advanced: page bytes depend only on
                             // per-site counters, matching the socket side
  net::Network network{kSeed};

  explicit SimRig(const std::vector<server::SiteSpec>& specs) {
    for (const auto& spec : specs) {
      network.registerHost(spec.domain, server::buildSite(spec, siteClock),
                           spec.latencyProfile());
    }
  }
};

// The system under test: sites behind real loopback listeners, fetched
// through the epoll client. Declaration order makes teardown natural:
// the client dies before its loop, which ~AsyncHttpClient handles by
// draining its state on the still-running loop thread.
struct SocketRig {
  util::SimClock siteClock;
  std::unique_ptr<serve::OriginTier> tier;
  std::unique_ptr<serve::LoopThread> loopThread;
  std::unique_ptr<serve::AsyncHttpClient> client;
  std::unique_ptr<serve::SocketTransport> transport;

  explicit SocketRig(const std::vector<server::SiteSpec>& specs,
                     serve::OriginTierConfig tierConfig = {},
                     serve::AsyncClientConfig clientConfig = {}) {
    tierConfig.seed = kSeed;
    tier = std::make_unique<serve::OriginTier>(tierConfig);
    for (const auto& spec : specs) {
      tier->addHost(spec.domain, server::buildSite(spec, siteClock));
    }
    tier->start();
    loopThread = std::make_unique<serve::LoopThread>();
    clientConfig.resolve = tier->resolver();
    client =
        std::make_unique<serve::AsyncHttpClient>(loopThread->loop(),
                                                 clientConfig);
    transport = std::make_unique<serve::SocketTransport>(*client);
  }
};

void expectSameContent(const net::Exchange& sim, const net::Exchange& socket,
                       const std::string& what) {
  EXPECT_EQ(sim.response.status, socket.response.status) << what;
  EXPECT_EQ(sim.response.statusText, socket.response.statusText) << what;
  EXPECT_EQ(sim.response.body, socket.response.body) << what;
  EXPECT_EQ(sim.response.headers.getAll("Set-Cookie"),
            socket.response.headers.getAll("Set-Cookie"))
      << what;
}

TEST(ServeE2E, CleanContentMatchesSimByteForByte) {
  const auto spec = cookieSpec("E1", "e1.serve.example");
  SimRig sim({spec});
  SocketRig rig({spec});

  for (int i = 0; i < 8; ++i) {
    const std::string path = "/page" + std::to_string(i % 4);
    const auto kind = (i % 4 == 0) ? net::RequestKind::Container
                                   : net::RequestKind::Hidden;
    const net::HttpRequest request = makeRequest(spec.domain, path, kind);
    const net::Exchange simmed = sim.network.dispatch(request);
    const net::Exchange socketed = rig.transport->dispatch(request);
    expectSameContent(simmed, socketed, path + " #" + std::to_string(i));
    // Same accounting convention on both sides: the wire size of the
    // response as received. (The socket response carries a Content-Length
    // header sim handlers never set, so the absolute numbers differ.)
    EXPECT_EQ(socketed.responseBytes,
              net::toWireFormat(socketed.response).size());
    EXPECT_EQ(simmed.responseBytes,
              net::toWireFormat(simmed.response).size());
  }
}

TEST(ServeE2E, PipelinedBatchMatchesSequentialSim) {
  const auto spec = cookieSpec("E2", "e2.serve.example");
  SimRig sim({spec});
  serve::AsyncClientConfig clientConfig;
  clientConfig.maxConnectionsPerHost = 1;  // one wire: pipeline order ==
  clientConfig.maxPipelineDepth = 8;       // batch order == sim order
  SocketRig rig({spec}, {}, clientConfig);

  std::vector<net::HttpRequest> batch;
  for (int i = 0; i < 12; ++i) {
    batch.push_back(
        makeRequest(spec.domain, "/page" + std::to_string(i % 4)));
  }
  const std::vector<net::Exchange> socketed =
      rig.transport->dispatchBatch(batch);
  ASSERT_EQ(socketed.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const net::Exchange simmed = sim.network.dispatch(batch[i]);
    expectSameContent(simmed, socketed[i], "batch #" + std::to_string(i));
  }
}

TEST(ServeE2E, KeepAliveReuseStaysHigh) {
  const auto spec = cookieSpec("E3", "e3.serve.example");
  SocketRig rig({spec});

  std::vector<net::HttpRequest> batch;
  for (int i = 0; i < 60; ++i) {
    batch.push_back(
        makeRequest(spec.domain, "/page" + std::to_string(i % 6)));
  }
  for (int round = 0; round < 2; ++round) {
    for (const net::Exchange& exchange : rig.transport->dispatchBatch(batch)) {
      EXPECT_EQ(exchange.response.status, 200);
    }
  }
  const serve::AsyncClientStats stats = rig.client->stats();
  EXPECT_EQ(stats.dispatches, 120u);
  EXPECT_LE(stats.connectionsOpened, 6u);  // per-host cap holds
  EXPECT_GE(stats.reuseRatio(), 0.9);
}

TEST(ServeE2E, ServerErrorFaultIsByteIdenticalAndSkipsHandler) {
  const auto spec = cookieSpec("E4", "e4.serve.example");
  faults::FaultRule rule;
  rule.action = faults::Action::ServerError;
  rule.status = 503;
  rule.lastIndex = 0;  // first request per scope only
  const auto plan = onePlan(rule);

  SimRig sim({spec});
  sim.network.setFaultPlan(plan);
  serve::OriginTierConfig tierConfig;
  tierConfig.faultPlan = plan;
  SocketRig rig({spec}, tierConfig);

  const net::HttpRequest request = makeRequest(spec.domain, "/page0");
  const net::Exchange simErr = sim.network.dispatch(request);
  const net::Exchange sockErr = rig.transport->dispatch(request);
  EXPECT_EQ(sockErr.response.status, 503);
  EXPECT_EQ(sockErr.response.statusText, "Service Unavailable");
  EXPECT_EQ(sockErr.response.body,
            "<html><body><h1>503 Service Unavailable</h1></body></html>");
  expectSameContent(simErr, sockErr, "faulted");

  // The faulted request must not have advanced the site's fetch counter on
  // either side: the next (clean) responses still agree byte-for-byte.
  expectSameContent(sim.network.dispatch(request),
                    rig.transport->dispatch(request), "after fault");
}

TEST(ServeE2E, ConnectionDropSpeaksSimVocabulary) {
  const auto spec = cookieSpec("E5", "e5.serve.example");
  faults::FaultRule rule;
  rule.action = faults::Action::ConnectionDrop;
  rule.lastIndex = 0;
  serve::OriginTierConfig tierConfig;
  tierConfig.faultPlan = onePlan(rule);
  SocketRig rig({spec}, tierConfig);

  const net::Exchange dropped =
      rig.transport->dispatch(makeRequest(spec.domain, "/page0"));
  EXPECT_EQ(dropped.response.status, 0);
  EXPECT_EQ(dropped.response.statusText, "connection dropped");
  EXPECT_TRUE(dropped.response.body.empty());
  EXPECT_EQ(net::fetchFailureReason(dropped.response), "connection dropped");

  // Recovery: the very next request (index 1) is clean.
  EXPECT_EQ(
      rig.transport->dispatch(makeRequest(spec.domain, "/page0"))
          .response.status,
      200);
  EXPECT_GE(rig.client->stats().drops, 1u);
}

TEST(ServeE2E, ClientDeadlineTurnsSilenceIntoTimeout) {
  const auto spec = cookieSpec("E6", "e6.serve.example");
  faults::FaultRule rule;
  rule.action = faults::Action::Timeout;
  rule.extraLatencyMs = 5000.0;  // server sits silent far past our deadline
  rule.lastIndex = 0;
  serve::OriginTierConfig tierConfig;
  tierConfig.faultPlan = onePlan(rule);
  serve::AsyncClientConfig clientConfig;
  clientConfig.requestDeadlineMs = 80.0;
  SocketRig rig({spec}, tierConfig, clientConfig);

  const net::Exchange timedOut =
      rig.transport->dispatch(makeRequest(spec.domain, "/page0"));
  EXPECT_EQ(timedOut.response.status, 0);
  EXPECT_EQ(timedOut.response.statusText, "timeout");
  EXPECT_EQ(net::fetchFailureReason(timedOut.response), "timeout");
  EXPECT_GE(rig.client->stats().timeouts, 1u);
}

TEST(ServeE2E, TruncatedBodyKeepsTheLyingContentLength) {
  const auto spec = cookieSpec("E7", "e7.serve.example");
  faults::FaultRule rule;
  rule.action = faults::Action::TruncateBody;
  rule.truncateAtBytes = 64;
  rule.lastIndex = 0;
  const auto plan = onePlan(rule);

  SimRig sim({spec});
  sim.network.setFaultPlan(plan);
  serve::OriginTierConfig tierConfig;
  tierConfig.faultPlan = plan;
  SocketRig rig({spec}, tierConfig);

  const net::HttpRequest request = makeRequest(spec.domain, "/page0");
  const net::Exchange simCut = sim.network.dispatch(request);
  const net::Exchange sockCut = rig.transport->dispatch(request);
  EXPECT_EQ(sockCut.response.body.size(), 64u);
  EXPECT_EQ(simCut.response.body, sockCut.response.body);
  EXPECT_EQ(simCut.response.headers.get("Content-Length"),
            sockCut.response.headers.get("Content-Length"));
  EXPECT_TRUE(net::bodyTruncated(sockCut.response));
  EXPECT_EQ(net::fetchFailureReason(sockCut.response), "truncated-body");
}

TEST(ServeE2E, CorruptedSetCookieMatchesSimDrawForDraw) {
  const auto spec = cookieSpec("E8", "e8.serve.example");
  faults::FaultRule rule;
  rule.action = faults::Action::CorruptSetCookie;
  rule.lastIndex = 0;
  const auto plan = onePlan(rule);

  SimRig sim({spec});
  sim.network.setFaultPlan(plan);
  serve::OriginTierConfig tierConfig;
  tierConfig.faultPlan = plan;
  SocketRig rig({spec}, tierConfig);
  SocketRig clean({spec});  // no plan: the pristine reference

  // Container request: the page that actually sets cookies.
  const net::HttpRequest request =
      makeRequest(spec.domain, "/page0", net::RequestKind::Container);
  const auto pristine =
      clean.transport->dispatch(request).response.headers.getAll("Set-Cookie");
  ASSERT_FALSE(pristine.empty());

  const auto simCookies =
      sim.network.dispatch(request).response.headers.getAll("Set-Cookie");
  const auto sockCookies =
      rig.transport->dispatch(request).response.headers.getAll("Set-Cookie");
  // Both sides corrupt with Pcg32(seed, net-stream).fork(host) on its first
  // draws, so even the garbage agrees byte-for-byte — and differs from the
  // pristine values.
  EXPECT_EQ(simCookies, sockCookies);
  EXPECT_NE(sockCookies, pristine);
}

TEST(ServeE2E, SlowDripDeliversTheFullBodyInPieces) {
  const auto spec = cookieSpec("E9", "e9.serve.example");
  faults::FaultRule rule;
  rule.action = faults::Action::SlowDrip;
  rule.extraLatencyMs = 40.0;
  rule.lastIndex = 0;
  serve::OriginTierConfig tierConfig;
  tierConfig.faultPlan = onePlan(rule);
  SocketRig rig({spec}, tierConfig);
  SocketRig clean({spec});

  const net::HttpRequest request = makeRequest(spec.domain, "/page0");
  const net::Exchange dripped = rig.transport->dispatch(request);
  const net::Exchange reference = clean.transport->dispatch(request);
  EXPECT_EQ(dripped.response.status, 200);
  EXPECT_EQ(dripped.response.body, reference.response.body);
  EXPECT_GE(dripped.latencyMs, 25.0);  // spread over the rule's extra-ms
}

TEST(ServeE2E, WheelRetryRecoversFromAFlappingOrigin) {
  const auto spec = cookieSpec("E10", "e10.serve.example");
  faults::FaultRule rule;
  rule.action = faults::Action::ConnectionDrop;
  rule.failCount = 1;  // drop one, recover for three, repeat
  rule.recoverCount = 3;
  serve::OriginTierConfig tierConfig;
  tierConfig.faultPlan = onePlan(rule);
  SocketRig rig({spec}, tierConfig);

  net::RetrySpec spec2;
  spec2.maxAttempts = 3;
  spec2.initialBackoffMs = 5.0;
  spec2.maxBackoffMs = 20.0;
  spec2.retryBudget = 5;
  const net::FetchOutcome outcome = rig.transport->dispatchWithRetry(
      makeRequest(spec.domain, "/page0"), spec2);
  EXPECT_EQ(outcome.exchange.response.status, 200);
  EXPECT_EQ(outcome.attempts, 2);
  EXPECT_EQ(outcome.retriesUsed, 1);
  EXPECT_FALSE(outcome.degraded);
  EXPECT_TRUE(outcome.failureReason.empty());
  EXPECT_GE(rig.client->stats().retriesScheduled, 1u);
}

TEST(ServeE2E, RetryExhaustionReportsDegradedAndBudget) {
  const auto spec = cookieSpec("E11", "e11.serve.example");
  faults::FaultRule rule;
  rule.action = faults::Action::ConnectionDrop;  // every request, forever
  serve::OriginTierConfig tierConfig;
  tierConfig.faultPlan = onePlan(rule);
  SocketRig rig({spec}, tierConfig);

  net::RetrySpec retry;
  retry.maxAttempts = 2;
  retry.initialBackoffMs = 2.0;
  retry.maxBackoffMs = 8.0;
  retry.retryBudget = 5;
  net::FetchOutcome degraded = rig.transport->dispatchWithRetry(
      makeRequest(spec.domain, "/page0"), retry);
  EXPECT_EQ(degraded.exchange.response.status, 0);
  EXPECT_EQ(degraded.attempts, 2);
  EXPECT_TRUE(degraded.degraded);
  EXPECT_FALSE(degraded.budgetExhausted);  // ceiling hit, not budget
  EXPECT_EQ(degraded.failureReason, "connection dropped");

  retry.maxAttempts = 3;
  retry.retryBudget = 0;  // no budget: first failure is final
  net::FetchOutcome broke = rig.transport->dispatchWithRetry(
      makeRequest(spec.domain, "/page1"), retry);
  EXPECT_EQ(broke.attempts, 1);
  EXPECT_TRUE(broke.degraded);
  EXPECT_TRUE(broke.budgetExhausted);
}

TEST(ServeE2E, UnknownHostSynthesizes404LikeTheSim) {
  const auto spec = cookieSpec("E12", "e12.serve.example");
  SimRig sim({spec});
  SocketRig rig({spec});

  const net::HttpRequest request =
      makeRequest("nowhere.serve.example", "/page0");
  const net::Exchange simmed = sim.network.dispatch(request);
  const net::Exchange socketed = rig.transport->dispatch(request);
  EXPECT_EQ(socketed.response.status, 404);
  EXPECT_EQ(simmed.response.status, socketed.response.status);
  EXPECT_EQ(simmed.response.body, socketed.response.body);
}

TEST(ServeE2E, HostsShardAcrossOriginThreads) {
  std::vector<server::SiteSpec> specs;
  for (int i = 0; i < 6; ++i) {
    const std::string label = "M" + std::to_string(i);
    specs.push_back(
        cookieSpec(label, "m" + std::to_string(i) + ".serve.example"));
  }
  // Clean, then with a server-error plan: the tier's one plan slot must
  // reach the hosts on every shard.
  faults::FaultRule serverError;
  serverError.action = faults::Action::ServerError;
  for (const auto& plan : {std::shared_ptr<const faults::FaultPlan>(),
                           onePlan(serverError)}) {
    SCOPED_TRACE(plan ? "server-error plan" : "no plan");
    serve::OriginTierConfig tierConfig;
    tierConfig.threads = 3;
    tierConfig.faultPlan = plan;
    serve::AsyncClientConfig clientConfig;
    clientConfig.maxConnectionsPerHost = 1;  // keep per-host arrival order
    clientConfig.maxPipelineDepth = 4;       // equal to batch order
    SimRig sim(specs);
    sim.network.setFaultPlan(plan);
    SocketRig rig(specs, tierConfig, clientConfig);
    EXPECT_EQ(rig.tier->threads(), 3);

    std::vector<net::HttpRequest> batch;
    for (int round = 0; round < 3; ++round) {
      for (const auto& spec : specs) {
        batch.push_back(makeRequest(spec.domain, "/page0"));
      }
    }
    const std::vector<net::Exchange> socketed =
        rig.transport->dispatchBatch(batch);
    ASSERT_EQ(socketed.size(), batch.size());
    // Per-host request order is deterministic even with the batch fanned
    // out across shards: each host still sees its own requests in batch
    // order.
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const net::Exchange simmed = sim.network.dispatch(batch[i]);
      expectSameContent(simmed, socketed[i],
                        "shard batch #" + std::to_string(i));
      if (plan != nullptr) {
        EXPECT_EQ(socketed[i].response.body,
                  "<html><body><h1>503 Service Unavailable</h1></body></html>");
      }
    }
  }
}

TEST(ServeE2E, ServeCountersLandInTheGlobalRegistry) {
  obs::MetricsRegistry& global = obs::MetricsRegistry::global();
  const bool wasEnabled = global.enabled();
  global.setEnabled(true);
  global.reset();

  const auto spec = cookieSpec("E13", "e13.serve.example");
  {
    SocketRig rig({spec});
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(
          rig.transport->dispatch(makeRequest(spec.domain, "/page0"))
              .response.status,
          200);
    }
  }

  const obs::MetricsSnapshot snapshot = global.snapshot();
  EXPECT_EQ(snapshot.counter(obs::Counter::ServeDispatches), 3u);
  EXPECT_EQ(snapshot.counter(obs::Counter::ServeRequestsServed), 3u);
  EXPECT_EQ(snapshot.counter(obs::Counter::ServeReusedDispatches), 2u);
  EXPECT_GE(snapshot.counter(obs::Counter::ServeConnectionsOpened), 1u);
  EXPECT_EQ(snapshot.timer(obs::Timer::ServeDispatch).count, 3u);
  // The serve block reports under its own deterministicJson section, away
  // from the per-session counters the byte-identity suites compare.
  EXPECT_NE(snapshot.deterministicJson().find("\"serve\":{"),
            std::string::npos);
  EXPECT_NE(snapshot.deterministicJson().find("\"serve_dispatches\":3"),
            std::string::npos);

  global.reset();
  global.setEnabled(wasEnabled);
}

}  // namespace
}  // namespace cookiepicker
