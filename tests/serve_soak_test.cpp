// Serve-tier soak: verdicts through real sockets under socket-layer
// faults must match a fault-free sim-transport reference byte-for-byte.
//
// This is the serve module's end-to-end determinism claim. The reference
// runs every Table-2 session over the sim Network with no faults. The
// run under test pushes the same sessions through the full socket stack
// — SocketTransport → AsyncHttpClient → loopback TCP → OriginTier — with
// a flapping fault plan dropping and 5xx-ing hidden fetches. Because
// those faults short-circuit before the site handler runs, and because
// the browser's wheel-driven retries heal every flap (fail=1 against
// maxAttempts=3), each logical request ultimately sees exactly the bytes
// the fault-free run saw — so the verdict JSON, cookie names included,
// must agree to the byte.
//
// Run by tools/check.sh's serve-soak configuration with
// COOKIEPICKER_CHAOS=1, which doubles the session length.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "faults/fault_plan.h"
#include "knowledge/knowledge_base.h"
#include "net/network.h"
#include "net/url.h"
#include "serve/async_client.h"
#include "serve/event_loop.h"
#include "serve/http_server.h"
#include "serve/origin_tier.h"
#include "serve/socket_transport.h"
#include "serve/verdict_service.h"
#include "server/generator.h"
#include "util/clock.h"

namespace cookiepicker {
namespace {

constexpr std::uint64_t kSeed = 2007;

int soakViews() {
  const char* env = std::getenv("COOKIEPICKER_CHAOS");
  const bool chaos = env != nullptr && std::string_view(env) != "0";
  return chaos ? 24 : 12;
}

std::shared_ptr<const faults::FaultPlan> flappingPlan() {
  // Sparse flaps so the default retry policy (3 attempts) always recovers:
  // at most two consecutive faulted attempts even when both rules align.
  auto plan = faults::FaultPlan::parse(
      "rule scope=hidden action=connection-drop fail=1 recover=7\n"
      "rule scope=hidden action=server-error status=503 fail=1 recover=9\n");
  EXPECT_TRUE(plan.has_value());
  return std::make_shared<const faults::FaultPlan>(*plan);
}

TEST(ServeSoak, FaultySocketVerdictsMatchFaultFreeSimReference) {
  const std::vector<server::SiteSpec> roster = server::table2Roster();
  const int views = soakViews();

  // Reference: the same sessions over the sim, no faults anywhere.
  std::map<std::string, std::string> reference;
  {
    util::SimClock siteClock;
    net::Network network(kSeed);
    serve::VerdictService service(network, {});
    for (const auto& spec : roster) {
      network.registerHost(spec.domain, server::buildSite(spec, siteClock),
                           spec.latencyProfile());
      service.addHost(spec.domain, spec.pageCount);
    }
    for (const auto& spec : roster) {
      reference[spec.domain] = service.runVerdict(spec.domain, views);
      ASSERT_FALSE(reference[spec.domain].empty());
    }
  }

  // Under test: real sockets, flapping socket-layer faults, wheel retries.
  util::SimClock siteClock;
  serve::OriginTierConfig tierConfig;
  tierConfig.seed = kSeed;
  tierConfig.threads = 2;
  tierConfig.faultPlan = flappingPlan();
  serve::OriginTier tier(tierConfig);
  serve::VerdictServiceConfig serviceConfig;
  for (const auto& spec : roster) {
    tier.addHost(spec.domain, server::buildSite(spec, siteClock));
  }
  tier.start();
  {
    serve::LoopThread loopThread;
    serve::AsyncClientConfig clientConfig;
    clientConfig.resolve = tier.resolver();
    clientConfig.maxPipelineDepth = 4;
    serve::AsyncHttpClient client(loopThread.loop(), clientConfig);
    serve::SocketTransport transport(client);
    serve::VerdictService service(transport, serviceConfig);
    for (const auto& spec : roster) {
      service.addHost(spec.domain, spec.pageCount);
    }

    for (const auto& spec : roster) {
      EXPECT_EQ(service.runVerdict(spec.domain, views),
                reference[spec.domain])
          << spec.label << " diverged under socket faults";
    }
    // The plan really was firing: this agreement was earned, not vacuous.
    EXPECT_GE(client.stats().drops + client.stats().retriesScheduled, 1u);
  }
  tier.stop();
  EXPECT_GE(tier.stats().faultsInjected, 1u);
}

// The verdict service behind its own HTTP listener: the full
// `cookiepicker serve` shape, queried over the wire.
// /verdict?views= is a decimal integer in [1, kMaxVerdictViews]; anything
// else is a 400 before any session runs, and valid counts are served as
// before.
TEST(ServeSoak, VerdictViewsParameterIsStrictAndCapped) {
  const std::vector<server::SiteSpec> roster = server::table2Roster();
  const std::string host = roster.front().domain;
  // A fresh world per request, so every verdict starts from the same state.
  const auto ask = [&](const std::string& query) {
    util::SimClock siteClock;
    net::Network network(kSeed);
    serve::VerdictService service(network, {});
    for (const auto& spec : roster) {
      network.registerHost(spec.domain, server::buildSite(spec, siteClock),
                           spec.latencyProfile());
      service.addHost(spec.domain, spec.pageCount);
    }
    net::HttpRequest request;
    request.url =
        net::Url::parse("http://verdicts.local/verdict?host=" + host + query)
            .value();
    const net::HttpResponse response = service.handle(request);
    if (response.status != 200) {
      EXPECT_EQ(service.sessionsRun(), 0u) << query;
    }
    return response;
  };

  for (const std::string junk :
       {"abc", "12abc", " 12", "+12", "0x10", "1.5", "1e3", "0", "-3",
        "1001", "2000000000", "99999999999999999999"}) {
    const net::HttpResponse response = ask("&views=" + junk);
    EXPECT_EQ(response.status, 400) << junk;
    EXPECT_EQ(response.body,
              "{\"error\":\"views must be an integer in 1.." +
                  std::to_string(serve::kMaxVerdictViews) + "\"}")
        << junk;
  }

  // views=12 is the default count and reads exactly as before.
  std::string direct;
  {
    util::SimClock siteClock;
    net::Network network(kSeed);
    serve::VerdictService service(network, {});
    for (const auto& spec : roster) {
      network.registerHost(spec.domain, server::buildSite(spec, siteClock),
                           spec.latencyProfile());
      service.addHost(spec.domain, spec.pageCount);
    }
    direct = service.runVerdict(host, 12);
  }
  const net::HttpResponse twelve = ask("&views=12");
  EXPECT_EQ(twelve.status, 200);
  EXPECT_EQ(twelve.body, direct);
  EXPECT_NE(twelve.body.find("\"views\":12,"), std::string::npos);
  EXPECT_EQ(ask("").body, direct);
  EXPECT_EQ(ask("&views=" + std::to_string(serve::kMaxVerdictViews)).status,
            200);
}

// A verdict's integer field, or -1 when absent.
long long verdictField(const std::string& json, const std::string& field) {
  const std::string key = "\"" + field + "\":";
  const std::size_t at = json.find(key);
  if (at == std::string::npos) return -1;
  return std::stoll(json.substr(at + key.size()));
}

// hiddenRequestsSent is this session's wire bill; hiddenRequests is FORCUM's
// per-host counter, which a warm session imports from the crowd.
TEST(ServeSoak, VerdictReportsHiddenRequestsThisSessionSent) {
  const std::vector<server::SiteSpec> roster = server::table2Roster();

  // Clean cold verdicts: every hidden fetch sent is one FORCUM counted.
  std::map<std::string, std::string> cold;
  {
    util::SimClock siteClock;
    net::Network network(kSeed);
    serve::VerdictService service(network, {});
    for (const auto& spec : roster) {
      network.registerHost(spec.domain, server::buildSite(spec, siteClock),
                           spec.latencyProfile());
      service.addHost(spec.domain, spec.pageCount);
    }
    for (const auto& spec : roster) {
      cold[spec.domain] = service.runVerdict(spec.domain, 12);
      const std::string& verdict = cold[spec.domain];
      EXPECT_GT(verdictField(verdict, "hiddenRequests"), 0) << verdict;
      EXPECT_EQ(verdictField(verdict, "hiddenRequestsSent"),
                verdictField(verdict, "hiddenRequests"))
          << verdict;
    }
  }

  // Warm verdicts: the crowd's counter comes back, nothing goes out.
  {
    util::SimClock siteClock;
    net::Network network(kSeed);
    knowledge::KnowledgeBase base;
    serve::VerdictServiceConfig config;
    config.knowledge = &base;
    serve::VerdictService service(network, config);
    for (const auto& spec : roster) {
      network.registerHost(spec.domain, server::buildSite(spec, siteClock),
                           spec.latencyProfile());
      service.addHost(spec.domain, spec.pageCount);
    }
    for (const auto& spec : roster) service.runVerdict(spec.domain, 12);
    for (const auto& spec : roster) {
      const std::string verdict = service.runVerdict(spec.domain, 12);
      EXPECT_NE(verdict.find("\"knowledge\":\"warm\""), std::string::npos)
          << verdict;
      EXPECT_GT(verdictField(verdict, "hiddenRequests"), 0) << verdict;
      EXPECT_EQ(verdictField(verdict, "hiddenRequestsSent"), 0) << verdict;
    }
  }

  // Socket transport: the same sessions report the same sent counts.
  util::SimClock siteClock;
  serve::OriginTierConfig tierConfig;
  tierConfig.seed = kSeed;
  tierConfig.threads = 2;
  serve::OriginTier tier(tierConfig);
  for (const auto& spec : roster) {
    tier.addHost(spec.domain, server::buildSite(spec, siteClock));
  }
  tier.start();
  {
    serve::LoopThread loopThread;
    serve::AsyncClientConfig clientConfig;
    clientConfig.resolve = tier.resolver();
    serve::AsyncHttpClient client(loopThread.loop(), clientConfig);
    serve::SocketTransport transport(client);
    serve::VerdictService service(transport, {});
    for (const auto& spec : roster) {
      service.addHost(spec.domain, spec.pageCount);
    }
    for (const auto& spec : roster) {
      const std::string verdict = service.runVerdict(spec.domain, 12);
      EXPECT_EQ(verdictField(verdict, "hiddenRequestsSent"),
                verdictField(cold[spec.domain], "hiddenRequestsSent"))
          << spec.label;
    }
  }
  tier.stop();
}

// Host names are ASCII case-insensitive: an upper-case host gets the
// lower-case host's verdict and jar bytes, from runVerdict and from
// /verdict alike.
TEST(ServeSoak, VerdictHostIsCaseInsensitive) {
  const std::vector<server::SiteSpec> roster = server::table2Roster();
  const std::string host = roster.front().domain;
  std::string upper = host;
  for (char& ch : upper) {
    ch = static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
  }
  ASSERT_NE(upper, host);
  // A fresh world per verdict, so every session starts from the same state.
  const auto verdict = [&](const std::string& name, std::string* jar,
                           bool overHttp) {
    util::SimClock siteClock;
    net::Network network(kSeed);
    serve::VerdictService service(network, {});
    for (const auto& spec : roster) {
      network.registerHost(spec.domain, server::buildSite(spec, siteClock),
                           spec.latencyProfile());
      service.addHost(spec.domain, spec.pageCount);
    }
    if (!overHttp) return service.runVerdict(name, 12, jar);
    net::HttpRequest request;
    request.url =
        net::Url::parse("http://verdicts.local/verdict?host=" + name).value();
    return service.handle(request).body;
  };
  std::string lowerJar;
  std::string upperJar;
  const std::string lower = verdict(host, &lowerJar, false);
  ASSERT_NE(lower.find("\"host\":\"" + host + "\""), std::string::npos);
  EXPECT_EQ(verdict(upper, &upperJar, false), lower);
  EXPECT_EQ(upperJar, lowerJar);
  EXPECT_EQ(verdict(upper, nullptr, true), lower);
}

// Query keys and values are percent-decoded; malformed escapes and decoded
// control bytes are a 400 before any session runs.
TEST(ServeSoak, VerdictQueryIsPercentDecoded) {
  const std::vector<server::SiteSpec> roster = server::table2Roster();
  const std::string host = roster.front().domain;
  const auto ask = [&](const std::string& query) {
    util::SimClock siteClock;
    net::Network network(kSeed);
    serve::VerdictService service(network, {});
    for (const auto& spec : roster) {
      network.registerHost(spec.domain, server::buildSite(spec, siteClock),
                           spec.latencyProfile());
      service.addHost(spec.domain, spec.pageCount);
    }
    net::HttpRequest request;
    request.url =
        net::Url::parse("http://verdicts.local/verdict?" + query).value();
    const net::HttpResponse response = service.handle(request);
    if (response.status != 200) {
      EXPECT_EQ(service.sessionsRun(), 0u) << query;
    }
    return response;
  };
  const net::HttpResponse plain = ask("host=" + host + "&views=12");
  ASSERT_EQ(plain.status, 200);

  // An encoded host (every byte escaped, mixed-case hex) and encoded keys.
  std::string encodedHost;
  for (std::size_t i = 0; i < host.size(); ++i) {
    char escape[4];
    std::snprintf(escape, sizeof(escape), i % 2 == 0 ? "%%%02X" : "%%%02x",
                  static_cast<unsigned char>(host[i]));
    encodedHost += escape;
  }
  EXPECT_EQ(ask("host=" + encodedHost + "&views=12").body, plain.body);
  EXPECT_EQ(ask("%68ost=" + host + "&vi%65ws=%312").body, plain.body);
  EXPECT_EQ(ask("host=" + host + "&views=1%32").body, plain.body);

  const std::vector<std::string> malformed = {
      "host=%zz",         "host=" + host + "%",
      "host=" + host + "%4", "host=" + host + "%00",
      "host=" + host + "&views=12%0a", "ho%st=" + host,
      "host=" + host + "&junk=%g1",    "host=%7f"};
  for (const std::string& bad : malformed) {
    const net::HttpResponse response = ask(bad);
    EXPECT_EQ(response.status, 400) << bad;
    EXPECT_EQ(response.body, "{\"error\":\"malformed query string\"}")
        << bad;
  }
}

TEST(ServeSoak, VerdictEndpointServesOverTheWire) {
  const std::vector<server::SiteSpec> roster = server::table2Roster();
  const int views = 4;  // parity is parity; keep the wire test quick
  const std::string target = roster.front().domain;

  // Sim reference for the same (seed, host, views) session.
  std::string expected;
  {
    util::SimClock siteClock;
    net::Network network(kSeed);
    serve::VerdictService service(network, {});
    for (const auto& spec : roster) {
      network.registerHost(spec.domain, server::buildSite(spec, siteClock),
                           spec.latencyProfile());
      service.addHost(spec.domain, spec.pageCount);
    }
    expected = service.runVerdict(target, views);
    ASSERT_FALSE(expected.empty());
  }

  // Origin tier + socket transport feeding the verdict service...
  util::SimClock siteClock;
  serve::OriginTierConfig tierConfig;
  tierConfig.seed = kSeed;
  serve::OriginTier tier(tierConfig);
  for (const auto& spec : roster) {
    tier.addHost(spec.domain, server::buildSite(spec, siteClock));
  }
  tier.start();
  {
    serve::LoopThread originClientLoop;
    serve::AsyncClientConfig originClientConfig;
    originClientConfig.resolve = tier.resolver();
    serve::AsyncHttpClient originClient(originClientLoop.loop(),
                                        originClientConfig);
    serve::SocketTransport transport(originClient);
    auto service = std::make_shared<serve::VerdictService>(
        transport, serve::VerdictServiceConfig{});
    for (const auto& spec : roster) {
      service->addHost(spec.domain, spec.pageCount);
    }

    // ...itself listening on its own loop, like the CLI's serve mode.
    serve::EventLoop serviceLoop;
    serve::HttpServer frontend(
        serviceLoop, [&service](const std::string&) { return service.get(); },
        kSeed);
    const std::uint16_t port = frontend.listen(0);
    std::thread serviceThread([&serviceLoop]() { serviceLoop.run(); });

    serve::LoopThread probeLoop;
    serve::AsyncClientConfig probeConfig;
    probeConfig.resolve = [port](const std::string&) {
      return std::optional<std::uint16_t>(port);
    };
    probeConfig.requestDeadlineMs = 120000.0;  // a verdict session is slow
    serve::AsyncHttpClient probe(probeLoop.loop(), probeConfig);
    serve::SocketTransport probeTransport(probe);

    net::HttpRequest health;
    health.url = net::Url::parse("http://verdicts.local/healthz").value();
    EXPECT_EQ(probeTransport.dispatch(health).response.body, "ok");

    net::HttpRequest ask;
    ask.url = net::Url::parse("http://verdicts.local/verdict?host=" + target +
                              "&views=" + std::to_string(views))
                  .value();
    const net::Exchange answer = probeTransport.dispatch(ask);
    EXPECT_EQ(answer.response.status, 200);
    EXPECT_EQ(answer.response.headers.get("Content-Type"),
              std::optional<std::string>("application/json"));
    EXPECT_EQ(answer.response.body, expected);

    net::HttpRequest missing;
    missing.url =
        net::Url::parse("http://verdicts.local/verdict?host=unknown.example")
            .value();
    EXPECT_EQ(probeTransport.dispatch(missing).response.status, 400);

    serviceLoop.stop();
    serviceThread.join();
  }
  tier.stop();
}

}  // namespace
}  // namespace cookiepicker
