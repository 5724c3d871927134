// Fleet-layer tests: determinism under parallelism (the tentpole invariant
// — results must be byte-identical for any worker count) and thread-safety
// stress scenarios designed to fail under TSan if the jar / network /
// picker locking ever regresses.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "browser/browser.h"
#include "core/cookie_picker.h"
#include "faults/fault_plan.h"
#include "fleet/fleet.h"
#include "knowledge/knowledge_base.h"
#include "net/network.h"
#include "serve/verdict_service.h"
#include "server/generator.h"
#include "store/store.h"
#include "test_support.h"
#include "util/clock.h"

namespace cookiepicker {
namespace {

fleet::FleetReport runFleet(const std::vector<server::SiteSpec>& roster,
                            int workers, int views,
                            std::uint64_t seed = 1234) {
  testsupport::FleetRunOptions options;
  options.workers = workers;
  options.viewsPerHost = views;
  options.seed = seed;
  return testsupport::runMeasurementFleet(roster, options);
}

TEST(FleetDeterminism, SerializedStateIdenticalForOneVsEightWorkers) {
  const auto roster = server::measurementRoster(12, 77);
  const fleet::FleetReport serial = runFleet(roster, 1, 8);
  const fleet::FleetReport parallel = runFleet(roster, 8, 8);

  // The tentpole invariant: jar marks, FORCUM state, and enforcement
  // decisions are byte-identical however many workers raced through the
  // roster.
  EXPECT_EQ(serial.serializeState(), parallel.serializeState());
  EXPECT_EQ(serial.mergedJar().serialize(), parallel.mergedJar().serialize());
  EXPECT_EQ(serial.pagesVisited, parallel.pagesVisited);
  EXPECT_EQ(serial.hiddenRequests, parallel.hiddenRequests);
  for (std::size_t i = 0; i < roster.size(); ++i) {
    EXPECT_EQ(serial.hosts[i].report.markedUseful,
              parallel.hosts[i].report.markedUseful)
        << roster[i].domain;
    EXPECT_EQ(serial.hosts[i].report.enforced,
              parallel.hosts[i].report.enforced)
        << roster[i].domain;
  }
  EXPECT_NE(serial.serializeState().find("== fleet host"), std::string::npos);
}

TEST(FleetDeterminism, RepeatedParallelRunsAgree) {
  const auto roster = server::measurementRoster(9, 3);
  const fleet::FleetReport first = runFleet(roster, 4, 6);
  const fleet::FleetReport second = runFleet(roster, 4, 6);
  EXPECT_EQ(first.serializeState(), second.serializeState());
}

TEST(FleetReportTest, AggregatesAreConsistent) {
  const auto roster = server::measurementRoster(6, 11);
  const fleet::FleetReport report = runFleet(roster, 3, 5);
  EXPECT_EQ(report.workers, 3);
  EXPECT_EQ(report.pagesVisited, 6u * 5u);
  EXPECT_EQ(report.hosts.size(), roster.size());
  EXPECT_GT(report.wallMs, 0.0);
  EXPECT_GT(report.pagesPerSecond, 0.0);
  EXPECT_GT(report.workerUtilization, 0.0);
  EXPECT_LE(report.workerUtilization, 1.0 + 1e-9);
  for (std::size_t i = 0; i < roster.size(); ++i) {
    EXPECT_EQ(report.hosts[i].host, roster[i].domain);  // roster order
    EXPECT_GE(report.hosts[i].workerIndex, 0);
    EXPECT_LT(report.hosts[i].workerIndex, 3);
  }
}

TEST(FleetReportTest, WorkerCountClampedToRoster) {
  const auto roster = server::measurementRoster(2, 5);
  const fleet::FleetReport report = runFleet(roster, 16, 3);
  EXPECT_EQ(report.workers, 2);
}

// Shards sealed by older builds recover only while these bytes hold; the
// fourth field is the retired enforce-after-run flag, always 1.
TEST(FleetReportTest, ConfigFingerprintBytesArePinned) {
  net::Network network(1);
  fleet::FleetConfig config;
  EXPECT_EQ(fleet::TrainingFleet(network, config).configFingerprint(),
            "v1:2007:12:0:1:0:0:k0");
  config.picker.forcum.attribution = core::AttributionMode::Provenance;
  EXPECT_EQ(fleet::TrainingFleet(network, config).configFingerprint(),
            "v1:2007:12:0:1:0:0:k0:attr1");
}

// A shard sealed under one stable-view threshold must not be replayed as
// the result of another: the rerun recovers nothing and matches a fresh
// run, while a rerun under the sealing threshold recovers every host.
TEST(FleetReportTest, ShardsSealedUnderAnotherThresholdRerun) {
  const auto roster = server::measurementRoster(8, 7);
  store::StoreConfig storeConfig;
  storeConfig.directory = ::testing::TempDir() + "fleet_threshold_shards";
  std::filesystem::remove_all(storeConfig.directory);
  const auto runAt = [&](int threshold, store::StateStore* store) {
    util::SimClock serverClock;
    net::Network network(7);
    server::registerRoster(network, serverClock, roster);
    fleet::FleetConfig config;
    config.seed = 7;
    config.picker.forcum.stableViewThreshold = threshold;
    config.stateStore = store;
    return fleet::TrainingFleet(network, config).run(roster);
  };
  const auto recoveredHosts = [](const fleet::FleetReport& report) {
    int recovered = 0;
    for (const auto& host : report.hosts) recovered += host.recovered;
    return recovered;
  };

  const std::string freshAt3 = runAt(3, nullptr).serializeState();
  const std::string freshAt10 = runAt(10, nullptr).serializeState();
  ASSERT_NE(freshAt3, freshAt10);
  {
    store::StateStore store(storeConfig);
    EXPECT_EQ(recoveredHosts(runAt(10, &store)), 0);
  }
  {
    store::StateStore store(storeConfig);
    const fleet::FleetReport rerun = runAt(3, &store);
    EXPECT_EQ(recoveredHosts(rerun), 0);
    EXPECT_EQ(rerun.serializeState(), freshAt3);
  }
  {
    // The rerun at 3 resealed every shard; seal them at 10 again.
    store::StateStore store(storeConfig);
    runAt(10, &store);
  }
  {
    store::StateStore store(storeConfig);
    const fleet::FleetReport rerun = runAt(10, &store);
    EXPECT_EQ(recoveredHosts(rerun), 8);
    EXPECT_EQ(rerun.serializeState(), freshAt10);
  }
  std::filesystem::remove_all(storeConfig.directory);
}

// The fleet and the verdict service run one session (core::Session): every
// host's fleet jar bytes and useful marks equal what runVerdict gives on a
// fresh world with the same seed. With a shared knowledge base each side
// runs two passes, so the second compares warm sessions.
TEST(FleetSession, FleetAndServeRunTheSameSession) {
  std::vector<server::SiteSpec> roster = server::table1Roster();
  for (server::SiteSpec& spec : server::table2Roster()) {
    roster.push_back(std::move(spec));
  }
  int compared = 0;
  for (const std::uint64_t seed : {2007ull, 31ull}) {
    for (const int views : {4, 12}) {
      for (const bool autoEnforce : {false, true}) {
        for (const bool shared : {false, true}) {
          SCOPED_TRACE("seed " + std::to_string(seed) + ", views " +
                       std::to_string(views) + ", autoEnforce " +
                       std::to_string(autoEnforce) + ", knowledge " +
                       std::to_string(shared));
          knowledge::KnowledgeBase fleetKnowledge;
          knowledge::KnowledgeBase serveKnowledge;
          fleet::FleetConfig fleetConfig;
          fleetConfig.seed = seed;
          fleetConfig.viewsPerHost = views;
          fleetConfig.picker.autoEnforce = autoEnforce;
          serve::VerdictServiceConfig serveConfig;
          serveConfig.seed = seed;
          serveConfig.picker.autoEnforce = autoEnforce;
          if (shared) {
            fleetConfig.knowledge = &fleetKnowledge;
            serveConfig.knowledge = &serveKnowledge;
          }
          for (int pass = 0; pass < (shared ? 2 : 1); ++pass) {
            fleet::FleetReport report;
            {
              util::SimClock serverClock;
              net::Network network(seed);
              server::registerRoster(network, serverClock, roster);
              report = fleet::TrainingFleet(network, fleetConfig).run(roster);
            }
            util::SimClock serverClock;
            net::Network network(seed);
            server::registerRoster(network, serverClock, roster);
            serve::VerdictService service(network, serveConfig);
            for (const server::SiteSpec& spec : roster) {
              service.addHost(spec.domain, spec.pageCount);
            }
            for (std::size_t i = 0; i < roster.size(); ++i) {
              const fleet::HostResult& host = report.hosts[i];
              std::string jar;
              const std::string verdict =
                  service.runVerdict(host.host, views, &jar);
              EXPECT_EQ(host.jarState, jar) << host.host;
              EXPECT_NE(verdict.find("\"markedUseful\":" +
                                     std::to_string(host.report.markedUseful) +
                                     ","),
                        std::string::npos)
                  << verdict;
              ++compared;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(compared, 864);
}

// 64 hosts trained by a fleet, then a shared CookiePicker hammered with
// enforce/recover/browse from many threads. Passing here under TSan is the
// proof the jar/network/picker locking holds; without the locks this test
// reports races immediately.
TEST(FleetStress, ConcurrentEnforceRecoverOn64Hosts) {
  const int hostCount = 64;
  const auto roster = server::measurementRoster(hostCount, 5);
  util::SimClock serverClock;
  net::Network network(5);
  server::registerRoster(network, serverClock, roster);

  // One shared session over all hosts (the single-user configuration the
  // paper describes), primed with one page view per host.
  util::SimClock clock;
  browser::Browser browser(network, clock);
  core::CookiePicker picker(browser);
  for (const server::SiteSpec& spec : roster) {
    picker.browse("http://" + spec.domain + "/page0");
  }

  const int threads = 8;
  const int opsPerThread = 48;
  std::atomic<int> recoveries{0};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t]() {
      for (int op = 0; op < opsPerThread; ++op) {
        const server::SiteSpec& spec =
            roster[static_cast<std::size_t>((t * 31 + op * 7) % hostCount)];
        const std::string url = "http://" + spec.domain + "/page0";
        switch ((t + op) % 3) {
          case 0:
            picker.enforceForHost(spec.domain);
            break;
          case 1: {
            const auto parsed = net::Url::parse(url);
            ASSERT_TRUE(parsed.has_value());
            recoveries += static_cast<int>(
                picker.pressRecoveryButton(*parsed).size());
            break;
          }
          default:
            picker.browse(url);
            break;
        }
      }
    });
  }
  for (std::thread& thread : pool) thread.join();

  // The jar survived: serialization round-trips and keys are unique.
  const std::string serialized = browser.jar().serialize();
  const cookies::CookieJar reloaded =
      cookies::CookieJar::deserialize(serialized);
  EXPECT_EQ(reloaded.size(), browser.jar().size());
  std::set<cookies::CookieKey> keys;
  for (const cookies::CookieRecord* record : browser.jar().all()) {
    EXPECT_TRUE(keys.insert(record->key).second)
        << "duplicate cookie key " << record->key.name;
  }
  // Enforced hosts transmit no unmarked persistent cookies: revisit each
  // enforced host and inspect the Cookie header the request carried.
  for (const server::SiteSpec& spec : roster) {
    if (!picker.isEnforced(spec.domain)) continue;
    const auto url = net::Url::parse("http://" + spec.domain + "/page0");
    ASSERT_TRUE(url.has_value());
    const browser::PageView view = browser.visit(*url);
    const std::string header = view.containerRequest.cookieHeader();
    for (const cookies::CookieRecord* record :
         browser.jar().persistentCookiesForHost(spec.domain)) {
      if (record->useful) continue;
      EXPECT_EQ(header.find(record->key.name + "="), std::string::npos)
          << "blocked cookie " << record->key.name << " was transmitted to "
          << spec.domain;
    }
  }
}

// Many independent sessions (one per host, as the fleet runs them) sharing
// one Network: exercises concurrent dispatch, per-host RNG streams, and the
// atomic traffic counters.
TEST(FleetStress, ConcurrentSessionsShareOneNetwork) {
  const auto roster = server::measurementRoster(16, 9);
  util::SimClock serverClock;
  net::Network network(9);
  server::registerRoster(network, serverClock, roster);
  // Exercise the 503 path too, via the plan API the legacy knob sugars to.
  network.setFaultPlan(faults::FaultPlan::uniformFailure(0.1));

  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) {
    pool.emplace_back([&, t]() {
      for (std::size_t i = static_cast<std::size_t>(t); i < roster.size();
           i += 4) {
        util::SimClock clock;
        browser::Browser browser(network, clock,
                                 cookies::CookiePolicy::recommended(),
                                 1000 + i);
        core::CookiePicker picker(browser);
        for (int view = 0; view < 4; ++view) {
          picker.browse("http://" + roster[i].domain + "/page" +
                        std::to_string(view));
        }
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
  EXPECT_GT(network.totalRequests(), 0u);
  EXPECT_GT(network.totalBytesTransferred(), 0u);
}

// A monitor thread snapshotting and periodically resetting the traffic
// counters while browsing sessions dispatch: exercises the relaxed-atomic
// ordering contract documented on Network::snapshotCounters (TSan must stay
// quiet; mid-run snapshots may be torn across fields but each field is a
// value some interleaving permits, and injectedFailures survives resets).
TEST(FleetStress, NetworkCounterResetDuringRun) {
  const auto roster = server::measurementRoster(8, 41);
  util::SimClock serverClock;
  net::Network network(41);
  server::registerRoster(network, serverClock, roster);
  network.setFaultPlan(faults::FaultPlan::uniformFailure(0.2));

  std::atomic<bool> done{false};
  std::uint64_t peakFailures = 0;
  std::thread monitor([&]() {
    int spins = 0;
    while (!done.load(std::memory_order_relaxed)) {
      const net::Network::TrafficCounters counters =
          network.snapshotCounters();
      // injectedFailures is never reset, so it is monotonic even while
      // requests/bytes are being zeroed underneath us.
      EXPECT_GE(counters.injectedFailures, peakFailures);
      peakFailures = counters.injectedFailures;
      if (++spins % 4 == 0) network.resetCounters();
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) {
    pool.emplace_back([&, t]() {
      for (std::size_t i = static_cast<std::size_t>(t); i < roster.size();
           i += 4) {
        util::SimClock clock;
        browser::Browser browser(network, clock,
                                 cookies::CookiePolicy::recommended(),
                                 2000 + i);
        for (int view = 0; view < 3; ++view) {
          browser.visit("http://" + roster[i].domain + "/page" +
                        std::to_string(view));
        }
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
  done.store(true, std::memory_order_relaxed);
  monitor.join();

  // Post-quiescence the snapshot is exact: one final reset drains it.
  network.resetCounters();
  const net::Network::TrafficCounters drained = network.snapshotCounters();
  EXPECT_EQ(drained.requests, 0u);
  EXPECT_EQ(drained.bytes, 0u);
  EXPECT_EQ(drained.injectedFailures, network.injectedFailures());
}

}  // namespace
}  // namespace cookiepicker
