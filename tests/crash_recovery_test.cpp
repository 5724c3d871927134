// CrashRecovery: the durable store's end-to-end determinism contract.
//
// The property: take a fleet run with a state store, kill it at an injected
// crash point (a torn append, a kill after the Nth durable append, a kill
// between a snapshot's fsync and its rename), "restart the process" (a fresh
// StateStore over the same directory), run the fleet again — and the final
// serialized state, merged deterministic metrics, and audit trail are
// byte-for-byte identical to a run that never crashed, for 1 worker and for
// 8. Exercised over a seeded sweep of crash points (24 by default, 200 with
// COOKIEPICKER_CHAOS=1 — tools/check.sh's crash-soak configuration runs
// that sweep in the ASan tree).
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "faults/crash.h"
#include "server/generator.h"
#include "store/store.h"
#include "test_support.h"

namespace cookiepicker {
namespace {

namespace fs = std::filesystem;
using testsupport::FleetRunOptions;
using testsupport::runMeasurementFleet;

bool chaosEnabled() {
  const char* env = std::getenv("COOKIEPICKER_CHAOS");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

// The roster every test here trains: small enough to keep hundreds of
// kill/recover cycles fast, big enough that crash points land in distinct
// hosts and pipeline stages.
std::vector<server::SiteSpec> testRoster() {
  return server::measurementRoster(4, /*seed=*/1234);
}

FleetRunOptions baseOptions(int workers) {
  FleetRunOptions options;
  options.workers = workers;
  options.viewsPerHost = 6;
  options.seed = 1234;
  options.collectObservability = true;
  return options;
}

store::StoreConfig storeConfigFor(const fs::path& dir) {
  store::StoreConfig config;
  config.directory = dir.string();
  // Compact aggressively so crash points also land inside the
  // snapshot-publish window, not just between appends. Sealing a session
  // never compacts, so the cadence is the only way a shard reaches a
  // rename: sessions here log ~17 appends per shard, and 8 yields a couple
  // of cadence compactions each — enough for mid-rename crash ordinals 1-3
  // to fire on some seeds.
  config.compactEveryAppends = 8;
  return config;
}

// The three byte-streams the determinism contract covers.
struct RunBytes {
  std::string state;
  std::string metricsJson;
  std::string auditJsonl;
};

RunBytes bytesOf(const fleet::FleetReport& report) {
  RunBytes bytes;
  bytes.state = report.serializeState();
  bytes.metricsJson = report.mergedMetrics().deterministicJson();
  bytes.auditJsonl = report.auditJsonl();
  return bytes;
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("crash_recovery_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

// Null sink invariance: attaching a store must not change a single byte of
// the run's results relative to no store at all.
TEST_F(CrashRecoveryTest, StoreAttachmentIsByteInvariant) {
  const auto roster = testRoster();
  const RunBytes plain = bytesOf(runMeasurementFleet(roster, baseOptions(1)));

  store::StateStore stateStore(storeConfigFor(dir_));
  FleetRunOptions withStore = baseOptions(1);
  withStore.stateStore = &stateStore;
  const RunBytes stored = bytesOf(runMeasurementFleet(roster, withStore));

  EXPECT_EQ(stored.state, plain.state);
  EXPECT_EQ(stored.metricsJson, plain.metricsJson);
  EXPECT_EQ(stored.auditJsonl, plain.auditJsonl);
}

// A completed run recovers wholesale: every host comes back from its shard,
// byte-identical, without rerunning a single session.
TEST_F(CrashRecoveryTest, CompletedRunRecoversWithoutRerunning) {
  const auto roster = testRoster();
  const RunBytes reference =
      bytesOf(runMeasurementFleet(roster, baseOptions(1)));
  {
    store::StateStore stateStore(storeConfigFor(dir_));
    FleetRunOptions options = baseOptions(1);
    options.stateStore = &stateStore;
    runMeasurementFleet(roster, options);
  }
  store::StateStore recoveredStore(storeConfigFor(dir_));
  FleetRunOptions options = baseOptions(8);
  options.stateStore = &recoveredStore;
  const fleet::FleetReport report = runMeasurementFleet(roster, options);
  for (const fleet::HostResult& host : report.hosts) {
    EXPECT_TRUE(host.recovered) << host.host;
  }
  const RunBytes recovered = bytesOf(report);
  EXPECT_EQ(recovered.state, reference.state);
  EXPECT_EQ(recovered.metricsJson, reference.metricsJson);
  EXPECT_EQ(recovered.auditJsonl, reference.auditJsonl);
}

// A stale fingerprint (different config) must force a full rerun, never
// serve results recorded under other parameters.
TEST_F(CrashRecoveryTest, FingerprintMismatchForcesRerun) {
  const auto roster = testRoster();
  {
    store::StateStore stateStore(storeConfigFor(dir_));
    FleetRunOptions options = baseOptions(1);
    options.stateStore = &stateStore;
    runMeasurementFleet(roster, options);
  }
  store::StateStore recoveredStore(storeConfigFor(dir_));
  FleetRunOptions options = baseOptions(1);
  options.viewsPerHost = 7;  // different config => different fingerprint
  options.stateStore = &recoveredStore;
  const fleet::FleetReport report = runMeasurementFleet(roster, options);
  for (const fleet::HostResult& host : report.hosts) {
    EXPECT_FALSE(host.recovered) << host.host;
  }
  const RunBytes rerun = bytesOf(report);
  const RunBytes reference =
      bytesOf(runMeasurementFleet(roster, [] {
        FleetRunOptions o = baseOptions(1);
        o.viewsPerHost = 7;
        return o;
      }()));
  EXPECT_EQ(rerun.state, reference.state);
}

// The property sweep: for each seed, derive a crash point, kill a run at
// it, recover with a fresh store over the same directory, and demand the
// recovered run's bytes equal the uninterrupted reference. Worker counts
// alternate 1/8 by seed parity so both the inline and the threaded
// scheduler face every crash mode.
TEST_F(CrashRecoveryTest, KilledRunsRecoverToReferenceBytes) {
  const auto roster = testRoster();
  std::vector<std::string> hosts;
  hosts.reserve(roster.size());
  for (const server::SiteSpec& spec : roster) hosts.push_back(spec.domain);

  const RunBytes reference =
      bytesOf(runMeasurementFleet(roster, baseOptions(1)));

  // 20 bounds the per-shard append index draw: sessions here log ~17
  // appends per shard, so most points land mid-session while a tail lands
  // past the end (the point never fires, the run completes — a case
  // recovery must also handle).
  constexpr std::uint64_t kMaxAppends = 20;
  const int seeds = chaosEnabled() ? 200 : 24;
  int firedCrashes = 0;
  std::map<faults::CrashMode, int> firedByMode;
  for (int seed = 0; seed < seeds; ++seed) {
    const fs::path runDir =
        dir_ / ("seed" + std::to_string(seed));
    const faults::CrashSchedule schedule = faults::CrashSchedule::fromSeed(
        static_cast<std::uint64_t>(seed), hosts, kMaxAppends);
    const int crashWorkers = (seed % 2 == 0) ? 1 : 8;

    // Doomed run: may die at the crash point (or finish, if the point
    // lands past the session's append count).
    bool crashed = false;
    {
      store::StateStore stateStore(storeConfigFor(runDir));
      stateStore.setCrashSchedule(schedule);
      FleetRunOptions options = baseOptions(crashWorkers);
      options.stateStore = &stateStore;
      runMeasurementFleet(roster, options);
      crashed = stateStore.crashed();
    }
    if (crashed) {
      ++firedCrashes;
      ++firedByMode[schedule.points[0].mode];
    }

    // Recovery run: a fresh "process" over the same directory, no crash
    // schedule, fresh network. Finished hosts return from their shards;
    // interrupted hosts rerun from scratch.
    store::StateStore recoveredStore(storeConfigFor(runDir));
    FleetRunOptions options = baseOptions((seed % 2 == 0) ? 8 : 1);
    options.stateStore = &recoveredStore;
    const RunBytes recovered =
        bytesOf(runMeasurementFleet(roster, options));

    ASSERT_EQ(recovered.state, reference.state)
        << "seed " << seed << " mode "
        << faults::crashModeName(schedule.points[0].mode) << " host "
        << schedule.points[0].host << " at " << schedule.points[0].at;
    ASSERT_EQ(recovered.metricsJson, reference.metricsJson) << "seed " << seed;
    ASSERT_EQ(recovered.auditJsonl, reference.auditJsonl) << "seed " << seed;

    // Recovery is idempotent: a second restart over the now-complete
    // directory recovers every host without rerunning.
    store::StateStore secondStore(storeConfigFor(runDir));
    FleetRunOptions secondOptions = baseOptions(1);
    secondOptions.stateStore = &secondStore;
    const fleet::FleetReport second =
        runMeasurementFleet(roster, secondOptions);
    for (const fleet::HostResult& host : second.hosts) {
      ASSERT_TRUE(host.recovered) << "seed " << seed << " host " << host.host;
    }
    ASSERT_EQ(bytesOf(second).state, reference.state) << "seed " << seed;

    fs::remove_all(runDir);
  }
  // The sweep is vacuous if no schedule ever fired; with kMaxAppends sized
  // to the session, the vast majority must. Each mode must fire too, or the
  // sweep silently stops covering that crash point.
  EXPECT_GT(firedCrashes, seeds / 2);
  for (const faults::CrashMode mode :
       {faults::CrashMode::TornAppend, faults::CrashMode::KillAfterAppend,
        faults::CrashMode::KillMidRename}) {
    EXPECT_GE(firedByMode[mode], 1) << faults::crashModeName(mode);
  }
}

}  // namespace
}  // namespace cookiepicker
