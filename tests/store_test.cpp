// Unit tests for the durable state store: WAL framing, replay semantics,
// snapshot atomicity, crash residue handling, the wire codecs, and fsck.
// The end-to-end crash/recover/compare property lives in
// crash_recovery_test.cpp; these tests pin the layer-by-layer contracts it
// rests on.
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "store/store.h"
#include "store/wal.h"
#include "util/fileio.h"

namespace cookiepicker::store {
namespace {

namespace fs = std::filesystem;

// Fresh per-test scratch directory under the gtest temp root.
class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("store_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  StoreConfig configWith(std::uint64_t compactEvery = 256) const {
    StoreConfig config;
    config.directory = dir_.string();
    config.compactEveryAppends = compactEvery;
    return config;
  }

  std::string readAll(const fs::path& path) const {
    std::string bytes;
    EXPECT_TRUE(util::readFile(path.string(), bytes));
    return bytes;
  }

  fs::path dir_;
};

// --- wal.h framing -----------------------------------------------------------

TEST_F(StoreTest, FramingRoundTrips) {
  std::string log(kWalMagic);
  appendFrame(log, encodeRecordPayload(1, "mark", "k\tline"));
  appendFrame(log, encodeRecordPayload(2, "enforce", "shop.example"));
  // Bodies may contain newlines and tabs: framing is length-prefixed.
  appendFrame(log, encodeRecordPayload(3, "state-blob", "a\nb\tc\n"));

  const ScanResult scan = scanLog(log, kWalMagic);
  EXPECT_TRUE(scan.magicOk);
  EXPECT_FALSE(scan.tornTail);
  EXPECT_FALSE(scan.corrupt);
  EXPECT_EQ(scan.malformedPayloads, 0u);
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[0].seq, 1u);
  EXPECT_EQ(scan.records[0].type, "mark");
  EXPECT_EQ(scan.records[0].body, "k\tline");
  EXPECT_EQ(scan.records[2].body, "a\nb\tc\n");
  EXPECT_EQ(scan.validBytes, log.size());
}

TEST_F(StoreTest, TornTailIsBenignAndTruncatable) {
  std::string log(kWalMagic);
  appendFrame(log, encodeRecordPayload(1, "enforce", "a.example"));
  const std::size_t goodSize = log.size();
  appendFrame(log, encodeRecordPayload(2, "enforce", "b.example"));
  // Simulate a torn write: only half of the second frame reached disk.
  log.resize(goodSize + (log.size() - goodSize) / 2);

  const ScanResult scan = scanLog(log, kWalMagic);
  EXPECT_TRUE(scan.magicOk);
  EXPECT_TRUE(scan.tornTail);
  EXPECT_FALSE(scan.corrupt);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].body, "a.example");
  // validBytes is the resume truncation point: everything before the tear.
  EXPECT_EQ(scan.validBytes, goodSize);
  EXPECT_EQ(scan.discardedBytes, log.size() - goodSize);
}

TEST_F(StoreTest, BitFlipIsCorruptionNotTornTail) {
  std::string log(kWalMagic);
  appendFrame(log, encodeRecordPayload(1, "enforce", "a.example"));
  const std::size_t goodSize = log.size();
  appendFrame(log, encodeRecordPayload(2, "enforce", "b.example"));
  log[log.size() - 3] ^= 0x40;  // flip a bit inside the last payload

  const ScanResult scan = scanLog(log, kWalMagic);
  EXPECT_TRUE(scan.corrupt);
  EXPECT_FALSE(scan.tornTail);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.validBytes, goodSize);
}

TEST_F(StoreTest, WrongMagicRejectsWholeLog) {
  std::string log = "not-a-wal\n";
  appendFrame(log, encodeRecordPayload(1, "enforce", "a.example"));
  const ScanResult scan = scanLog(log, kWalMagic);
  EXPECT_FALSE(scan.magicOk);
  EXPECT_TRUE(scan.records.empty());
}

TEST_F(StoreTest, MalformedPayloadInValidFrameIsSkippedNotFatal) {
  std::string log(kWalMagic);
  appendFrame(log, "no tabs here");
  appendFrame(log, encodeRecordPayload(1, "enforce", "a.example"));
  const ScanResult scan = scanLog(log, kWalMagic);
  EXPECT_FALSE(scan.corrupt);
  EXPECT_EQ(scan.malformedPayloads, 1u);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].body, "a.example");
}

// --- replay semantics --------------------------------------------------------

TEST_F(StoreTest, ReplayIsIdempotentOnDuplicates) {
  ReplayedState state;
  EXPECT_EQ(state.apply(1, "jar-set", "k1\tline1"), ReplayedState::Apply::Applied);
  EXPECT_EQ(state.apply(2, "jar-set", "k1\tline2"), ReplayedState::Apply::Applied);
  // Replaying an older record again must not regress the value.
  EXPECT_EQ(state.apply(1, "jar-set", "k1\tline1"),
            ReplayedState::Apply::Duplicate);
  EXPECT_EQ(state.apply(2, "jar-set", "k1\tline2"),
            ReplayedState::Apply::Duplicate);
  EXPECT_EQ(state.jarLines.at("k1"), "line2");
  EXPECT_EQ(state.lastSeq, 2u);
}

TEST_F(StoreTest, SnapshotWatermarkSkipsCoveredWalRecords) {
  ReplayedState state;
  // Snapshot data records use seq 0 (always apply), then the watermark.
  EXPECT_EQ(state.apply(0, "enforce", "a.example"),
            ReplayedState::Apply::Applied);
  EXPECT_EQ(state.apply(0, "snap-mark", "17"), ReplayedState::Apply::Applied);
  EXPECT_EQ(state.lastSeq, 17u);
  // A WAL record the snapshot already covers replays as a duplicate — the
  // rename-before-truncate crash window.
  EXPECT_EQ(state.apply(17, "enforce", "stale.example"),
            ReplayedState::Apply::Duplicate);
  EXPECT_EQ(state.apply(18, "enforce", "fresh.example"),
            ReplayedState::Apply::Applied);
  EXPECT_TRUE(state.enforcedHosts.contains("fresh.example"));
  EXPECT_FALSE(state.enforcedHosts.contains("stale.example"));
}

TEST_F(StoreTest, UnknownRecordTypesAreForwardCompatible) {
  ReplayedState state;
  EXPECT_EQ(state.apply(1, "hologram-v9", "future bytes"),
            ReplayedState::Apply::Unknown);
  EXPECT_EQ(state.apply(2, "enforce", "a.example"),
            ReplayedState::Apply::Applied);
  EXPECT_TRUE(state.enforcedHosts.contains("a.example"));
}

TEST_F(StoreTest, JarRemoveDeletesTheLine) {
  ReplayedState state;
  state.apply(1, "jar-set", "k1\tline1");
  state.apply(2, "jar-del", "k1");
  EXPECT_TRUE(state.jarLines.empty());
}

// --- wire codecs -------------------------------------------------------------

TEST_F(StoreTest, SessionMetaCodecRoundTrips) {
  SessionMeta meta;
  meta.complete = true;
  meta.pagesVisited = 12;
  meta.persistentCookies = 5;
  meta.markedUseful = 3;
  meta.pageViews = 12;
  meta.hiddenRequests = 9;
  meta.trainingActive = false;
  meta.enforced = true;
  meta.fingerprint = "v1:2007:8:1:1:0:0";

  SessionMeta decoded;
  ASSERT_TRUE(decodeSessionMeta(encodeSessionMeta(meta), decoded));
  EXPECT_EQ(decoded.complete, meta.complete);
  EXPECT_EQ(decoded.pagesVisited, meta.pagesVisited);
  EXPECT_EQ(decoded.persistentCookies, meta.persistentCookies);
  EXPECT_EQ(decoded.markedUseful, meta.markedUseful);
  EXPECT_EQ(decoded.pageViews, meta.pageViews);
  EXPECT_EQ(decoded.hiddenRequests, meta.hiddenRequests);
  EXPECT_EQ(decoded.trainingActive, meta.trainingActive);
  EXPECT_EQ(decoded.enforced, meta.enforced);
  EXPECT_EQ(decoded.fingerprint, meta.fingerprint);
}

TEST_F(StoreTest, SessionMetaCodecRejectsWrongFieldCount) {
  SessionMeta decoded;
  EXPECT_FALSE(decodeSessionMeta("1\t2\t3", decoded));
  EXPECT_FALSE(decodeSessionMeta("", decoded));
}

TEST_F(StoreTest, MetricsCodecRoundTripsCountersAndGauges) {
  obs::MetricsSnapshot snapshot;
  snapshot.counters[static_cast<std::size_t>(obs::Counter::PagesVisited)] = 42;
  snapshot.counters[static_cast<std::size_t>(obs::Counter::StoreAppends)] = 7;
  snapshot.gauges[0] = 13;

  const obs::MetricsSnapshot decoded =
      decodeMetricsSnapshot(encodeMetricsSnapshot(snapshot));
  EXPECT_EQ(decoded.counters, snapshot.counters);
  EXPECT_EQ(decoded.gauges, snapshot.gauges);
  // Round-tripped text is byte-stable — the determinism contract for
  // recovered metrics contributions.
  EXPECT_EQ(encodeMetricsSnapshot(decoded), encodeMetricsSnapshot(snapshot));
}

TEST_F(StoreTest, MetricsCodecSkipsUnknownNames) {
  const obs::MetricsSnapshot decoded =
      decodeMetricsSnapshot("c from_the_future 9\nc pages_visited 3\n");
  EXPECT_EQ(
      decoded.counters[static_cast<std::size_t>(obs::Counter::PagesVisited)],
      3u);
}

// --- HostStore persistence ---------------------------------------------------

TEST_F(StoreTest, AppendThenReopenRecoversState) {
  {
    StateStore stateStore(configWith());
    HostStore* shard = stateStore.openHost("shop.example");
    EXPECT_TRUE(shard->recovered().empty());
    shard->beginSession("fp1");
    shard->append(RecordType::JarUpsert, "k1\tline1");
    shard->append(RecordType::CounterTransition, "shop.example\trest");
    shard->append(RecordType::HostEnforced, "shop.example");
  }
  StateStore reopened(configWith());
  HostStore* shard = reopened.openHost("shop.example");
  const ReplayedState& rec = shard->recovered();
  EXPECT_EQ(rec.meta.fingerprint, "fp1");
  EXPECT_FALSE(rec.meta.complete);
  EXPECT_EQ(rec.jarLines.at("k1"), "line1");
  EXPECT_EQ(rec.forcumLines.at("shop.example"), "shop.example\trest");
  EXPECT_TRUE(rec.enforcedHosts.contains("shop.example"));
  EXPECT_FALSE(shard->replayStats().corrupt);
}

TEST_F(StoreTest, CompactionPreservesStateAndShrinksWal) {
  {
    StateStore stateStore(configWith(/*compactEvery=*/8));
    HostStore* shard = stateStore.openHost("shop.example");
    shard->beginSession("fp1");
    for (int i = 0; i < 40; ++i) {
      shard->append(RecordType::JarUpsert,
                    "k" + std::to_string(i % 5) + "\tline" + std::to_string(i));
    }
    // Compaction ran: the WAL holds at most compactEvery appends, the rest
    // live in the snapshot.
    EXPECT_TRUE(fs::exists(shard->snapPath()));
    EXPECT_LT(fs::file_size(shard->walPath()), 8 * 64u);
  }
  StateStore reopened(configWith(8));
  const ReplayedState& rec = reopened.openHost("shop.example")->recovered();
  ASSERT_EQ(rec.jarLines.size(), 5u);
  EXPECT_EQ(rec.jarLines.at("k4"), "line39");
  EXPECT_EQ(rec.jarLines.at("k0"), "line35");
}

// A seal is the WAL alone: finalize appends the result records and syncs
// them, with no snapshot, temp file, rename or WAL reset, and both a reopen
// and fsck see a complete session.
TEST_F(StoreTest, FinalizeSealsExactBlobs) {
  SessionMeta meta;
  meta.complete = true;
  meta.pagesVisited = 4;
  meta.fingerprint = "fp-seal";
  const std::string stateBlob = "== jar ==\nexact\n== forcum ==\n"
                                "== enforced ==\n";
  {
    StateStore stateStore(configWith());
    HostStore* shard = stateStore.openHost("shop.example");
    shard->beginSession("fp-seal");
    shard->append(RecordType::JarUpsert, "k1\tline1");
    shard->finalize(meta, stateBlob, "jar bytes", "c pages_visited 4\n",
                    "{\"seq\":1}\n");
  }
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    files.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(files, std::vector<std::string>{"shop.example.wal"});

  const FsckReport report = StateStore::fsck(dir_.string());
  ASSERT_EQ(report.shards.size(), 1u);
  EXPECT_TRUE(report.ok);
  EXPECT_TRUE(report.shards[0].ok);
  EXPECT_TRUE(report.shards[0].complete);
  EXPECT_FALSE(report.shards[0].snapshotPresent);
  // begin, the jar record, four blobs and the meta.
  EXPECT_EQ(report.shards[0].walRecords, 7u);

  StateStore reopened(configWith());
  HostStore* shard = reopened.openHost("shop.example");
  const ReplayedState& rec = shard->recovered();
  EXPECT_TRUE(rec.meta.complete);
  EXPECT_EQ(rec.meta.fingerprint, "fp-seal");
  EXPECT_EQ(rec.stateBlob, stateBlob);
  EXPECT_EQ(rec.jarBlob, "jar bytes");
  EXPECT_EQ(rec.metricsText, "c pages_visited 4\n");
  EXPECT_EQ(rec.auditJsonl, "{\"seq\":1}\n");
  EXPECT_EQ(rec.jarLines.at("k1"), "line1");
  EXPECT_FALSE(shard->replayStats().snapshotLoaded);
  EXPECT_FALSE(shard->replayStats().tornTail);
  EXPECT_FALSE(shard->replayStats().corrupt);
}

// The single-session CLI flow across restarts: each run resumes the sealed
// shard, appends and seals again. Seals never compact, but the WAL records a
// resumed shard keeps count toward the cadence, so a shard sealed by many
// short runs still compacts, and every reopen replays the newest seal —
// or, for a run that died before sealing, an unsealed session.
TEST_F(StoreTest, ResumedSealCyclesCompactOnCadenceAndReplayTheNewestSeal) {
  constexpr int kCycles = 6;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    const std::string tag = std::to_string(cycle);
    {
      StateStore stateStore(configWith(/*compactEvery=*/8));
      HostStore* shard = stateStore.openHost("session");
      if (cycle == 0) {
        shard->beginSession("fp1");
      } else {
        ASSERT_TRUE(shard->recovered().meta.complete) << cycle;
        shard->resumeSession("fp1");
      }
      // Begin, one jar record and the five finalize appends: 7 records a
      // run, so no single run reaches the cadence of 8 on its own.
      shard->append(RecordType::JarUpsert, "k" + tag + "\tline" + tag);
      SessionMeta meta;
      meta.pagesVisited = cycle;
      meta.fingerprint = "fp1";
      shard->finalize(meta, "state-" + tag, "jar-" + tag, "metrics-" + tag,
                      "audit-" + tag);
    }
    StateStore reopened(configWith(8));
    HostStore* shard = reopened.openHost("session");
    const ReplayedState& rec = shard->recovered();
    ASSERT_TRUE(rec.meta.complete) << cycle;
    EXPECT_EQ(rec.meta.pagesVisited, cycle);
    EXPECT_EQ(rec.stateBlob, "state-" + tag);
    EXPECT_EQ(rec.jarBlob, "jar-" + tag);
    EXPECT_EQ(rec.metricsText, "metrics-" + tag);
    EXPECT_EQ(rec.auditJsonl, "audit-" + tag);
    EXPECT_EQ(rec.jarLines.size(), static_cast<std::size_t>(cycle + 1));
    EXPECT_FALSE(shard->replayStats().corrupt);
    // The cadence bounds the WAL: it never holds more than one run's
    // records past the cadence.
    EXPECT_LT(shard->replayStats().walRecords, 8u + 7u) << cycle;
  }
  // Only a cadence compaction writes a snapshot.
  EXPECT_TRUE(fs::exists(dir_ / "session.snap"));

  // A resumed run that dies before sealing replays unsealed: its begin
  // record un-seals the newest seal, in the WAL or in a cadence snapshot.
  {
    StateStore stateStore(configWith(8));
    HostStore* shard = stateStore.openHost("session");
    shard->resumeSession("fp1");
    shard->append(RecordType::JarUpsert, "late\tline");
  }
  StateStore reopened(configWith(8));
  const ReplayedState& rec = reopened.openHost("session")->recovered();
  EXPECT_FALSE(rec.meta.complete);
  EXPECT_EQ(rec.jarLines.at("late"), "line");
}

TEST_F(StoreTest, BeginSessionResetsPriorState) {
  {
    StateStore stateStore(configWith());
    HostStore* shard = stateStore.openHost("shop.example");
    shard->beginSession("fp1");
    shard->append(RecordType::HostEnforced, "shop.example");
  }
  {
    StateStore stateStore(configWith());
    HostStore* shard = stateStore.openHost("shop.example");
    EXPECT_FALSE(shard->recovered().empty());
    shard->beginSession("fp2");
    shard->append(RecordType::JarUpsert, "k9\tfresh");
  }
  StateStore reopened(configWith());
  const ReplayedState& rec = reopened.openHost("shop.example")->recovered();
  EXPECT_EQ(rec.meta.fingerprint, "fp2");
  EXPECT_TRUE(rec.enforcedHosts.empty());
  EXPECT_EQ(rec.jarLines.at("k9"), "fresh");
}

TEST_F(StoreTest, ResumeSessionUnsealsAndContinuesSequence) {
  SessionMeta meta;
  meta.complete = true;
  meta.fingerprint = "fp1";
  {
    StateStore stateStore(configWith());
    HostStore* shard = stateStore.openHost("session");
    shard->beginSession("fp1");
    shard->append(RecordType::JarUpsert, "k1\tline1");
    shard->finalize(meta, "state", "jar", "", "");
  }
  {
    StateStore stateStore(configWith());
    HostStore* shard = stateStore.openHost("session");
    EXPECT_TRUE(shard->recovered().meta.complete);
    shard->resumeSession("fp1");
    shard->append(RecordType::JarUpsert, "k2\tline2");
  }
  // A crash after the resume appends must replay as *in progress*, never as
  // the stale sealed result.
  StateStore reopened(configWith());
  const ReplayedState& rec = reopened.openHost("session")->recovered();
  EXPECT_FALSE(rec.meta.complete);
  EXPECT_EQ(rec.meta.fingerprint, "fp1");
  EXPECT_EQ(rec.jarLines.at("k1"), "line1");
  EXPECT_EQ(rec.jarLines.at("k2"), "line2");
}

TEST_F(StoreTest, TornWalTailOnDiskIsAmputatedOnRecovery) {
  {
    StateStore stateStore(configWith());
    HostStore* shard = stateStore.openHost("shop.example");
    shard->beginSession("fp1");
    shard->append(RecordType::HostEnforced, "shop.example");
  }
  // Tear the WAL by hand: append garbage that looks like a frame header
  // promising more bytes than exist.
  {
    std::ofstream wal(dir_ / "shop.example.wal",
                      std::ios::binary | std::ios::app);
    const char torn[] = {0x40, 0, 0, 0, 1, 2, 3};
    wal.write(torn, sizeof(torn));
  }
  StateStore reopened(configWith());
  HostStore* shard = reopened.openHost("shop.example");
  EXPECT_TRUE(shard->replayStats().tornTail);
  EXPECT_FALSE(shard->replayStats().corrupt);
  EXPECT_TRUE(shard->recovered().enforcedHosts.contains("shop.example"));
}

TEST_F(StoreTest, StaleSnapshotTmpIsDiscardedOnOpen) {
  {
    StateStore stateStore(configWith());
    HostStore* shard = stateStore.openHost("shop.example");
    shard->beginSession("fp1");
    shard->append(RecordType::HostEnforced, "shop.example");
  }
  ASSERT_TRUE(util::writeFileSync((dir_ / "shop.example.snap.tmp").string(),
                                  "half-written snapshot"));
  StateStore reopened(configWith());
  HostStore* shard = reopened.openHost("shop.example");
  EXPECT_TRUE(shard->recovered().enforcedHosts.contains("shop.example"));
  EXPECT_FALSE(fs::exists(dir_ / "shop.example.snap.tmp"));
}

// --- crash injection ---------------------------------------------------------

TEST_F(StoreTest, KillAfterAppendKeepsEverythingUpToTheCrash) {
  {
    StateStore stateStore(configWith());
    faults::CrashSchedule schedule;
    schedule.points.push_back({"shop.example",
                               faults::CrashMode::KillAfterAppend, 3});
    stateStore.setCrashSchedule(schedule);
    HostStore* shard = stateStore.openHost("shop.example");
    shard->beginSession("fp1");  // append 1 (SessionBegin)
    shard->append(RecordType::HostEnforced, "a.example");   // append 2
    shard->append(RecordType::HostEnforced, "b.example");   // append 3: dies
    EXPECT_TRUE(stateStore.crashed());
    shard->append(RecordType::HostEnforced, "c.example");   // dropped
  }
  StateStore reopened(configWith());
  const ReplayedState& rec = reopened.openHost("shop.example")->recovered();
  EXPECT_TRUE(rec.enforcedHosts.contains("a.example"));
  EXPECT_TRUE(rec.enforcedHosts.contains("b.example"));
  EXPECT_FALSE(rec.enforcedHosts.contains("c.example"));
}

TEST_F(StoreTest, TornAppendLosesOnlyTheTornRecord) {
  {
    StateStore stateStore(configWith());
    faults::CrashSchedule schedule;
    schedule.points.push_back({"shop.example",
                               faults::CrashMode::TornAppend, 3});
    stateStore.setCrashSchedule(schedule);
    HostStore* shard = stateStore.openHost("shop.example");
    shard->beginSession("fp1");
    shard->append(RecordType::HostEnforced, "a.example");
    shard->append(RecordType::HostEnforced, "b.example");  // torn: half a frame
    EXPECT_TRUE(stateStore.crashed());
  }
  StateStore reopened(configWith());
  HostStore* shard = reopened.openHost("shop.example");
  EXPECT_TRUE(shard->replayStats().tornTail);
  EXPECT_FALSE(shard->replayStats().corrupt);
  EXPECT_TRUE(shard->recovered().enforcedHosts.contains("a.example"));
  EXPECT_FALSE(shard->recovered().enforcedHosts.contains("b.example"));
}

TEST_F(StoreTest, KillMidRenameFallsBackToWal) {
  {
    StateStore stateStore(configWith(/*compactEvery=*/4));
    faults::CrashSchedule schedule;
    schedule.points.push_back({"shop.example",
                               faults::CrashMode::KillMidRename, 1});
    stateStore.setCrashSchedule(schedule);
    HostStore* shard = stateStore.openHost("shop.example");
    shard->beginSession("fp1");
    for (int i = 0; i < 6; ++i) {
      shard->append(RecordType::HostEnforced,
                    "h" + std::to_string(i) + ".example");
    }
    EXPECT_TRUE(stateStore.crashed());
  }
  // The snapshot temp file was fsynced but never renamed: crash residue.
  EXPECT_TRUE(fs::exists(dir_ / "shop.example.snap.tmp"));
  EXPECT_FALSE(fs::exists(dir_ / "shop.example.snap"));
  StateStore reopened(configWith(4));
  const ReplayedState& rec = reopened.openHost("shop.example")->recovered();
  // Everything the WAL held before the doomed compaction survives.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(
        rec.enforcedHosts.contains("h" + std::to_string(i) + ".example"))
        << i;
  }
}

// Finalize's five appends are one transaction. With a compact cadence small
// enough that the append counter rolls over *inside* finalize, a cadence
// compaction there would snapshot the half-sealed mirror (without the meta)
// and reset the WAL, destroying the records of the blobs already appended.
// The cadence is suspended across finalize and the seal compacts nothing,
// so no compaction runs at all (the mid-rename crash point on the first
// one never fires) and the WAL carries the whole sealed transaction.
TEST_F(StoreTest, CadenceBoundaryInsideFinalizeKeepsTheSealInTheWal) {
  SessionMeta meta;
  meta.pagesVisited = 2;
  {
    StateStore stateStore(configWith(/*compactEvery=*/4));
    faults::CrashSchedule schedule;
    schedule.points.push_back({"shop.example",
                               faults::CrashMode::KillMidRename, 1});
    stateStore.setCrashSchedule(schedule);
    HostStore* shard = stateStore.openHost("shop.example");
    shard->beginSession("fp1");                              // append 1
    shard->append(RecordType::HostEnforced, "h0.example");   // append 2
    shard->append(RecordType::HostEnforced, "h1.example");   // append 3
    // Appends 4..8: the cadence boundary lands mid-finalize.
    shard->finalize(meta, "the-state", "the-jar", "the-metrics",
                    "the-audit");
    EXPECT_FALSE(stateStore.crashed());
  }
  EXPECT_FALSE(fs::exists(dir_ / "shop.example.snap"));
  EXPECT_FALSE(fs::exists(dir_ / "shop.example.snap.tmp"));
  StateStore reopened(configWith(4));
  const ReplayedState& rec = reopened.openHost("shop.example")->recovered();
  // A shard that replays as complete must carry the exact sealed blobs —
  // the fleet serves them verbatim as the recovered session result.
  ASSERT_TRUE(rec.meta.complete);
  EXPECT_EQ(rec.stateBlob, "the-state");
  EXPECT_EQ(rec.jarBlob, "the-jar");
  EXPECT_EQ(rec.metricsText, "the-metrics");
  EXPECT_EQ(rec.auditJsonl, "the-audit");
  EXPECT_EQ(rec.meta.pagesVisited, 2);
}

TEST_F(StoreTest, CrashIsStoreWideAcrossShards) {
  StateStore stateStore(configWith());
  faults::CrashSchedule schedule;
  schedule.points.push_back({"a.example", faults::CrashMode::KillAfterAppend,
                             1});
  stateStore.setCrashSchedule(schedule);
  HostStore* shardA = stateStore.openHost("a.example");
  HostStore* shardB = stateStore.openHost("b.example");
  shardB->beginSession("fp1");
  shardA->beginSession("fp1");  // append 1 on a: the whole store dies
  EXPECT_TRUE(stateStore.crashed());
  shardB->append(RecordType::HostEnforced, "b.example");  // dropped

  StateStore reopened(configWith());
  EXPECT_TRUE(
      reopened.openHost("b.example")->recovered().enforcedHosts.empty());
}

// --- shard naming + fsck -----------------------------------------------------

TEST_F(StoreTest, ShardNameSanitizesHosts) {
  EXPECT_EQ(StateStore::shardName("shop.example"), "shop.example");
  EXPECT_EQ(StateStore::shardName("a_b-c.1"), "a_b-c.1");
  EXPECT_EQ(StateStore::shardName("Shop/Example:8080"),
            "%53hop%2F%45xample%3A8080");
  EXPECT_EQ(StateStore::shardName(""), "_");
}

TEST_F(StoreTest, FsckReportsHealthyAndCorruptShards) {
  {
    StateStore stateStore(configWith());
    HostStore* good = stateStore.openHost("good.example");
    good->beginSession("fp1");
    good->append(RecordType::HostEnforced, "good.example");
    SessionMeta meta;
    meta.complete = true;
    meta.fingerprint = "fp1";
    good->finalize(meta, "state", "jar", "", "");

    HostStore* bad = stateStore.openHost("bad.example");
    bad->beginSession("fp1");
    bad->append(RecordType::HostEnforced, "bad.example");
  }
  // Corrupt the bad shard's WAL with a bit flip inside the last frame.
  {
    const fs::path walPath = dir_ / "bad.example.wal";
    std::string bytes = readAll(walPath);
    bytes[bytes.size() - 2] ^= 0x10;
    ASSERT_TRUE(util::writeFileSync(walPath.string(), bytes));
  }

  const FsckReport report = StateStore::fsck(dir_.string());
  ASSERT_EQ(report.shards.size(), 2u);
  EXPECT_FALSE(report.ok);
  for (const ShardFsck& shard : report.shards) {
    if (shard.shard == "good.example") {
      EXPECT_TRUE(shard.ok);
      EXPECT_TRUE(shard.complete);
      EXPECT_EQ(shard.fingerprint, "fp1");
      EXPECT_FALSE(shard.corrupt);
    } else {
      EXPECT_EQ(shard.shard, "bad.example");
      EXPECT_FALSE(shard.ok);
      EXPECT_TRUE(shard.corrupt);
    }
  }
}

TEST_F(StoreTest, FsckPassesTornTailsAndOrphanTmps) {
  {
    StateStore stateStore(configWith());
    HostStore* shard = stateStore.openHost("shop.example");
    shard->beginSession("fp1");
    shard->append(RecordType::HostEnforced, "shop.example");
  }
  {
    std::ofstream wal(dir_ / "shop.example.wal",
                      std::ios::binary | std::ios::app);
    const char torn[] = {0x40, 0, 0, 0, 9};
    wal.write(torn, sizeof(torn));
  }
  ASSERT_TRUE(util::writeFileSync((dir_ / "shop.example.snap.tmp").string(),
                                  "residue"));
  const FsckReport report = StateStore::fsck(dir_.string());
  ASSERT_EQ(report.shards.size(), 1u);
  EXPECT_TRUE(report.ok);
  EXPECT_TRUE(report.shards[0].tornTail);
  EXPECT_TRUE(report.shards[0].orphanTmp);
  EXPECT_TRUE(report.shards[0].ok);
}

TEST_F(StoreTest, FsckOnMissingDirectoryIsEmptyAndOk) {
  const FsckReport report =
      StateStore::fsck((dir_ / "never-created").string());
  EXPECT_TRUE(report.shards.empty());
  EXPECT_TRUE(report.ok);
}

}  // namespace
}  // namespace cookiepicker::store
