// Durable state store — sharded WAL + snapshot persistence with
// deterministic crash recovery.
//
// Layout: one *shard* per host under StoreConfig::directory —
//   <shard>.wal        append-only log of typed records (wal.h framing)
//   <shard>.snap       newest compacted snapshot (same framing, snap magic)
//   <shard>.snap.tmp   in-flight snapshot; a leftover one is crash residue
// Hosts shard cleanly because fleet sessions are per-host and share nothing,
// so shards never need cross-file transactions. Sealing a session writes no
// snapshot: finalize() appends the result records and makes the WAL durable
// with one fdatasync, so a sealed fleet shard is just its .wal, and a .snap
// appears only once the append cadence has compacted the shard.
//
// The recovery invariant everything here serves: after a crash at ANY
// injected crash point, replaying the newest valid snapshot plus the WAL
// suffix and rerunning the unfinished hosts produces byte-identical final
// state (saveState blobs, deterministic metrics, audit trail) to a run that
// never crashed. Three design rules carry that invariant:
//
//  1. Records are absolute, replay is idempotent. Every record carries the
//     full new value (a whole jar line, a whole FORCUM site line), records
//     carry monotone sequence numbers, and apply() skips seq <= lastSeq.
//     The crash window between "snapshot renamed" and "WAL truncated" thus
//     replays harmlessly: the snapshot's watermark advances lastSeq past
//     every record the untruncated WAL still holds.
//  2. The mirror is the snapshot. Each HostStore applies its own records to
//     an in-memory ReplayedState as it appends; compaction serializes that
//     mirror. Durability therefore never calls back into the picker/jar
//     (whose locks are held around emit sites) — no lock-order cycle, no
//     deadlock, and a compaction costs no re-serialization of live objects.
//  3. Crashes are whole-process. The first shard to hit its crash point
//     flips a store-wide flag; every later write on every shard is dropped,
//     exactly as SIGKILL would drop it. Recovery trusts only the disk.
//
// Byte-exactness caveat: the mirror's synthesized saveState blob orders jar
// records by *escaped key string*, which can differ from the live jar's
// CookieKey tuple order. So finalize() persists the session's exact
// saveState/serialize bytes as blob records, and recovery hands those bytes
// back verbatim; the synthesized blob is only used to seed loadState (which
// normalizes) when resuming a half-finished single session.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "faults/crash.h"
#include "obs/metrics.h"
#include "store/state_sink.h"

namespace cookiepicker::store {

struct StoreConfig {
  std::string directory;
  // Compact the shard (snapshot + WAL truncate) once its WAL holds N
  // records; 0 never compacts.
  std::uint64_t compactEveryAppends = 256;
  // fsync after every append (snapshots always fsync before publishing, and
  // finalize() always fdatasyncs the WAL; between seals the WAL default is
  // flush-only, which the simulated-crash model — the store's own writes,
  // not the kernel, drop the tail — makes safe).
  bool fsyncEveryAppend = false;
};

// What replaying one shard's durable bytes yielded.
struct ReplayStats {
  bool snapshotLoaded = false;  // a valid snapshot was applied
  bool snapshotRejected = false;  // a snapshot existed but failed validation
  bool tornTail = false;          // WAL ended in an incomplete frame
  bool corrupt = false;           // WAL or snapshot had a checksum failure
  std::size_t snapshotRecords = 0;
  std::size_t walRecords = 0;
  std::size_t applied = 0;
  std::size_t duplicates = 0;     // seq <= lastSeq, skipped
  std::size_t unknownTypes = 0;   // intact records of unknown type, skipped
  std::size_t malformed = 0;      // intact frames with unparsable payloads
  std::size_t discardedBytes = 0; // bytes past the WAL's valid prefix
  std::size_t walValidBytes = 0;  // resume-append truncation point
};

// Summary a finished session stores alongside its blobs — enough to rebuild
// the fleet's HostResult without rerunning the host. Timing averages are
// deliberately absent: they are host-clock and not part of any determinism
// contract.
struct SessionMeta {
  bool complete = false;
  int pagesVisited = 0;
  int persistentCookies = 0;
  int markedUseful = 0;
  int pageViews = 0;
  int hiddenRequests = 0;
  bool trainingActive = true;
  bool enforced = false;
  std::string fingerprint;  // config fingerprint the session ran under
};

// In-memory mirror of one shard's durable state. Updated live on every
// append, rebuilt from disk on open; serializing it IS the snapshot.
struct ReplayedState {
  std::uint64_t lastSeq = 0;
  // Escaped "name|domain|path" key -> full serialized jar line.
  std::map<std::string, std::string> jarLines;
  // Host -> full serialized FORCUM site line (no trailing newline).
  std::map<std::string, std::string> forcumLines;
  // Host (escaped, field 0) -> full SiteKnowledge line. Only populated in
  // shared-knowledge shards (knowledge/knowledge_store.h); session shards
  // never carry these records.
  std::map<std::string, std::string> knowledgeLines;
  std::set<std::string> enforcedHosts;
  SessionMeta meta;
  // Exact bytes captured at finalize (see the byte-exactness caveat above).
  std::string stateBlob;
  std::string jarBlob;
  std::string metricsText;
  std::string auditJsonl;

  enum class Apply { Applied, Duplicate, Unknown };
  // Applies one record by wire type name. Duplicate = seq already covered
  // (snapshot watermark or replayed earlier); Unknown = forward-compat skip.
  Apply apply(std::uint64_t seq, std::string_view type, std::string_view body);

  bool empty() const {
    return lastSeq == 0 && jarLines.empty() && forcumLines.empty() &&
           knowledgeLines.empty() && enforcedHosts.empty();
  }

  // A CookiePicker::loadState-compatible blob synthesized from the mirror.
  // NOT byte-identical to the live picker's saveState (key-order caveat);
  // use stateBlob for byte-exact needs.
  std::string synthesizeStateBlob() const;
};

// Deterministic text rendering of a metrics snapshot's counters and gauges
// ("c <name> <value>" / "g <name> <value>" lines, zero entries omitted) and
// its inverse — what MetricsBlock records carry so a recovered host's
// merged-metrics contribution is byte-identical to the live session's.
// Timers are not encoded: they are host-clock and excluded from every
// determinism contract. Unknown names on decode are skipped (forward
// compat), mirroring the WAL's unknown-record rule.
std::string encodeMetricsSnapshot(const obs::MetricsSnapshot& snapshot);
obs::MetricsSnapshot decodeMetricsSnapshot(std::string_view text);

class StateStore;

// One host's shard: the StateSink the session's picker/jar/FORCUM emit
// into, plus the recovery view of what was already on disk when it opened.
// Thread-safe (emit sites run under component locks, but distinct
// components may emit concurrently in principle); never calls back into
// the emitting component.
class HostStore final : public StateSink {
 public:
  ~HostStore() override;
  HostStore(const HostStore&) = delete;
  HostStore& operator=(const HostStore&) = delete;

  // StateSink. Appends one framed record to the WAL, applies it to the
  // mirror, and compacts when the configured append budget is reached.
  // Dropped (with every later write) once the store has "crashed". A no-op
  // before beginSession/resumeSession.
  void append(RecordType type, std::string_view body) override;

  // What replay found on disk when the shard was opened.
  const ReplayedState& recovered() const { return recovered_; }
  const ReplayStats& replayStats() const { return replayStats_; }

  // Starts a from-scratch session: truncates WAL + snapshot, then logs
  // SessionBegin with the config fingerprint. Used by the fleet for every
  // host it (re)runs.
  void beginSession(const std::string& fingerprint);
  // Resumes appending after the recovered state: truncates the WAL to its
  // valid prefix (amputating any torn tail) and continues the sequence. The
  // kept WAL records count toward the compaction cadence.
  // Caller is responsible for seeding the live picker from recovered()
  // first. Used by the single-session CLI paths.
  void resumeSession(const std::string& fingerprint);

  // Seals the session: logs the exact state/jar/metrics/audit bytes, then
  // SessionMeta, and makes them durable with one fdatasync on the WAL
  // before returning. Writes no snapshot: the WAL (after any cadence
  // snapshot) already replays as the complete session.
  void finalize(const SessionMeta& meta, std::string_view stateBlob,
                std::string_view jarBlob, std::string_view metricsText,
                std::string_view auditJsonl);

  const std::string& host() const { return host_; }
  const std::string& walPath() const { return walPath_; }
  const std::string& snapPath() const { return snapPath_; }

 private:
  friend class StateStore;
  HostStore(StateStore* parent, std::string host, std::string walPath,
            std::string snapPath, faults::CrashPoint crashPoint);

  void open();  // replay disk into recovered_/mirror_
  // allowCompact=false suspends the append-cadence compaction — required
  // while a multi-record transaction (finalize) is half-applied, because a
  // compaction then would snapshot the half-applied mirror and reset the
  // WAL, destroying records of the transaction's own prefix.
  void appendLocked(RecordType type, std::string_view body,
                    bool allowCompact = true);
  void compactLocked();
  void resetWalLocked();  // (re)create the WAL file with just its magic
  void closeWalLocked();

  StateStore* parent_;
  std::string host_;
  std::string walPath_;
  std::string snapPath_;
  faults::CrashPoint crashPoint_;

  mutable std::mutex mutex_;
  std::FILE* wal_ = nullptr;
  bool writable_ = false;
  ReplayedState recovered_;
  ReplayStats replayStats_;
  ReplayedState mirror_;
  std::uint64_t appendCount_ = 0;   // appends since open (crash-point index)
  std::uint64_t compactCount_ = 0;  // compactions since open
  std::uint64_t sinceCompact_ = 0;  // WAL records since last compaction
  std::string frameScratch_;        // reused append frame buffer (under lock)
};

// fsck: offline integrity scan of a store directory. Read-only.
struct ShardFsck {
  std::string shard;  // file stem (sanitized host)
  std::string fingerprint;
  bool snapshotPresent = false;
  bool snapshotValid = false;
  bool walPresent = false;
  bool walMagicOk = false;
  bool complete = false;
  bool tornTail = false;    // benign crash residue
  bool corrupt = false;     // checksum failure: records were lost
  bool orphanTmp = false;   // leftover .snap.tmp (benign, crash residue)
  std::size_t snapshotRecords = 0;
  std::size_t walRecords = 0;
  std::size_t duplicates = 0;
  std::size_t discardedBytes = 0;
  std::size_t snapshotBytes = 0;
  std::size_t walBytes = 0;
  std::uint64_t lastSeq = 0;
  bool ok = false;  // false iff data was actually lost (corruption /
                    // invalid snapshot); torn tails and orphan tmps pass
};

struct FsckReport {
  std::vector<ShardFsck> shards;
  bool ok = true;  // every shard ok
};

// Directory manager: owns one HostStore per opened host and the store-wide
// crash state. A StateStore instance represents one process lifetime — to
// model "restart after crash", construct a fresh StateStore over the same
// directory.
class StateStore {
 public:
  explicit StateStore(StoreConfig config);

  // Opens (creating on first use) the shard for `host` and replays its
  // durable bytes. Returns a pointer owned by this store; stable until the
  // store is destroyed. Records the recovery counters (snapshots loaded,
  // records recovered/discarded) against the caller's active registry —
  // call it OUTSIDE any session obs scope so recovery accounting never
  // perturbs per-session deterministic metrics.
  HostStore* openHost(const std::string& host);

  // Deterministic crash injection: shards consult the schedule for their
  // crash point. Set before any session writes.
  void setCrashSchedule(faults::CrashSchedule schedule);

  // Whole-process crash simulation (see file comment, rule 3).
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }
  void declareCrashed() { crashed_.store(true, std::memory_order_release); }

  const StoreConfig& config() const { return config_; }

  // Filesystem-safe shard name for a host ([a-z0-9._-] kept, rest %XX).
  static std::string shardName(std::string_view host);

  static FsckReport fsck(const std::string& directory);

 private:
  StoreConfig config_;
  faults::CrashSchedule schedule_;
  std::atomic<bool> crashed_{false};
  std::mutex mutex_;
  std::map<std::string, std::unique_ptr<HostStore>> shards_;
};

// SessionMeta wire codec (exposed for the store tests).
std::string encodeSessionMeta(const SessionMeta& meta);
bool decodeSessionMeta(std::string_view body, SessionMeta& meta);

}  // namespace cookiepicker::store
