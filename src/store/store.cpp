#include "store/store.h"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>

#include "obs/recorder.h"
#include "store/wal.h"
#include "util/fileio.h"
#include "util/log.h"
#include "util/strings.h"

namespace cookiepicker::store {

namespace fs = std::filesystem;

const char* recordTypeName(RecordType type) {
  switch (type) {
    case RecordType::JarUpsert:
      return "jar-set";
    case RecordType::JarRemove:
      return "jar-del";
    case RecordType::CookieMarked:
      return "mark";
    case RecordType::CounterTransition:
      return "counters";
    case RecordType::HostEnforced:
      return "enforce";
    case RecordType::VerdictApplied:
      return "verdict";
    case RecordType::SessionBegin:
      return "begin";
    case RecordType::SessionMeta:
      return "meta";
    case RecordType::StateBlob:
      return "state-blob";
    case RecordType::JarBlob:
      return "jar-blob";
    case RecordType::MetricsBlock:
      return "metrics";
    case RecordType::AuditBlock:
      return "audit";
    case RecordType::SnapshotMark:
      return "snap-mark";
    case RecordType::KnowledgeSite:
      return "knowledge";
    case RecordType::kCount:
      break;
  }
  return "unknown";
}

namespace {

bool parseU64(std::string_view text, std::uint64_t& value) {
  if (text.empty()) return false;
  std::uint64_t parsed = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), parsed);
  if (ec != std::errc() || ptr != text.data() + text.size()) return false;
  value = parsed;
  return true;
}

bool parseInt(std::string_view text, int& value) {
  int parsed = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), parsed);
  if (ec != std::errc() || ptr != text.data() + text.size()) return false;
  value = parsed;
  return true;
}

}  // namespace

std::string encodeSessionMeta(const SessionMeta& meta) {
  std::string out;
  util::appendParts(
      out, {meta.complete ? "1" : "0", "\t", std::to_string(meta.pagesVisited),
            "\t", std::to_string(meta.persistentCookies), "\t",
            std::to_string(meta.markedUseful), "\t",
            std::to_string(meta.pageViews), "\t",
            std::to_string(meta.hiddenRequests), "\t",
            meta.trainingActive ? "1" : "0", "\t", meta.enforced ? "1" : "0",
            "\t", meta.fingerprint});
  return out;
}

bool decodeSessionMeta(std::string_view body, SessionMeta& meta) {
  const std::vector<std::string> fields = util::split(std::string(body), '\t');
  if (fields.size() != 9) return false;
  SessionMeta parsed;
  parsed.complete = fields[0] == "1";
  if (!parseInt(fields[1], parsed.pagesVisited) ||
      !parseInt(fields[2], parsed.persistentCookies) ||
      !parseInt(fields[3], parsed.markedUseful) ||
      !parseInt(fields[4], parsed.pageViews) ||
      !parseInt(fields[5], parsed.hiddenRequests)) {
    return false;
  }
  parsed.trainingActive = fields[6] == "1";
  parsed.enforced = fields[7] == "1";
  parsed.fingerprint = fields[8];
  meta = std::move(parsed);
  return true;
}

std::string encodeMetricsSnapshot(const obs::MetricsSnapshot& snapshot) {
  std::string out;
  for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
    if (snapshot.counters[i] == 0) continue;
    util::appendParts(out,
                      {"c ", obs::counterName(static_cast<obs::Counter>(i)),
                       " ", std::to_string(snapshot.counters[i]), "\n"});
  }
  for (std::size_t i = 0; i < obs::kGaugeCount; ++i) {
    if (snapshot.gauges[i] == 0) continue;
    util::appendParts(out, {"g ", obs::gaugeName(static_cast<obs::Gauge>(i)),
                            " ", std::to_string(snapshot.gauges[i]), "\n"});
  }
  return out;
}

obs::MetricsSnapshot decodeMetricsSnapshot(std::string_view text) {
  obs::MetricsSnapshot snapshot;
  for (const std::string& line : util::split(std::string(text), '\n')) {
    const std::vector<std::string> parts = util::splitWhitespace(line);
    if (parts.size() != 3) continue;
    if (parts[0] == "c") {
      std::uint64_t value = 0;
      if (!parseU64(parts[2], value)) continue;
      for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
        if (parts[1] == obs::counterName(static_cast<obs::Counter>(i))) {
          snapshot.counters[i] = value;
          break;
        }
      }
    } else if (parts[0] == "g") {
      int value = 0;
      if (!parseInt(parts[2], value)) continue;
      for (std::size_t i = 0; i < obs::kGaugeCount; ++i) {
        if (parts[1] == obs::gaugeName(static_cast<obs::Gauge>(i))) {
          snapshot.gauges[i] = value;
          break;
        }
      }
    }
  }
  return snapshot;
}

ReplayedState::Apply ReplayedState::apply(std::uint64_t seq,
                                          std::string_view type,
                                          std::string_view body) {
  // Idempotence: WAL records (seq >= 1) already covered by the snapshot
  // watermark or an earlier replay are skipped. Snapshot data records carry
  // seq 0 and always apply (their ordering is the snapshot writer's).
  if (seq != 0 && seq <= lastSeq) return Apply::Duplicate;
  if (type == "jar-set" || type == "mark") {
    const std::size_t tab = body.find('\t');
    if (tab != std::string_view::npos) {
      jarLines[std::string(body.substr(0, tab))] =
          std::string(body.substr(tab + 1));
    }
  } else if (type == "jar-del") {
    jarLines.erase(std::string(body));
  } else if (type == "counters") {
    const std::size_t tab = body.find('\t');
    if (tab != std::string_view::npos) {
      forcumLines[std::string(body.substr(0, tab))] = std::string(body);
    }
  } else if (type == "enforce") {
    if (!body.empty()) enforcedHosts.insert(std::string(body));
  } else if (type == "verdict") {
    // Informational only: verdicts are derivable from the audit trail; the
    // record exists so fsck can narrate a shard's history.
  } else if (type == "begin") {
    // A begin record means "session in progress" — it un-seals any earlier
    // finalize, so a resumed-then-crashed shard can never replay as a stale
    // complete result.
    meta.fingerprint = std::string(body);
    meta.complete = false;
  } else if (type == "meta") {
    SessionMeta parsed;
    if (decodeSessionMeta(body, parsed)) meta = std::move(parsed);
  } else if (type == "state-blob") {
    stateBlob = std::string(body);
  } else if (type == "jar-blob") {
    jarBlob = std::string(body);
  } else if (type == "metrics") {
    metricsText = std::string(body);
  } else if (type == "audit") {
    auditJsonl = std::string(body);
  } else if (type == "knowledge") {
    // Shared-knowledge shards: the body is the site's full canonical line,
    // host in field 0. Absolute-valued like every other record — the
    // newest line for a host wins, so replay is idempotent.
    const std::size_t tab = body.find('\t');
    if (tab != std::string_view::npos) {
      knowledgeLines[std::string(body.substr(0, tab))] = std::string(body);
    }
  } else if (type == "snap-mark") {
    std::uint64_t mark = 0;
    if (parseU64(body, mark) && mark > lastSeq) lastSeq = mark;
    return Apply::Applied;
  } else {
    return Apply::Unknown;
  }
  if (seq > lastSeq) lastSeq = seq;
  return Apply::Applied;
}

std::string ReplayedState::synthesizeStateBlob() const {
  std::string out = "== jar ==\n";
  for (const auto& [key, line] : jarLines) {
    util::appendParts(out, {line, "\n"});
  }
  out += "== forcum ==\n";
  for (const auto& [host, line] : forcumLines) {
    util::appendParts(out, {line, "\n"});
  }
  out += "== enforced ==\n";
  for (const std::string& host : enforcedHosts) {
    util::appendParts(out, {host, "\n"});
  }
  return out;
}

namespace {

// Disk image of one shard, replayed. Shared by HostStore::open and fsck.
struct ShardReplay {
  ReplayedState state;
  ReplayStats stats;
  bool snapPresent = false;
  bool walPresent = false;
  bool walMagicOk = false;
  std::size_t snapBytes = 0;
  std::size_t walBytes = 0;
};

void applyCounted(ReplayedState& state, ReplayStats& stats,
                  const ParsedRecord& record) {
  switch (state.apply(record.seq, record.type, record.body)) {
    case ReplayedState::Apply::Applied:
      ++stats.applied;
      break;
    case ReplayedState::Apply::Duplicate:
      ++stats.duplicates;
      break;
    case ReplayedState::Apply::Unknown:
      ++stats.unknownTypes;
      break;
  }
}

ShardReplay replayShardFiles(const std::string& snapPath,
                             const std::string& walPath) {
  ShardReplay replay;
  std::string snapImage;
  if (util::readFile(snapPath, snapImage) && !snapImage.empty()) {
    replay.snapPresent = true;
    replay.snapBytes = snapImage.size();
    const ScanResult scan = scanLog(snapImage, kSnapMagic);
    // A snapshot is published atomically, so anything short of a fully
    // valid image means real damage — reject it wholesale rather than
    // trusting half a compaction.
    if (scan.magicOk && !scan.corrupt && !scan.tornTail) {
      replay.stats.snapshotLoaded = true;
      replay.stats.snapshotRecords = scan.records.size();
      replay.stats.malformed += scan.malformedPayloads;
      for (const ParsedRecord& record : scan.records) {
        applyCounted(replay.state, replay.stats, record);
      }
    } else {
      replay.stats.snapshotRejected = true;
      replay.stats.corrupt = true;
    }
  }
  std::string walImage;
  if (util::readFile(walPath, walImage) && !walImage.empty()) {
    replay.walPresent = true;
    replay.walBytes = walImage.size();
    const ScanResult scan = scanLog(walImage, kWalMagic);
    replay.walMagicOk = scan.magicOk;
    replay.stats.walRecords = scan.records.size();
    replay.stats.tornTail = scan.tornTail;
    replay.stats.corrupt = replay.stats.corrupt || scan.corrupt;
    replay.stats.malformed += scan.malformedPayloads;
    replay.stats.discardedBytes += scan.discardedBytes;
    replay.stats.walValidBytes = scan.magicOk ? scan.validBytes : 0;
    for (const ParsedRecord& record : scan.records) {
      applyCounted(replay.state, replay.stats, record);
    }
  }
  return replay;
}

}  // namespace

HostStore::HostStore(StateStore* parent, std::string host, std::string walPath,
                     std::string snapPath, faults::CrashPoint crashPoint)
    : parent_(parent),
      host_(std::move(host)),
      walPath_(std::move(walPath)),
      snapPath_(std::move(snapPath)),
      crashPoint_(std::move(crashPoint)) {}

HostStore::~HostStore() {
  std::lock_guard lock(mutex_);
  closeWalLocked();
}

void HostStore::open() {
  std::lock_guard lock(mutex_);
  ShardReplay replay = replayShardFiles(snapPath_, walPath_);
  recovered_ = replay.state;
  mirror_ = std::move(replay.state);
  replayStats_ = replay.stats;
  // A leftover .snap.tmp is the fingerprint of a crash between writing and
  // publishing a snapshot. Its content was never authoritative (the WAL was
  // not truncated), so it is discarded here, not adopted.
  std::error_code ec;
  fs::remove(snapPath_ + ".tmp", ec);
}

void HostStore::closeWalLocked() {
  if (wal_ != nullptr) {
    std::fclose(wal_);
    wal_ = nullptr;
  }
  writable_ = false;
}

void HostStore::resetWalLocked() {
  closeWalLocked();
  wal_ = std::fopen(walPath_.c_str(), "wb");
  if (wal_ == nullptr) {
    CP_LOG_WARN << "store: cannot open WAL " << walPath_;
    return;
  }
  std::fwrite(kWalMagic.data(), 1, kWalMagic.size(), wal_);
  std::fflush(wal_);
  writable_ = true;
}

void HostStore::beginSession(const std::string& fingerprint) {
  std::lock_guard lock(mutex_);
  if (parent_->crashed()) return;
  const bool hadData = !recovered_.empty() ||
                       replayStats_.walRecords > 0 ||
                       replayStats_.snapshotRecords > 0;
  std::error_code ec;
  fs::remove(snapPath_, ec);
  fs::remove(snapPath_ + ".tmp", ec);
  mirror_ = ReplayedState{};
  resetWalLocked();
  if (hadData) obs::countGlobal(obs::Counter::StoreShardsReset);
  appendLocked(RecordType::SessionBegin, fingerprint);
}

void HostStore::resumeSession(const std::string& fingerprint) {
  std::lock_guard lock(mutex_);
  if (parent_->crashed()) return;
  std::error_code ec;
  fs::remove(snapPath_ + ".tmp", ec);
  if (replayStats_.walValidBytes > 0) {
    // Amputate any torn tail before appending: gluing a new frame onto
    // half-written bytes would poison every later record.
    closeWalLocked();
    if (::truncate(walPath_.c_str(),
                   static_cast<off_t>(replayStats_.walValidBytes)) != 0) {
      CP_LOG_WARN << "store: cannot truncate WAL " << walPath_;
      resetWalLocked();
    } else {
      wal_ = std::fopen(walPath_.c_str(), "ab");
      if (wal_ == nullptr) {
        CP_LOG_WARN << "store: cannot reopen WAL " << walPath_;
      }
      writable_ = wal_ != nullptr;
      // The kept records count toward the cadence: a shard resumed by many
      // short runs still compacts once its WAL holds compactEveryAppends.
      sinceCompact_ = replayStats_.walRecords;
    }
  } else {
    resetWalLocked();
  }
  // Always log the begin: it re-stamps the fingerprint and un-seals a
  // previously finalized session, so compactions during the resumed run
  // never embed the old sealed blobs.
  appendLocked(RecordType::SessionBegin, fingerprint);
}

void HostStore::append(RecordType type, std::string_view body) {
  std::lock_guard lock(mutex_);
  appendLocked(type, body);
}

void HostStore::appendLocked(RecordType type, std::string_view body,
                             bool allowCompact) {
  if (!writable_ || wal_ == nullptr) return;
  if (parent_->crashed()) return;
  const std::uint64_t seq = mirror_.lastSeq + 1;
  std::string& frame = frameScratch_;
  frame.clear();
  appendRecordFrame(frame, seq, recordTypeName(type), body);
  ++appendCount_;
  if (crashPoint_.mode == faults::CrashMode::TornAppend &&
      appendCount_ == crashPoint_.at) {
    // Die mid-write: a prefix of the frame reaches the disk, nothing else
    // ever will. Recovery must treat this as a torn tail.
    const std::size_t half = std::max<std::size_t>(1, frame.size() / 2);
    std::fwrite(frame.data(), 1, half, wal_);
    std::fflush(wal_);
    parent_->declareCrashed();
    return;
  }
  // No flush: the crash model is process death, where stdio buffering costs
  // nothing (fclose and the simulated crash points flush what the model
  // says survives) — only fsyncEveryAppend buys per-record durability.
  std::fwrite(frame.data(), 1, frame.size(), wal_);
  if (parent_->config().fsyncEveryAppend) {
    std::fflush(wal_);
    ::fsync(fileno(wal_));
  }
  mirror_.apply(seq, recordTypeName(type), body);
  obs::countGlobal(obs::Counter::StoreAppends);
  obs::countGlobal(obs::Counter::StoreAppendBytes, frame.size());
  if (crashPoint_.mode == faults::CrashMode::KillAfterAppend &&
      appendCount_ == crashPoint_.at) {
    // Die with the record fully durable — recovery must replay it.
    std::fflush(wal_);
    ::fsync(fileno(wal_));
    parent_->declareCrashed();
    return;
  }
  ++sinceCompact_;
  const std::uint64_t every = parent_->config().compactEveryAppends;
  if (allowCompact && every > 0 && sinceCompact_ >= every) compactLocked();
}

void HostStore::compactLocked() {
  if (!writable_ || parent_->crashed()) return;
  ++compactCount_;
  sinceCompact_ = 0;
  // The mirror IS the snapshot: serialize it with seq 0 (always-apply)
  // records plus a watermark that advances the reader's lastSeq past every
  // record this snapshot subsumes.
  std::string snap(kSnapMagic);
  auto put = [&snap](RecordType type, std::string_view body) {
    appendFrame(snap, encodeRecordPayload(0, recordTypeName(type), body));
  };
  if (!mirror_.meta.fingerprint.empty() && !mirror_.meta.complete) {
    put(RecordType::SessionBegin, mirror_.meta.fingerprint);
  }
  for (const auto& [key, line] : mirror_.jarLines) {
    std::string body = key;
    body.push_back('\t');
    body.append(line);
    put(RecordType::JarUpsert, body);
  }
  for (const auto& [host, line] : mirror_.forcumLines) {
    put(RecordType::CounterTransition, line);
  }
  for (const std::string& host : mirror_.enforcedHosts) {
    put(RecordType::HostEnforced, host);
  }
  for (const auto& [host, line] : mirror_.knowledgeLines) {
    put(RecordType::KnowledgeSite, line);
  }
  // Blobs are persisted whenever present, not only once sealed — a
  // snapshot that dropped a mirrored blob would make the WAL reset below
  // destroy its only other copy. Meta still gates on complete, so an
  // unsealed shard always replays as "rerun me".
  if (!mirror_.stateBlob.empty()) put(RecordType::StateBlob, mirror_.stateBlob);
  if (!mirror_.jarBlob.empty()) put(RecordType::JarBlob, mirror_.jarBlob);
  if (!mirror_.metricsText.empty()) {
    put(RecordType::MetricsBlock, mirror_.metricsText);
  }
  if (!mirror_.auditJsonl.empty()) put(RecordType::AuditBlock, mirror_.auditJsonl);
  if (mirror_.meta.complete) {
    put(RecordType::SessionMeta, encodeSessionMeta(mirror_.meta));
  }
  put(RecordType::SnapshotMark, std::to_string(mirror_.lastSeq));

  const std::string tmpPath = snapPath_ + ".tmp";
  std::string error;
  if (!util::writeFileSync(tmpPath, snap, &error)) {
    CP_LOG_WARN << "store: snapshot write failed for " << host_ << ": "
                << error;
    return;
  }
  if (crashPoint_.mode == faults::CrashMode::KillMidRename &&
      compactCount_ == crashPoint_.at) {
    // Die between fsync and rename: the temp file is durable but was never
    // published, and the WAL was never truncated. Recovery discards the
    // temp and replays the WAL.
    parent_->declareCrashed();
    return;
  }
  std::error_code ec;
  fs::rename(tmpPath, snapPath_, ec);
  if (ec) {
    CP_LOG_WARN << "store: snapshot rename failed for " << host_ << ": "
                << ec.message();
    fs::remove(tmpPath, ec);
    return;
  }
  // Crash window here (snapshot published, WAL not yet truncated) is safe:
  // the watermark makes every still-present WAL record a duplicate.
  resetWalLocked();
  obs::countGlobal(obs::Counter::StoreCompactions);
  obs::countGlobal(obs::Counter::StoreSnapshotBytes, snap.size());
}

void HostStore::finalize(const SessionMeta& meta, std::string_view stateBlob,
                         std::string_view jarBlob,
                         std::string_view metricsText,
                         std::string_view auditJsonl) {
  std::lock_guard lock(mutex_);
  if (!writable_ || parent_->crashed()) return;
  SessionMeta sealed = meta;
  sealed.complete = true;
  if (sealed.fingerprint.empty()) sealed.fingerprint = mirror_.meta.fingerprint;
  // SessionMeta goes last: a crash anywhere mid-finalize leaves
  // complete=false and the host simply reruns. The five appends are one
  // transaction — cadence compaction is suspended across them (it would
  // snapshot a half-sealed mirror and reset the WAL out from under the
  // blobs already appended).
  appendLocked(RecordType::StateBlob, stateBlob, /*allowCompact=*/false);
  appendLocked(RecordType::JarBlob, jarBlob, /*allowCompact=*/false);
  appendLocked(RecordType::MetricsBlock, metricsText, /*allowCompact=*/false);
  appendLocked(RecordType::AuditBlock, auditJsonl, /*allowCompact=*/false);
  appendLocked(RecordType::SessionMeta, encodeSessionMeta(sealed),
               /*allowCompact=*/false);
  // The WAL (after any cadence snapshot) holds the whole sealed session, so
  // one barrier makes it durable; a snapshot would only copy the same
  // records again. An append above may have been a crash point.
  if (parent_->crashed()) return;
  if (std::fflush(wal_) != 0 || ::fdatasync(fileno(wal_)) != 0) {
    CP_LOG_WARN << "store: WAL sync failed for " << host_;
  }
}

StateStore::StateStore(StoreConfig config) : config_(std::move(config)) {}

void StateStore::setCrashSchedule(faults::CrashSchedule schedule) {
  std::lock_guard lock(mutex_);
  schedule_ = std::move(schedule);
}

std::string StateStore::shardName(std::string_view host) {
  std::string out;
  out.reserve(host.size());
  for (const char c : host) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                      c == '.' || c == '-' || c == '_';
    if (keep) {
      out.push_back(c);
    } else {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02X",
                    static_cast<unsigned char>(c));
      out.append(buf);
    }
  }
  if (out.empty()) out = "_";
  return out;
}

HostStore* StateStore::openHost(const std::string& host) {
  std::lock_guard lock(mutex_);
  const auto it = shards_.find(host);
  if (it != shards_.end()) return it->second.get();
  std::error_code ec;
  fs::create_directories(config_.directory, ec);
  const std::string base = config_.directory + "/" + shardName(host);
  faults::CrashPoint point;
  if (const faults::CrashPoint* scheduled = schedule_.pointFor(host)) {
    point = *scheduled;
  }
  std::unique_ptr<HostStore> shard(new HostStore(
      this, host, base + ".wal", base + ".snap", std::move(point)));
  shard->open();
  const ReplayStats& stats = shard->replayStats();
  if (stats.snapshotLoaded) obs::countGlobal(obs::Counter::StoreSnapshotsLoaded);
  if (stats.applied > 0) {
    obs::countGlobal(obs::Counter::StoreRecordsRecovered, stats.applied);
  }
  const std::uint64_t discarded =
      static_cast<std::uint64_t>(stats.malformed + stats.unknownTypes) +
      (stats.tornTail ? 1 : 0) + (stats.corrupt ? 1 : 0);
  if (discarded > 0) {
    obs::countGlobal(obs::Counter::StoreRecordsDiscarded, discarded);
  }
  HostStore* raw = shard.get();
  shards_.emplace(host, std::move(shard));
  return raw;
}

FsckReport StateStore::fsck(const std::string& directory) {
  FsckReport report;
  std::error_code ec;
  std::set<std::string> stems;
  std::set<std::string> tmpStems;
  for (const auto& entry : fs::directory_iterator(directory, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    auto stemOf = [&name](std::string_view suffix) {
      return name.substr(0, name.size() - suffix.size());
    };
    if (name.ends_with(".snap.tmp")) {
      stems.insert(stemOf(".snap.tmp"));
      tmpStems.insert(stemOf(".snap.tmp"));
    } else if (name.ends_with(".wal")) {
      stems.insert(stemOf(".wal"));
    } else if (name.ends_with(".snap")) {
      stems.insert(stemOf(".snap"));
    }
  }
  if (ec) {
    // A directory that was never created is an empty store, not data loss;
    // only a directory that exists but can't be scanned fails the check.
    report.ok = !fs::exists(directory);
    return report;
  }
  for (const std::string& stem : stems) {
    const std::string base = directory + "/" + stem;
    const ShardReplay replay =
        replayShardFiles(base + ".snap", base + ".wal");
    ShardFsck shard;
    shard.shard = stem;
    shard.fingerprint = replay.state.meta.fingerprint;
    shard.snapshotPresent = replay.snapPresent;
    shard.snapshotValid = replay.stats.snapshotLoaded;
    shard.walPresent = replay.walPresent;
    shard.walMagicOk = replay.walMagicOk;
    shard.complete = replay.state.meta.complete;
    shard.tornTail = replay.stats.tornTail;
    shard.corrupt = replay.stats.corrupt;
    shard.orphanTmp = tmpStems.contains(stem);
    shard.snapshotRecords = replay.stats.snapshotRecords;
    shard.walRecords = replay.stats.walRecords;
    shard.duplicates = replay.stats.duplicates;
    shard.discardedBytes = replay.stats.discardedBytes;
    shard.snapshotBytes = replay.snapBytes;
    shard.walBytes = replay.walBytes;
    shard.lastSeq = replay.state.lastSeq;
    // Torn tails and orphan temps are expected crash residue; actual data
    // loss (checksum failures, unreadable snapshots, a WAL without its
    // magic) is not.
    shard.ok = !shard.corrupt &&
               (!shard.snapshotPresent || shard.snapshotValid) &&
               (!shard.walPresent || shard.walMagicOk);
    report.ok = report.ok && shard.ok;
    report.shards.push_back(std::move(shard));
  }
  return report;
}

}  // namespace cookiepicker::store
