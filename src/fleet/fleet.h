// Parallel multi-session training fleet.
//
// Scales FORCUM training from one browsing session to N worker threads
// sharing one simulated Network. The unit of work is a *host*: each worker
// pulls the next site off a shared roster queue, runs one core::Session for
// it (its own SimClock and jar, its RNG keyed by the host name), and
// records the session's final state. Around the session the fleet adds only
// its own parts: the state-store short-circuit and shard, and the
// session-scoped flight recorder. Hosts are independent — the
// embarrassingly parallel shape of crawl-scale cookie studies — so
// throughput scales with workers while results stay exactly reproducible.
//
// Determinism invariant: for a fixed seed, roster, and views-per-host, the
// per-host reports, jar marks, and `FleetReport::serializeState()` bytes are
// identical for any worker count (1, 8, ...). This holds because every
// source of randomness a host session touches is keyed by the host name
// (session RNG, the Network's per-host latency streams) and every clock is
// session-local, so scheduling order cannot leak into results.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cookies/jar.h"
#include "core/cookie_picker.h"
#include "core/session.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "server/generator.h"
#include "store/store.h"

namespace cookiepicker::fleet {

// With `knowledge` set, determinism holds for any worker count because
// sessions read and write only their own host's entry and each roster host
// runs once. Hosts short-circuited from the state store do NOT re-publish;
// combine store recovery with knowledge via reruns (DESIGN.md §13).
struct FleetConfig : core::SessionConfig {
  int workers = 1;
  int viewsPerHost = 12;
  // Flight recorder: when true, every host session runs under its own
  // obs::MetricsRegistry + obs::AuditTrail (installed thread-locally for
  // the session's duration), and the per-host snapshots/trails land in
  // HostResult. Deterministic metrics and audit bytes are part of the
  // fleet's determinism invariant; timing histograms are not.
  bool collectObservability = false;
  // Durable state store (optional). When set, every host session opens its
  // shard before running: a shard whose recovered state is complete under
  // the current config fingerprint is *not rerun* — its HostResult is
  // rebuilt from the stored bytes — and every other host runs from scratch
  // with the session's picker/jar/FORCUM emitting through the shard. Since
  // rerun hosts get pristine per-host RNG and latency streams (sessions are
  // pure functions of (seed, host)), a crashed-and-recovered run is
  // byte-identical to one that never crashed. Null = no durability, no
  // overhead, byte-identical results.
  store::StateStore* stateStore = nullptr;
};

// Outcome of one host's training session.
struct HostResult {
  std::string label;
  std::string host;
  core::HostReport report;
  // The session's full CookiePicker::saveState() blob (jar with marks,
  // FORCUM state, enforced hosts) — the determinism anchor.
  std::string state;
  // The session jar alone, for cross-host merging.
  std::string jarState;
  int pagesVisited = 0;
  // Session-scoped observability (filled when collectObservability is on):
  // the metrics snapshot taken at session end and the session's audit
  // trail. The deterministic half of the snapshot and the audit bytes are
  // pure functions of (seed, host, views); the timing half is host-clock.
  obs::MetricsSnapshot metrics;
  std::string auditJsonl;
  // Host (real) time the session took and which worker ran it. Informational
  // only: excluded from serializeState() so timing never breaks determinism.
  double wallMs = 0.0;
  int workerIndex = -1;
  // True when this result was rebuilt from the state store instead of
  // rerunning the session. Recovered results carry every deterministic
  // field byte-identically; the host-clock timing averages in `report` are
  // zero (they are not persisted — they never determine anything).
  bool recovered = false;
};

struct FleetReport {
  int workers = 1;
  double wallMs = 0.0;
  std::uint64_t pagesVisited = 0;
  std::uint64_t hiddenRequests = 0;
  double pagesPerSecond = 0.0;
  double hiddenRequestsPerSecond = 0.0;
  // Sum of per-worker busy time over (workers * wall time); 1.0 = no worker
  // ever idled waiting for the queue to drain.
  double workerUtilization = 0.0;
  // Always in roster order, whatever order the queue drained in.
  std::vector<HostResult> hosts;

  int totalMarkedUseful() const;

  // Concatenation of every host session's state, in roster order — the blob
  // the determinism tests compare byte-for-byte across worker counts.
  std::string serializeState() const;
  // Union of the per-session jars (host sessions touch disjoint cookie
  // domains, so the merge is conflict-free).
  cookies::CookieJar mergedJar() const;

  // Merge of the per-host metrics snapshots, in roster order. Counter and
  // gauge merges commute, so the deterministic half is identical for any
  // worker count; timer histograms merge too but carry host-clock values.
  obs::MetricsSnapshot mergedMetrics() const;
  // Concatenation of the per-host audit trails, in roster order — a
  // scheduling-independent JSONL stream (seq numbers are per host session).
  std::string auditJsonl() const;
};

class TrainingFleet {
 public:
  // Any transport works: the seeded-latency sim (byte-identical results for
  // any worker count) or a socket transport whose hidden fetches flow
  // through shared per-host connection pools.
  TrainingFleet(net::Transport& network, FleetConfig config = {});

  // Trains every site in the roster, fanning the hosts out over
  // `config.workers` threads. The roster must already be registered on the
  // transport's backing tier (see server::registerRoster for the sim).
  // `workers <= 1` runs inline on the calling thread.
  FleetReport run(const std::vector<server::SiteSpec>& roster);

  const FleetConfig& config() const { return config_; }

  // The config fingerprint stored with every session — recovery reruns any
  // shard whose fingerprint differs, so stale state can never masquerade
  // as a result of the current configuration.
  std::string configFingerprint() const;

 private:
  HostResult runHostSession(const server::SiteSpec& spec) const;

  net::Transport& network_;
  FleetConfig config_;
};

}  // namespace cookiepicker::fleet
