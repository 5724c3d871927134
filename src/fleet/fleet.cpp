#include "fleet/fleet.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>

#include "browser/browser.h"
#include "dom/interner.h"
#include "obs/audit.h"
#include "obs/recorder.h"
#include "util/clock.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/strings.h"

namespace cookiepicker::fleet {

int FleetReport::totalPersistentCookies() const {
  int total = 0;
  for (const HostResult& host : hosts) total += host.report.persistentCookies;
  return total;
}

int FleetReport::totalMarkedUseful() const {
  int total = 0;
  for (const HostResult& host : hosts) total += host.report.markedUseful;
  return total;
}

std::string FleetReport::serializeState() const {
  std::string out;
  for (const HostResult& host : hosts) {
    out += "== fleet host " + host.host + " ==\n";
    out += host.state;
  }
  return out;
}

cookies::CookieJar FleetReport::mergedJar() const {
  std::string lines;
  for (const HostResult& host : hosts) lines += host.jarState;
  return cookies::CookieJar::deserialize(lines);
}

obs::MetricsSnapshot FleetReport::mergedMetrics() const {
  obs::MetricsSnapshot merged;
  for (const HostResult& host : hosts) merged.merge(host.metrics);
  return merged;
}

std::string FleetReport::auditJsonl() const {
  std::string out;
  for (const HostResult& host : hosts) out += host.auditJsonl;
  return out;
}

TrainingFleet::TrainingFleet(net::Transport& network, FleetConfig config)
    : network_(network), config_(std::move(config)) {}

std::string TrainingFleet::configFingerprint() const {
  std::string out = "v1:";
  util::appendParts(
      out, {std::to_string(config_.seed), ":",
            std::to_string(config_.viewsPerHost), ":",
            config_.collectObservability ? "1" : "0", ":",
            config_.enforceStableAfterRun ? "1" : "0", ":",
            std::to_string(
                static_cast<int>(config_.picker.forcum.groupMode)),
            ":", config_.picker.forcum.consistencyReprobe ? "1" : "0", ":",
            config_.knowledge != nullptr ? "k1" : "k0"});
  // Appended only when attribution is on, so Off-mode fingerprints keep
  // their pre-tier bytes and recovered shards from older builds stay valid.
  if (config_.picker.forcum.attribution != core::AttributionMode::Off) {
    out += ":attr1";
  }
  return out;
}

HostResult TrainingFleet::runHostSession(const server::SiteSpec& spec) const {
  HostResult result;
  result.label = spec.label;
  result.host = spec.domain;

  // Durable store: open this host's shard first. A shard that finished a
  // session under the same config fingerprint short-circuits — the result is
  // rebuilt from the stored bytes and the session never runs. Anything else
  // (empty, torn, crashed mid-session, stale fingerprint) is reset and rerun
  // from scratch: sessions are pure functions of (seed, host), so the rerun
  // reproduces the uninterrupted bytes exactly. All recovery-path bookkeeping
  // happens before the session obs scope opens so the per-session metrics
  // stay identical between recovered and uninterrupted runs.
  store::HostStore* shard = nullptr;
  if (config_.stateStore != nullptr) {
    const std::string fingerprint = configFingerprint();
    shard = config_.stateStore->openHost(spec.domain);
    const store::ReplayedState& rec = shard->recovered();
    if (rec.meta.complete && rec.meta.fingerprint == fingerprint) {
      result.recovered = true;
      result.state = rec.stateBlob;
      result.jarState = rec.jarBlob;
      result.pagesVisited = rec.meta.pagesVisited;
      result.report.host = spec.domain;
      result.report.persistentCookies = rec.meta.persistentCookies;
      result.report.markedUseful = rec.meta.markedUseful;
      result.report.pageViews = rec.meta.pageViews;
      result.report.hiddenRequests = rec.meta.hiddenRequests;
      result.report.trainingActive = rec.meta.trainingActive;
      result.report.enforced = rec.meta.enforced;
      if (config_.collectObservability) {
        result.metrics = store::decodeMetricsSnapshot(rec.metricsText);
        result.auditJsonl = rec.auditJsonl;
      }
      return result;
    }
    shard->beginSession(fingerprint);
  }

  // Everything below is session-local: its own clock, jar, and an RNG stream
  // keyed by the host name — a pure function of (seed, host, views).
  util::SimClock clock;
  browser::Browser browser(network_, clock, config_.policy,
                           config_.seed ^ util::fnv1a64(spec.domain));
  core::CookiePickerConfig pickerConfig = config_.picker;
  pickerConfig.sharedKnowledge = config_.knowledge;
  core::CookiePicker picker(browser, pickerConfig);
  if (shard != nullptr) {
    picker.attachStateSink(shard);
  }

  // Session-scoped flight recorder: every obs::count / span / audit append
  // on this thread lands in these sinks until the scope ends, so metrics
  // attribute per host session no matter which worker runs it.
  obs::MetricsRegistry sessionMetrics(config_.collectObservability);
  obs::AuditTrail sessionAudit;
  std::optional<obs::ScopedObsSession> obsScope;
  if (config_.collectObservability) {
    obsScope.emplace(&sessionMetrics, &sessionAudit);
  }

  const int pages = std::max(1, spec.pageCount);
  for (int view = 0; view < config_.viewsPerHost; ++view) {
    picker.browse("http://" + spec.domain + "/page" +
                  std::to_string(view % pages));
    ++result.pagesVisited;
  }
  if (config_.enforceStableAfterRun) {
    picker.enforceStableHosts();
  }
  result.report = picker.report(spec.domain);
  result.state = picker.saveState();
  result.jarState = browser.jar().serialize();
  if (config_.knowledge != nullptr) {
    // Publish inside the session obs scope so the merge counters land in
    // the per-session snapshot — sessions touch only their own host's
    // entry, so the counts stay deterministic for any worker count.
    picker.publishKnowledge();
  }
  if (config_.collectObservability) {
    obsScope.reset();  // detach before snapshotting
    result.metrics = sessionMetrics.snapshot();
    result.auditJsonl = sessionAudit.jsonl();
  }
  if (shard != nullptr) {
    // Seal outside the obs scope: finalize's own append counters must
    // not land in the session snapshot (a recovered host never reruns
    // finalize, so they could not be reproduced on recovery).
    store::SessionMeta meta;
    meta.complete = true;
    meta.pagesVisited = result.pagesVisited;
    meta.persistentCookies = result.report.persistentCookies;
    meta.markedUseful = result.report.markedUseful;
    meta.pageViews = result.report.pageViews;
    meta.hiddenRequests = result.report.hiddenRequests;
    meta.trainingActive = result.report.trainingActive;
    meta.enforced = result.report.enforced;
    meta.fingerprint = configFingerprint();
    shard->finalize(meta, result.state, result.jarState,
                    store::encodeMetricsSnapshot(result.metrics),
                    result.auditJsonl);
  }
  return result;
}

FleetReport TrainingFleet::run(const std::vector<server::SiteSpec>& roster) {
  // Pre-intern common tag names so the worker threads mostly hit the
  // interner's shared-lock fast path instead of racing on first-touch
  // inserts during the opening page views. The streaming snapshot builders
  // inside each worker's Browser key their per-tag info caches by these
  // same symbol IDs, so this warms them too.
  dom::warmGlobalInterners();
  FleetReport report;
  const int workers = std::clamp(
      config_.workers, 1,
      roster.empty() ? 1 : static_cast<int>(roster.size()));
  report.workers = workers;
  report.hosts.resize(roster.size());

  // The work queue: an atomic cursor over the roster. Results land in the
  // roster-order slot, so the report is scheduling-independent.
  std::atomic<std::size_t> nextTask{0};
  std::vector<double> busyMs(static_cast<std::size_t>(workers), 0.0);
  auto workerLoop = [&](int workerIndex) {
    util::Logger::setThreadWorkerIndex(workerIndex);
    while (true) {
      // A declared crash stops the whole fleet from scheduling further
      // hosts — the process is "dead"; only what reached disk survives.
      if (config_.stateStore != nullptr && config_.stateStore->crashed()) {
        break;
      }
      const std::size_t task =
          nextTask.fetch_add(1, std::memory_order_relaxed);
      if (task >= roster.size()) break;
      util::StopWatch sessionWatch;
      HostResult result = runHostSession(roster[task]);
      result.wallMs = sessionWatch.elapsedMs();
      result.workerIndex = workerIndex;
      busyMs[static_cast<std::size_t>(workerIndex)] += result.wallMs;
      report.hosts[task] = std::move(result);
    }
    // The inline (workers <= 1) path runs on the caller's thread; leave no
    // tag behind either way.
    util::Logger::setThreadWorkerIndex(-1);
  };

  util::StopWatch wall;
  if (workers <= 1) {
    workerLoop(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(workers));
    for (int worker = 0; worker < workers; ++worker) {
      threads.emplace_back(workerLoop, worker);
    }
    for (std::thread& thread : threads) thread.join();
  }
  report.wallMs = wall.elapsedMs();

  for (const HostResult& host : report.hosts) {
    report.pagesVisited += static_cast<std::uint64_t>(host.pagesVisited);
    report.hiddenRequests +=
        static_cast<std::uint64_t>(host.report.hiddenRequests);
  }
  if (report.wallMs > 0.0) {
    report.pagesPerSecond =
        static_cast<double>(report.pagesVisited) / (report.wallMs / 1000.0);
    report.hiddenRequestsPerSecond =
        static_cast<double>(report.hiddenRequests) /
        (report.wallMs / 1000.0);
    double totalBusyMs = 0.0;
    for (const double ms : busyMs) totalBusyMs += ms;
    report.workerUtilization = totalBusyMs / (workers * report.wallMs);
  }
  return report;
}

}  // namespace cookiepicker::fleet
