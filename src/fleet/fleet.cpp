#include "fleet/fleet.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <optional>
#include <thread>

#include "dom/interner.h"
#include "obs/audit.h"
#include "obs/recorder.h"
#include "util/clock.h"
#include "util/log.h"
#include "util/strings.h"

namespace cookiepicker::fleet {

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

namespace {

// Shortest round-trip form, so distinct thresholds never print alike.
std::string shortestDouble(double value) {
  char buffer[32];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, ec == std::errc() ? end : buffer);
}

}  // namespace

TrainingFleet::TrainingFleet(net::Transport& network, FleetConfig config)
    : network_(network), config_(std::move(config)) {}

std::string TrainingFleet::configFingerprint() const {
  std::string out = "v1:";
  util::appendParts(
      out, {std::to_string(config_.seed), ":",
            std::to_string(config_.viewsPerHost), ":",
            config_.collectObservability ? "1" : "0",
            // Every session enforces its stable hosts; the field stays so
            // shards sealed by older builds still recover.
            ":1:",
            std::to_string(
                static_cast<int>(config_.picker.forcum.groupMode)),
            ":", config_.picker.forcum.consistencyReprobe ? "1" : "0", ":",
            config_.knowledge != nullptr ? "k1" : "k0"});
  // Every other setting that changes a session's bytes is appended only
  // when it differs from its default, so default-config fingerprints keep
  // their older bytes and shards sealed by older builds stay valid.
  const auto appendIf = [&out](bool differs, std::string_view tag,
                               const std::string& value) {
    if (differs) util::appendParts(out, {":", tag, value});
  };
  const core::CookiePickerConfig defaults;
  const core::ForcumConfig& forcum = config_.picker.forcum;
  const core::DecisionConfig& decision = forcum.decision;
  const core::DecisionConfig& base = defaults.forcum.decision;
  appendIf(forcum.attribution != core::AttributionMode::Off, "attr", "1");
  appendIf(config_.picker.autoEnforce != defaults.autoEnforce, "auto", "1");
  appendIf(forcum.stableViewThreshold != defaults.forcum.stableViewThreshold,
           "stable", std::to_string(forcum.stableViewThreshold));
  appendIf(decision.treeThreshold != base.treeThreshold, "tree",
           shortestDouble(decision.treeThreshold));
  appendIf(decision.textThreshold != base.textThreshold, "text",
           shortestDouble(decision.textThreshold));
  appendIf(decision.maxLevel != base.maxLevel, "level",
           std::to_string(decision.maxLevel));
  appendIf(decision.mode != base.mode, "mode",
           std::to_string(static_cast<int>(decision.mode)));
  appendIf(decision.sameContextCredit != base.sameContextCredit, "ctx", "0");
  const core::CvceOptions& cvce = decision.cvce;
  std::string filters;
  for (const bool on : {cvce.filterScriptsAndStyles, cvce.filterAdvertisement,
                        cvce.filterDateTime, cvce.filterOptionText,
                        cvce.filterNonAlphanumeric}) {
    filters += on ? '1' : '0';
  }
  appendIf(filters != "11111", "cvce", filters);
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

  core::Session session(network_, spec.domain, config_);
  if (shard != nullptr) session.picker().attachStateSink(shard);

  // Session-scoped flight recorder: every obs::count / span / audit append
  // on this thread lands in these sinks until the scope ends, so metrics
  // attribute per host session no matter which worker runs it. The
  // session's knowledge publish runs inside it too: sessions touch only
  // their own host's entry, so the merge counts stay deterministic.
  obs::MetricsRegistry sessionMetrics(config_.collectObservability);
  obs::AuditTrail sessionAudit;
  std::optional<obs::ScopedObsSession> obsScope;
  if (config_.collectObservability) {
    obsScope.emplace(&sessionMetrics, &sessionAudit);
  }

  session.run(config_.viewsPerHost, spec.pageCount);
  result.pagesVisited = std::max(0, config_.viewsPerHost);
  result.report = session.picker().report(spec.domain);
  result.state = session.picker().saveState();
  result.jarState = session.browser().jar().serialize();
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
