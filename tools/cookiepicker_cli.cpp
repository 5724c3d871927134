// cookiepicker — command-line driver for the library.
//
//   cookiepicker demo                          quickstart on one site
//   cookiepicker audit  [--sites N] [--views V] [--seed S] [--workers W]
//                                              census + CookiePicker summary
//                                              (W >= 1 runs the worker fleet)
//   cookiepicker census [--sites N] [--seed S] cookie-usage measurement only
//   cookiepicker table1 | table2               paper-table reproductions
//   cookiepicker record --out FILE [--seed S]  capture a campaign trace
//   cookiepicker replay --in FILE  [--seed S]  rerun a captured trace
//                       [--strict]             (non-zero exit on drift)
//   cookiepicker stats  [--sites N] ...        instrumented run: counters +
//                                              per-phase latency shares
//   cookiepicker fsck --state-dir DIR          offline store integrity scan
//                                              (exit 1 on data loss)
//   cookiepicker serve [--port P] [--once H]   verdict service over real
//                                              sockets (epoll origin tier +
//                                              pipelined hidden fetches)
//
// Flight-recorder outputs (audit + stats): --metrics-out FILE writes the
// metrics snapshot as JSON, --audit-out FILE writes the per-verdict JSONL
// audit trail.
//
// Durability: --state-dir DIR opens a durable state store there. The fleet
// audit path resumes host-by-host (finished hosts are not rerun; interrupted
// ones rerun from scratch to the identical bytes); the single-session audit
// path reloads the saved extension state and continues training across
// invocations, like a browser restart.
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "browser/browser.h"
#include "core/cookie_picker.h"
#include "faults/fault_plan.h"
#include "fleet/fleet.h"
#include "knowledge/knowledge_base.h"
#include "knowledge/knowledge_store.h"
#include "measure/census.h"
#include "net/network.h"
#include "net/trace.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "serve/async_client.h"
#include "serve/event_loop.h"
#include "serve/http_server.h"
#include "serve/origin_tier.h"
#include "serve/socket_transport.h"
#include "serve/verdict_service.h"
#include "server/generator.h"
#include "store/store.h"
#include "util/clock.h"
#include "util/fileio.h"
#include "util/stats.h"

namespace {

using namespace cookiepicker;

struct Options {
  int sites = 30;
  int views = 10;
  int workers = 0;  // 0 = classic single-session audit; >= 1 = fleet
  std::uint64_t seed = 2007;
  std::string inFile;
  std::string outFile;
  std::string metricsOut;  // metrics snapshot JSON destination
  std::string auditOut;    // audit-trail JSONL destination
  std::string faultPlanFile;  // fault schedule injected into the network
  std::string stateDir;    // durable state store directory (empty = off)
  std::string knowledgeDir;  // serve: shared-knowledge directory (empty = off)
  bool strict = false;     // replay: exit non-zero on drift
  bool attribution = false;  // taint-assisted O(1) cookie attribution
  int port = 0;            // serve: verdict listener port (0 = ephemeral)
  int originThreads = 2;   // serve: origin-tier event-loop threads
  std::string onceHost;    // serve: run one verdict and exit ("-" = first)
};

Options parseOptions(int argc, char** argv, int firstFlag) {
  Options options;
  for (int i = firstFlag; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (flag == "--sites") {
      options.sites = std::max(1, std::atoi(next().c_str()));
    } else if (flag == "--views") {
      options.views = std::max(1, std::atoi(next().c_str()));
    } else if (flag == "--workers") {
      options.workers = std::max(1, std::atoi(next().c_str()));
    } else if (flag == "--seed") {
      options.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (flag == "--in") {
      options.inFile = next();
    } else if (flag == "--out") {
      options.outFile = next();
    } else if (flag == "--metrics-out") {
      options.metricsOut = next();
    } else if (flag == "--audit-out") {
      options.auditOut = next();
    } else if (flag == "--fault-plan") {
      options.faultPlanFile = next();
    } else if (flag == "--state-dir") {
      options.stateDir = next();
    } else if (flag == "--knowledge-dir") {
      options.knowledgeDir = next();
    } else if (flag == "--strict") {
      options.strict = true;
    } else if (flag == "--attribution") {
      options.attribution = true;
    } else if (flag == "--port") {
      options.port = std::atoi(next().c_str());
    } else if (flag == "--origin-threads") {
      options.originThreads = std::max(1, std::atoi(next().c_str()));
    } else if (flag == "--once") {
      options.onceHost = next();
      if (options.onceHost.empty()) options.onceHost = "-";
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
    }
  }
  return options;
}

bool writeFileOrComplain(const std::string& path, const std::string& bytes) {
  // Crash-safe publish: the destination always holds either the previous
  // content or the complete new content, never a torn mixture.
  std::string error;
  if (!util::atomicWriteFile(path, bytes, &error)) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                 error.c_str());
    return false;
  }
  return true;
}

// Writes the flight-recorder outputs an instrumented run produced. Returns
// false (-> exit code) only on I/O failure.
bool writeObsOutputs(const Options& options,
                     const obs::MetricsSnapshot& metrics,
                     const std::string& auditJsonl) {
  bool ok = true;
  if (!options.metricsOut.empty()) {
    ok = writeFileOrComplain(options.metricsOut, metrics.toJson() + "\n") &&
         ok;
  }
  if (!options.auditOut.empty()) {
    ok = writeFileOrComplain(options.auditOut, auditJsonl) && ok;
  }
  return ok;
}

// Loads and parses --fault-plan into `plan`. Returns false (after
// complaining) on I/O or parse failure; leaves `plan` null when no plan
// file was requested.
bool loadFaultPlan(const Options& options,
                   std::shared_ptr<const faults::FaultPlan>& plan) {
  if (options.faultPlanFile.empty()) return true;
  std::ifstream in(options.faultPlanFile, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", options.faultPlanFile.c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto parsed = faults::FaultPlan::parse(buffer.str());
  if (!parsed.has_value()) {
    std::fprintf(stderr, "malformed fault plan: %s\n",
                 options.faultPlanFile.c_str());
    return false;
  }
  plan = std::make_shared<const faults::FaultPlan>(std::move(*parsed));
  return true;
}

int runDemo() {
  util::SimClock clock;
  net::Network network(1);
  server::SiteSpec spec = server::makeGenericSpec("Demo", "demo.example", 42);
  spec.containerTrackers = 0;
  spec.pixelTrackers = 2;
  network.registerHost(spec.domain, server::buildSite(spec, clock));
  browser::Browser browser(network, clock);
  core::CookiePicker picker(browser);
  for (int i = 0; i < 8; ++i) {
    picker.browse("http://demo.example/page" + std::to_string(i % 6 + 1));
  }
  std::printf("verdicts for %s:\n", spec.domain.c_str());
  for (const cookies::CookieRecord* record :
       browser.jar().persistentCookiesForHost(spec.domain)) {
    std::printf("  %-10s %s\n", record->key.name.c_str(),
                record->useful ? "USEFUL" : "useless");
  }
  return 0;
}

int runCensus(const Options& options) {
  const auto roster = server::measurementRoster(options.sites, options.seed);
  const measure::CensusReport report = measure::runCensus(roster);
  std::printf("sites: %d, cookies: %d (%d persistent)\n",
              report.sitesVisited, report.totalCookies(),
              report.persistentCookies());
  std::printf("persistent >= 1 year: %.1f%%\n",
              100.0 * report.persistentFractionWithLifetimeAtLeast(
                          365LL * 86400));
  for (const auto& [label, count, fraction] : report.lifetimeBuckets()) {
    std::printf("  %-18s %5d  %5.1f%%\n", label.c_str(), count,
                100.0 * fraction);
  }
  return 0;
}

// Parallel audit: per-host sessions fanned out over a worker fleet. Results
// are byte-identical for any --workers value (per-host RNG streams and
// session-local clocks), so more workers only changes wall time.
int runFleetAudit(const Options& options) {
  util::SimClock serverClock;
  net::Network network(options.seed);
  const auto roster = server::measurementRoster(options.sites, options.seed);
  server::registerRoster(network, serverClock, roster);
  std::shared_ptr<const faults::FaultPlan> faultPlan;
  if (!loadFaultPlan(options, faultPlan)) return 2;
  if (faultPlan != nullptr) network.setFaultPlan(faultPlan);

  fleet::FleetConfig config;
  config.workers = options.workers;
  config.viewsPerHost = options.views;
  config.seed = options.seed;
  config.picker.autoEnforce = true;
  if (options.attribution) {
    config.picker.forcum.attribution = core::AttributionMode::Provenance;
  }
  config.collectObservability =
      !options.metricsOut.empty() || !options.auditOut.empty();
  std::optional<store::StateStore> stateStore;
  if (!options.stateDir.empty()) {
    store::StoreConfig storeConfig;
    storeConfig.directory = options.stateDir;
    stateStore.emplace(std::move(storeConfig));
    config.stateStore = &*stateStore;
  }
  fleet::TrainingFleet fleet(network, config);
  const fleet::FleetReport report = fleet.run(roster);

  int removed = 0;
  for (std::size_t i = 0; i < roster.size(); ++i) {
    removed += roster[i].totalPersistent() -
               report.hosts[i].report.persistentCookies;
  }
  std::printf("sites audited        : %d (%d views each, %d workers)\n",
              options.sites, options.views, report.workers);
  std::printf("cookies kept useful  : %d\n", report.totalMarkedUseful());
  std::printf("trackers removed     : %d\n", removed);
  std::printf("pages visited        : %llu (%.1f pages/s)\n",
              static_cast<unsigned long long>(report.pagesVisited),
              report.pagesPerSecond);
  std::printf("hidden requests      : %llu (%.1f req/s)\n",
              static_cast<unsigned long long>(report.hiddenRequests),
              report.hiddenRequestsPerSecond);
  std::printf("worker utilization   : %.0f%%\n",
              100.0 * report.workerUtilization);
  if (faultPlan != nullptr) {
    std::printf("faults injected      : %llu\n",
                static_cast<unsigned long long>(network.injectedFailures()));
  }
  if (stateStore.has_value()) {
    int recoveredHosts = 0;
    for (const fleet::HostResult& host : report.hosts) {
      if (host.recovered) ++recoveredHosts;
    }
    std::printf("hosts from store     : %d of %zu (state dir %s)\n",
                recoveredHosts, report.hosts.size(),
                options.stateDir.c_str());
  }
  if (config.collectObservability &&
      !writeObsOutputs(options, report.mergedMetrics(),
                       report.auditJsonl())) {
    return 2;
  }
  return 0;
}

int runAudit(const Options& options) {
  if (options.workers >= 1) return runFleetAudit(options);
  util::SimClock clock;
  net::Network network(options.seed);
  browser::Browser browser(network, clock);
  core::CookiePickerConfig config;
  config.autoEnforce = true;
  if (options.attribution) {
    config.forcum.attribution = core::AttributionMode::Provenance;
  }
  core::CookiePicker picker(browser, config);
  const auto roster = server::measurementRoster(options.sites, options.seed);
  server::registerRoster(network, clock, roster);
  std::shared_ptr<const faults::FaultPlan> faultPlan;
  if (!loadFaultPlan(options, faultPlan)) return 2;
  if (faultPlan != nullptr) network.setFaultPlan(faultPlan);

  // Durable state: the whole single-session audit lives in one shard.
  // A prior invocation's state (complete or crash-interrupted) is reloaded
  // into the picker and training continues — the "browser restart" flow —
  // as long as the stored fingerprint matches this run's parameters.
  // Opened before the obs scope so recovery accounting stays out of the
  // run's metrics snapshot.
  std::optional<store::StateStore> stateStore;
  store::HostStore* shard = nullptr;
  const std::string fingerprint =
      "cli-v1:" + std::to_string(options.seed) + ":" +
      std::to_string(options.sites) + ":" + std::to_string(options.views) +
      (options.attribution ? ":attr1" : "");
  if (!options.stateDir.empty()) {
    store::StoreConfig storeConfig;
    storeConfig.directory = options.stateDir;
    stateStore.emplace(std::move(storeConfig));
    shard = stateStore->openHost("session");
    const store::ReplayedState& rec = shard->recovered();
    bool resumed = false;
    if (!rec.empty() && rec.meta.fingerprint == fingerprint) {
      // A sealed session carries the exact saveState bytes; an interrupted
      // one is reconstructed from its replayed records.
      const std::string blob = rec.meta.complete && !rec.stateBlob.empty()
                                   ? rec.stateBlob
                                   : rec.synthesizeStateBlob();
      std::string error;
      if (picker.loadState(blob, &error)) {
        shard->resumeSession(fingerprint);
        resumed = true;
        std::printf("state resumed from   : %s\n", options.stateDir.c_str());
      } else {
        std::fprintf(stderr, "state-dir resume rejected: %s\n",
                     error.c_str());
      }
    }
    if (!resumed) shard->beginSession(fingerprint);
    picker.attachStateSink(shard);
  }

  // Single-session flight recorder: one registry + trail for the whole run,
  // installed for the duration of the browsing loop.
  const bool collectObs =
      !options.metricsOut.empty() || !options.auditOut.empty();
  obs::MetricsRegistry metrics(collectObs);
  obs::AuditTrail audit;
  std::optional<obs::ScopedObsSession> obsScope;
  if (collectObs) obsScope.emplace(&metrics, &audit);

  int usefulKept = 0;
  int removed = 0;
  for (const server::SiteSpec& spec : roster) {
    for (int view = 0; view < options.views; ++view) {
      picker.browse("http://" + spec.domain + "/page" +
                    std::to_string(view % spec.pageCount));
    }
    const core::HostReport report = picker.report(spec.domain);
    usefulKept += report.markedUseful;
    removed += spec.totalPersistent() - report.persistentCookies;
  }
  std::printf("sites audited        : %d (%d views each)\n", options.sites,
              options.views);
  std::printf("cookies kept useful  : %d\n", usefulKept);
  std::printf("trackers removed     : %d\n", removed);
  std::printf("user interruptions   : %d\n",
              picker.recovery().recoveryCount());
  if (faultPlan != nullptr) {
    std::printf("faults injected      : %llu\n",
                static_cast<unsigned long long>(network.injectedFailures()));
  }
  if (collectObs) obsScope.reset();
  if (shard != nullptr) {
    store::SessionMeta meta;
    meta.complete = true;
    meta.pagesVisited = options.sites * options.views;
    meta.markedUseful = usefulKept;
    meta.fingerprint = fingerprint;
    shard->finalize(
        meta, picker.saveState(), browser.jar().serialize(),
        collectObs ? store::encodeMetricsSnapshot(metrics.snapshot())
                   : std::string(),
        collectObs ? audit.jsonl() : std::string());
  }
  if (collectObs &&
      !writeObsOutputs(options, metrics.snapshot(), audit.jsonl())) {
    return 2;
  }
  return 0;
}

// Shared by record/replay so both passes issue the identical workload.
template <typename MakeHandler>
std::string runCampaignWith(const Options& options,
                            MakeHandler&& makeHandler,
                            std::string* traceOut) {
  util::SimClock clock;
  net::Network network(options.seed);
  server::SiteSpec spec =
      server::makeGenericSpec("Cli", "cli.example", options.seed);
  auto handler = makeHandler(spec, clock);
  network.registerHost(spec.domain, handler.first);
  browser::Browser browser(network, clock);
  core::CookiePicker picker(browser);
  for (int view = 0; view < options.views; ++view) {
    picker.browse("http://cli.example/page" +
                  std::to_string(view % spec.pageCount));
  }
  if (traceOut != nullptr) *traceOut = handler.second();
  return browser.jar().serialize();
}

int runRecord(const Options& options) {
  if (options.outFile.empty()) {
    std::fprintf(stderr, "record requires --out FILE\n");
    return 2;
  }
  std::string traceText;
  const std::string jar = runCampaignWith(
      options,
      [](const server::SiteSpec& spec, util::SimClock& clock) {
        auto recorder = std::make_shared<net::RecordingHandler>(
            server::buildSite(spec, clock));
        return std::make_pair(
            std::static_pointer_cast<net::HttpHandler>(recorder),
            [recorder]() { return recorder->serialize(); });
      },
      &traceText);
  if (!writeFileOrComplain(options.outFile, traceText)) return 2;
  std::printf("recorded trace to %s\njar state:\n%s", options.outFile.c_str(),
              jar.c_str());
  return 0;
}

int runReplay(const Options& options) {
  if (options.inFile.empty()) {
    std::fprintf(stderr, "replay requires --in FILE\n");
    return 2;
  }
  std::ifstream in(options.inFile, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", options.inFile.c_str());
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  // The handler outlives the campaign so the drift summary can read it.
  auto replay =
      std::make_shared<net::ReplayHandler>(net::parseTrace(buffer.str()));
  const std::string jar = runCampaignWith(
      options,
      [&replay](const server::SiteSpec&, util::SimClock&) {
        return std::make_pair(
            std::static_pointer_cast<net::HttpHandler>(replay),
            []() { return std::string(); });
      },
      nullptr);
  std::printf("replayed %s\njar state:\n%s", options.inFile.c_str(),
              jar.c_str());
  const std::uint64_t misses = replay->misses();
  if (misses == 0) {
    std::printf("replay drift         : none (every request matched)\n");
  } else {
    std::printf("replay drift         : %llu request(s) had no recorded "
                "counterpart%s\n",
                static_cast<unsigned long long>(misses),
                options.strict ? " [strict]" : "");
  }
  if (options.strict && misses > 0) return 1;
  return 0;
}

// Instrumented fleet run: prints the flight recorder's deterministic
// counters plus where the host time went, phase by phase. The "share"
// column splits the page-visit plus FORCUM-step time (the two never nest)
// into the non-overlapping leaf phases (parse, snapshot build, stream
// build, RSTM DP, CVCE extract/merge) and an `unattributed` remainder; the
// umbrella spans (decision, hidden fetch, page visit, FORCUM step, audit
// evidence) nest leaves and are listed without a share.
int runStats(const Options& options) {
  util::SimClock serverClock;
  net::Network network(options.seed);
  const auto roster = server::measurementRoster(options.sites, options.seed);
  server::registerRoster(network, serverClock, roster);

  fleet::FleetConfig config;
  config.workers = std::max(1, options.workers);
  config.viewsPerHost = options.views;
  config.seed = options.seed;
  config.picker.autoEnforce = true;
  if (options.attribution) {
    config.picker.forcum.attribution = core::AttributionMode::Provenance;
  }
  config.collectObservability = true;
  fleet::TrainingFleet fleet(network, config);
  const fleet::FleetReport report = fleet.run(roster);
  const obs::MetricsSnapshot metrics = report.mergedMetrics();

  std::printf("deterministic counters (%d sites, %d views, seed %llu):\n",
              options.sites, options.views,
              static_cast<unsigned long long>(options.seed));
  for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
    std::printf("  %-26s %12llu\n",
                obs::counterName(static_cast<obs::Counter>(i)),
                static_cast<unsigned long long>(metrics.counters[i]));
  }
  for (std::size_t i = 0; i < obs::kGaugeCount; ++i) {
    std::printf("  %-26s %12lld\n",
                obs::gaugeName(static_cast<obs::Gauge>(i)),
                static_cast<long long>(metrics.gauges[i]));
  }

  const obs::Timer leafPhases[] = {obs::Timer::StreamBuild, obs::Timer::RstmDp,
                                    obs::Timer::CvceExtract,
                                    obs::Timer::CvceMerge};
  double leafTotalMs = 0.0;
  for (const obs::Timer timer : leafPhases) {
    leafTotalMs += metrics.timer(timer).totalMs();
  }
  const double wholeMs = metrics.timer(obs::Timer::PageVisit).totalMs() +
                         metrics.timer(obs::Timer::ForcumStep).totalMs();
  const auto shareOfWhole = [wholeMs](double ms) {
    return wholeMs > 0.0
               ? util::TextTable::formatDouble(100.0 * ms / wholeMs, 1) + "%"
               : std::string("-");
  };
  std::printf("\nper-phase host time (share of page visits + FORCUM steps):\n");
  std::printf("  %-16s %10s %12s %10s %10s %7s\n", "phase", "count",
              "total ms", "mean ms", "p90 ms", "share");
  for (std::size_t i = 0; i < obs::kTimerCount; ++i) {
    const auto timer = static_cast<obs::Timer>(i);
    const obs::HistogramSnapshot& histogram = metrics.timer(timer);
    if (histogram.count == 0) continue;
    const bool leaf =
        std::find(std::begin(leafPhases), std::end(leafPhases), timer) !=
        std::end(leafPhases);
    const std::string share = leaf ? shareOfWhole(histogram.totalMs()) : "-";
    std::printf("  %-16s %10llu %12.2f %10.4f %10.4f %7s\n",
                obs::timerName(timer),
                static_cast<unsigned long long>(histogram.count),
                histogram.totalMs(), histogram.meanMs(),
                histogram.percentileMs(90.0), share.c_str());
  }
  // No count, mean or p90: the remainder is not a span.
  std::printf("  %-16s %10s %12.2f %10s %10s %7s\n", "unattributed", "",
              wholeMs - leafTotalMs, "", "",
              shareOfWhole(wholeMs - leafTotalMs).c_str());
  const std::string auditJsonl = report.auditJsonl();
  std::printf("\naudit records        : %llu\n",
              static_cast<unsigned long long>(
                  std::count(auditJsonl.begin(), auditJsonl.end(), '\n')));
  if (!writeObsOutputs(options, metrics, auditJsonl)) return 2;
  return 0;
}

// Offline integrity scan of a --state-dir. Read-only: reports, per shard,
// what a recovery would find — never repairs. Torn tails and orphan temp
// files are benign crash residue; only actual data loss (checksum failures,
// invalid snapshots) fails the scan.
int runFsck(const Options& options) {
  if (options.stateDir.empty()) {
    std::fprintf(stderr, "fsck requires --state-dir DIR\n");
    return 2;
  }
  const store::FsckReport report = store::StateStore::fsck(options.stateDir);
  if (report.shards.empty()) {
    std::printf("no shards in %s\n", options.stateDir.c_str());
    return 0;
  }
  std::printf("%-24s %8s %8s %6s %5s %5s %7s  %s\n", "shard", "snap-rec",
              "wal-rec", "seq", "seal", "torn", "corrupt", "status");
  for (const store::ShardFsck& shard : report.shards) {
    std::string status = shard.ok ? "ok" : "DATA LOSS";
    if (shard.ok && shard.tornTail) status = "ok (torn tail)";
    if (shard.ok && shard.orphanTmp) status += " (orphan tmp)";
    std::printf("%-24s %8zu %8zu %6llu %5s %5s %7s  %s\n",
                shard.shard.c_str(), shard.snapshotRecords, shard.walRecords,
                static_cast<unsigned long long>(shard.lastSeq),
                shard.complete ? "yes" : "no", shard.tornTail ? "yes" : "no",
                shard.corrupt ? "yes" : "no", status.c_str());
  }
  std::printf("%zu shard(s): %s\n", report.shards.size(),
              report.ok ? "all ok" : "DATA LOSS detected");
  return report.ok ? 0 : 1;
}

// The loop the serve frontend runs on, reachable from the signal handler.
serve::EventLoop* g_serveLoop = nullptr;

void stopServeLoop(int) {
  if (g_serveLoop != nullptr) g_serveLoop->stop();  // atomic flag + eventfd
}

// `cookiepicker serve`: the verdict service tier over real sockets. The
// synthetic origins listen on loopback behind an epoll OriginTier; hidden
// fetches travel as batched pipelined HTTP/1.1 through the AsyncHttpClient;
// the verdict service itself answers on --port. --once HOST runs a single
// verdict to stdout instead of serving (HOST "-" means the first roster
// site) — the shape tools/check.sh and quick smoke tests drive.
int runServe(const Options& options) {
  std::shared_ptr<const faults::FaultPlan> faultPlan;
  if (!loadFaultPlan(options, faultPlan)) return 2;
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  metrics.setEnabled(true);

  util::SimClock siteClock;
  const auto roster = server::measurementRoster(options.sites, options.seed);

  // Crowd knowledge: load whatever earlier serves (or fleet gossip runs)
  // persisted, and keep appending as verdicts publish back.
  knowledge::KnowledgeBase knowledgeBase;
  std::unique_ptr<knowledge::KnowledgeStore> knowledgeStore;
  if (!options.knowledgeDir.empty()) {
    knowledgeStore =
        std::make_unique<knowledge::KnowledgeStore>(options.knowledgeDir);
    knowledgeStore->attach(knowledgeBase);
    std::printf("knowledge: %zu site(s) loaded from %s\n",
                knowledgeStore->sitesLoaded(),
                knowledgeStore->directory().c_str());
  }

  serve::OriginTierConfig tierConfig;
  tierConfig.seed = options.seed;
  tierConfig.threads = options.originThreads;
  tierConfig.faultPlan = faultPlan;
  serve::OriginTier tier(tierConfig);
  for (const auto& spec : roster) {
    tier.addHost(spec.domain, server::buildSite(spec, siteClock));
  }
  tier.start();

  int exitCode = 0;
  {
    serve::LoopThread clientLoop;
    serve::AsyncClientConfig clientConfig;
    clientConfig.resolve = tier.resolver();
    clientConfig.maxPipelineDepth = 4;
    clientConfig.seed = options.seed;
    serve::AsyncHttpClient client(clientLoop.loop(), clientConfig);
    serve::SocketTransport transport(client);

    serve::VerdictServiceConfig serviceConfig;
    serviceConfig.defaultViews = options.views;
    serviceConfig.seed = options.seed;
    if (options.attribution) {
      serviceConfig.picker.forcum.attribution =
          core::AttributionMode::Provenance;
    }
    if (knowledgeStore) serviceConfig.knowledge = &knowledgeBase;
    serve::VerdictService service(transport, serviceConfig);
    for (const auto& spec : roster) {
      service.addHost(spec.domain, spec.pageCount);
    }

    if (!options.onceHost.empty()) {
      const std::string host =
          options.onceHost == "-" ? roster.front().domain : options.onceHost;
      const std::string verdict = service.runVerdict(host, options.views);
      if (verdict.empty()) {
        std::fprintf(stderr, "unknown host: %s\n", host.c_str());
        exitCode = 2;
      } else {
        std::printf("%s\n", verdict.c_str());
        const serve::AsyncClientStats stats = client.stats();
        std::fprintf(stderr,
                     "serve: %llu dispatches, %.0f%% connection reuse, "
                     "%llu retries\n",
                     static_cast<unsigned long long>(stats.dispatches),
                     stats.reuseRatio() * 100.0,
                     static_cast<unsigned long long>(stats.retriesScheduled));
      }
    } else {
      serve::EventLoop frontLoop;
      serve::HttpServer frontend(
          frontLoop, [&service](const std::string&) { return &service; },
          options.seed);
      const std::uint16_t port = frontend.listen(
          static_cast<std::uint16_t>(std::max(0, options.port)));
      std::printf("cookiepicker serve: %zu sites on %d origin thread(s), "
                  "verdicts at http://127.0.0.1:%u\n",
                  roster.size(), tier.threads(),
                  static_cast<unsigned>(port));
      std::printf("  GET /verdict?host=%s[&views=N]\n",
                  roster.front().domain.c_str());
      std::printf("  GET /healthz | GET /stats    (Ctrl-C stops)\n");
      std::fflush(stdout);
      g_serveLoop = &frontLoop;
      std::signal(SIGINT, stopServeLoop);
      std::signal(SIGTERM, stopServeLoop);
      frontLoop.run();
      std::signal(SIGINT, SIG_DFL);
      std::signal(SIGTERM, SIG_DFL);
      g_serveLoop = nullptr;
      std::printf("serve: %llu sessions run\n",
                  static_cast<unsigned long long>(service.sessionsRun()));
    }
  }
  tier.stop();

  if (!options.metricsOut.empty()) {
    if (!writeFileOrComplain(options.metricsOut,
                             metrics.snapshot().toJson() + "\n")) {
      exitCode = exitCode == 0 ? 1 : exitCode;
    }
  }
  return exitCode;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: cookiepicker"
      " <demo|audit|census|stats|record|replay|fsck|serve> [flags]\n"
      "  demo                              one-site walkthrough\n"
      "  audit  [--sites N] [--views V] [--seed S] [--workers W]\n"
      "         [--metrics-out FILE] [--audit-out FILE] [--fault-plan FILE]\n"
      "         [--state-dir DIR] [--attribution]\n"
      "         (--workers fans per-host sessions out over W threads;\n"
      "          results are identical for any W; the out files dump the\n"
      "          flight recorder: metrics JSON and per-verdict JSONL;\n"
      "          --fault-plan injects a deterministic fault schedule —\n"
      "          see DESIGN.md section 9 for the plan format;\n"
      "          --state-dir persists training durably: an interrupted\n"
      "          run resumes from it — see DESIGN.md section 10;\n"
      "          --attribution turns on taint-assisted per-cookie\n"
      "          attribution: provenance maps nominate the responsible\n"
      "          cookie and one targeted strip confirms it — see\n"
      "          DESIGN.md section 15)\n"
      "  census [--sites N] [--seed S]\n"
      "  stats  [--sites N] [--views V] [--seed S] [--workers W]\n"
      "         [--metrics-out FILE] [--audit-out FILE] [--attribution]\n"
      "         (instrumented run: counter table + per-phase latency)\n"
      "  record --out FILE [--views V] [--seed S]\n"
      "  replay --in FILE  [--views V] [--seed S] [--strict]\n"
      "         (prints a drift summary; --strict exits 1 on any miss)\n"
      "  fsck   --state-dir DIR\n"
      "         (read-only shard integrity scan; exit 1 on data loss)\n"
      "  serve  [--port P] [--sites N] [--views V] [--seed S]\n"
      "         [--origin-threads T] [--fault-plan FILE]\n"
      "         [--metrics-out FILE] [--once HOST] [--knowledge-dir DIR]\n"
      "         [--attribution]\n"
      "         (verdict service over real sockets: synthetic origins on\n"
      "          an epoll tier, hidden fetches batched + pipelined with\n"
      "          keep-alive; GET /verdict?host=H[&views=N] on port P;\n"
      "          --once runs one verdict to stdout and exits, HOST '-'\n"
      "          means the first roster site — see DESIGN.md section 12;\n"
      "          --knowledge-dir persists crowd-shared site knowledge:\n"
      "          warm hosts answer without re-training — see DESIGN.md\n"
      "          section 13)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const Options options = parseOptions(argc, argv, 2);
  if (command == "demo") return runDemo();
  if (command == "census") return runCensus(options);
  if (command == "audit") return runAudit(options);
  if (command == "stats") return runStats(options);
  if (command == "record") return runRecord(options);
  if (command == "replay") return runReplay(options);
  if (command == "fsck") return runFsck(options);
  if (command == "serve") return runServe(options);
  return usage();
}
