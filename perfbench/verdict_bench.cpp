// The verdict benchmark.
//
//   verdict_bench --workload cold_sim|warm_sim|audited_fleet
//                 --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Unit of work: one verdict, a host session from its first page view
// through marks and enforcement, driven only through the program's public
// entry points (VerdictService::runVerdict, fleet::TrainingFleet::run) and
// checked against the roster's ground truth. See README.md for the
// workloads and metrics.
//
// --trace 0 prints the end-to-end metrics, timed on CPU clocks over the
// slices of the run measured while the host was calm and scaled to a
// reference host speed by the benchmark's own host probe. --trace 1
// alternates untraced and traced slices of the run, prints a per-layer
// table, and reports the per-layer metrics plus the tracing overhead. The
// last stdout line is always the JSON result.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness.h"
#include "knowledge/knowledge_base.h"
#include "obs/metrics.h"
#include "serve/verdict_service.h"
#include "store/store.h"

namespace perfbench {
namespace {

namespace knowledge = cookiepicker::knowledge;
namespace obs = cookiepicker::obs;
namespace serve = cookiepicker::serve;
namespace store = cookiepicker::store;

constexpr int kViews = 12;
// p99 needs at least 10 samples beyond it.
constexpr std::size_t kMinSamples = 1000;
// Never measure longer than this, whatever the sample count.
constexpr double kMaxMeasureSeconds = 120.0;
// A slice counts as calm when its host probe is within kCalmSlack of the
// run's calm probe level: the kCalmQuantile quantile of its slices'
// probes, so a single lucky probe does not set it. The host's slow mode
// doubles the probe.
constexpr double kCalmQuantile = 0.05;
constexpr double kCalmSlack = 1.3;
// CPU times are reported at a reference host speed: scaled by this over
// the median probe of the calm slices. The probe is the benchmark's own
// fixed code, so the scale cancels the host's speed and nothing the
// program does.
constexpr double kReferenceProbeUs = 1000.0;
// Set-up is timed once every kSetupEvery slices, repeated within that
// until it has taken kSetupBatchSeconds of CPU, so the set-ups spread over
// the run as the slices do. setup_s is the median of the calm ones (at
// least kMinSetups).
constexpr std::size_t kSetupEvery = 8;
constexpr double kSetupBatchSeconds = 0.005;
constexpr double kMinSetups = 3;
// The fleet's inline path: every session runs on the benchmark's thread,
// whose CPU clock SessionCpu reads and whose CPU the host probe measures.
constexpr int kFleetWorkers = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workDir = ".bench_build/perfbench/work";
};

double secondsSince(std::uint64_t startNs) {
  return static_cast<double>(monotonicNs() - startNs) / 1e9;
}

// --- outcome bookkeeping ----------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// Recorder (flight-recorder registry) activity between two snapshots.
struct RecorderDelta {
  std::array<std::uint64_t, obs::kTimerCount> timerNs{};
  std::array<std::uint64_t, obs::kCounterCount> counters{};

  static RecorderDelta between(const obs::MetricsSnapshot& before,
                               const obs::MetricsSnapshot& after) {
    RecorderDelta delta;
    for (std::size_t i = 0; i < obs::kTimerCount; ++i) {
      delta.timerNs[i] = after.timers[i].sumNs - before.timers[i].sumNs;
    }
    for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
      delta.counters[i] = after.counters[i] - before.counters[i];
    }
    return delta;
  }
  RecorderDelta& operator+=(const RecorderDelta& other) {
    for (std::size_t i = 0; i < obs::kTimerCount; ++i) {
      timerNs[i] += other.timerNs[i];
    }
    for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
      counters[i] += other.counters[i];
    }
    return *this;
  }
  double us(obs::Timer timer) const {
    return static_cast<double>(timerNs[static_cast<std::size_t>(timer)]) /
           1e3;
  }
  double count(obs::Counter counter) const {
    return static_cast<double>(counters[static_cast<std::size_t>(counter)]);
  }
};

obs::MetricsSnapshot recorderNow() {
  return obs::MetricsRegistry::global().snapshot();
}

// Tracing = the wrappers' clocks plus the program's own flight recorder in
// its global registry.
void setTracing(Tally& tally, bool on) {
  tally.setTracing(on);
  obs::MetricsRegistry::global().setEnabled(on);
}

// Inputs of the traced report; every total covers `verdicts` verdicts.
struct Breakdown {
  double verdicts = 0.0;
  double wallUs = 0.0;  // mean verdict wall time, the whole to split
  TallySnapshot tally;
  RecorderDelta recorder;
  double auditUs = 0.0;
  double storeUs = 0.0;
  double auditKb = 0.0;
  double storeAppends = 0.0;
  double storeAppendKb = 0.0;
  double workerUtilization = 0.0;
  // Verdicts per CPU second of the alternating untraced and traced slices.
  double untracedRate = 0.0;
  double tracedRate = 0.0;
};

// A measured slice of a run (a sim pass or a fleet pass) or one timed
// set-up, with the host probe around it.
struct Slice {
  double probeUs = 0.0;  // the worse of the probes before and after
  double cpuS = 0.0;     // verdict CPU time, or CPU time per set-up
  double wallS = 0.0;
  std::vector<double> verdictCpuMs;  // each verdict's CPU time
};

// Probes the host between measured slices; each slice is judged by the
// worse of the probes on either side of it.
class ProbedRun {
 public:
  template <typename Item>
  double around(Item&& item) {
    const double before = last_;
    item();
    last_ = hostProbeUs();
    return std::max(before, last_);
  }
  // The latest probe.
  double last() const { return last_; }

 private:
  double last_ = hostProbeUs();
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  // The untraced run's timed set-ups and measured slices.
  std::vector<Slice> setups;
  std::vector<Slice> slices;
  double countedVerdicts = 0.0;  // verdicts the count metrics cover
  TallySnapshot counts;
  int falseUseful = 0;
  int trackers = 0;
  Breakdown breakdown;  // --trace 1 only

  // `accuracy`: the verdict counts toward false_useful_ratio.
  void check(const VerdictCheck& verdict, bool accuracy) {
    ++attempted;
    if (!verdict.ok) fail(verdict.problem);
    if (accuracy) {
      falseUseful += verdict.falseUseful;
      trackers += verdict.trackers;
    }
  }
  void fail(const std::string& problem) {
    ++failed;
    if (problems.size() < 8) problems.push_back(problem);
  }
};

double perVerdict(double total, double verdicts) {
  return verdicts > 0.0 ? total / verdicts : 0.0;
}

double ratio(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

// Per-layer metrics, in BENCHMARK.json order. Layer times are wall-clock
// self times in microseconds per verdict: each nested span is subtracted
// from the span around it, so the times add up to the verdict wall time
// minus the unattributed share.
std::vector<Metric> perLayer(const Breakdown& b) {
  using obs::Counter;
  using obs::Timer;
  const double v = b.verdicts;
  const RecorderDelta& r = b.recorder;
  const double renderUs = static_cast<double>(b.tally[Field::RenderNs]) / 1e3;
  const double transportUs =
      static_cast<double>(b.tally[Field::DispatchNs]) / 1e3;
  const double kernelsUs = r.us(Timer::RstmDp) + r.us(Timer::CvceExtract) +
                           r.us(Timer::CvceMerge);

  std::vector<Metric> m;
  m.push_back({"server.render_us", "us", perVerdict(renderUs, v)});
  m.push_back({"server.response_kb", "KiB",
               perVerdict(static_cast<double>(b.tally[Field::ResponseBytes]) /
                              1024.0,
                          v)});
  m.push_back({"net.dispatch_self_us", "us",
               perVerdict(transportUs - renderUs, v)});
  m.push_back({"net.dispatches_per_verdict", "count",
               perVerdict(static_cast<double>(b.tally[Field::Dispatches]), v)});
  m.push_back(
      {"net.hidden_requests_per_verdict", "count",
       perVerdict(static_cast<double>(b.tally[Field::HiddenDispatches]), v)});
  m.push_back({"browser.page_visit_self_us", "us",
               perVerdict(r.us(Timer::PageVisit) + r.us(Timer::HiddenFetch) -
                              transportUs - r.us(Timer::StreamBuild),
                          v)});
  m.push_back({"html.stream_build_us", "us",
               perVerdict(r.us(Timer::StreamBuild), v)});
  m.push_back({"core.decision_us", "us",
               perVerdict(r.us(Timer::Decision) - kernelsUs, v)});
  m.push_back({"core.rstm_us", "us", perVerdict(r.us(Timer::RstmDp), v)});
  m.push_back({"core.cvce_us", "us",
               perVerdict(r.us(Timer::CvceExtract) + r.us(Timer::CvceMerge),
                          v)});
  m.push_back({"core.forcum_step_self_us", "us",
               perVerdict(r.us(Timer::ForcumStep) - r.us(Timer::HiddenFetch) -
                              r.us(Timer::Decision),
                          v)});
  m.push_back({"core.decisions_per_verdict", "count",
               perVerdict(r.count(Counter::Decisions), v)});
  m.push_back({"core.cookie_caused_ratio", "ratio",
               ratio(r.count(Counter::VerdictCookieCaused),
                     r.count(Counter::Decisions))});
  m.push_back({"knowledge.hit_ratio", "ratio",
               ratio(r.count(Counter::KnowledgeHits),
                     r.count(Counter::KnowledgeHits) +
                         r.count(Counter::KnowledgeMisses))});
  m.push_back({"knowledge.merges_per_verdict", "count",
               perVerdict(r.count(Counter::KnowledgeMerges), v)});
  m.push_back({"obs.audit_us", "us", b.auditUs});
  m.push_back({"store.append_us", "us", b.storeUs});
  m.push_back({"obs.audit_kb_per_verdict", "KiB", b.auditKb});
  m.push_back({"store.appends_per_verdict", "count", b.storeAppends});
  m.push_back({"store.append_kb_per_verdict", "KiB", b.storeAppendKb});
  m.push_back({"fleet.worker_utilization", "ratio", b.workerUtilization});

  double attributedUs = 0.0;
  for (const Metric& metric : m) {
    if (metric.unit == "us") attributedUs += metric.value;
  }
  m.push_back({"unattributed_share", "ratio",
               b.wallUs > 0.0 ? 1.0 - attributedUs / b.wallUs : 0.0});
  m.push_back({"tracing_overhead_share", "ratio",
               b.untracedRate > 0.0 ? 1.0 - b.tracedRate / b.untracedRate
                                    : 0.0});
  return m;
}

void printLayerTable(const std::string& workload, const Breakdown& b,
                     const std::vector<Metric>& metrics) {
  std::printf("\nper-layer breakdown: %s (%.0f traced verdicts, "
              "verdict wall %.1f us)\n",
              workload.c_str(), b.verdicts, b.wallUs);
  std::printf("  %-34s %14s %-6s %10s\n", "metric", "value", "unit",
              "self share");
  for (const Metric& metric : metrics) {
    if (metric.unit == "us" && b.wallUs > 0.0) {
      std::printf("  %-34s %14.3f %-6s %9.1f%%\n", metric.name.c_str(),
                  metric.value, metric.unit.c_str(),
                  100.0 * metric.value / b.wallUs);
    } else {
      std::printf("  %-34s %14.4f %-6s %10s\n", metric.name.c_str(),
                  metric.value, metric.unit.c_str(), "-");
    }
  }
  std::printf("  tracing overhead: %.1f verdicts per CPU second untraced vs "
              "%.1f traced\n",
              b.untracedRate, b.tracedRate);
}

double peakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// One timed set-up: `setup` repeated until it has taken kSetupBatchSeconds
// of CPU, each stack thrown away untimed; records the CPU time per set-up.
// It is judged by the probe before it alone: a short set-up leaves the
// probe's table in cache, so a probe right after it reads low.
template <typename Stack>
void timeSetup(Outcome& outcome, const ProbedRun& run,
               const std::function<std::unique_ptr<Stack>()>& setup) {
  Slice timed;
  timed.probeUs = run.last();
  int reps = 0;
  double spent = 0.0;
  while (spent < kSetupBatchSeconds) {
    const std::uint64_t start = processCpuNs();
    std::unique_ptr<Stack> stack = setup();
    spent += static_cast<double>(processCpuNs() - start) / 1e9;
    ++reps;
  }
  timed.cpuS = spent / reps;
  outcome.setups.push_back(std::move(timed));
}

// The run's slices and set-ups measured while the host was calm: within
// kCalmSlack of the calm probe level of the run's slices, topped up with
// the next calmest to kMinSamples verdicts and kMinSetups set-ups. `scale`
// turns their CPU times into times at the reference host speed.
struct CalmSet {
  double calmUs = 0.0;
  double probeUs = 0.0;  // median probe of the calm slices
  double scale = 1.0;
  std::vector<std::size_t> slices;
  std::vector<std::size_t> setups;
};

CalmSet calmSet(const Outcome& outcome) {
  CalmSet calm;
  if (outcome.slices.empty()) return calm;
  std::vector<double> probes;
  std::vector<double> weights;
  for (const Slice& slice : outcome.slices) {
    probes.push_back(slice.probeUs);
    weights.push_back(static_cast<double>(slice.verdictCpuMs.size()));
  }
  std::vector<double> ordered = probes;
  const auto level = ordered.begin() + static_cast<std::ptrdiff_t>(
                                           kCalmQuantile * (probes.size() - 1));
  std::nth_element(ordered.begin(), level, ordered.end());
  calm.calmUs = kCalmSlack * *level;
  calm.slices = calmItems(probes, weights, calm.calmUs,
                          static_cast<double>(kMinSamples));
  std::vector<double> calmProbes;
  for (const std::size_t i : calm.slices) calmProbes.push_back(probes[i]);
  calm.probeUs = median(calmProbes);
  calm.scale = kReferenceProbeUs / calm.probeUs;
  probes.clear();
  for (const Slice& setup : outcome.setups) probes.push_back(setup.probeUs);
  calm.setups = calmItems(probes, std::vector<double>(probes.size(), 1.0),
                          calm.calmUs, kMinSetups);
  return calm;
}

// True while the untraced measurement should go on: for --seconds, then
// until it holds kMinSamples verdicts.
bool keepMeasuring(std::uint64_t startNs, double seconds,
                   const Outcome& outcome) {
  const double elapsed = secondsSince(startNs);
  if (elapsed >= kMaxMeasureSeconds) return false;
  if (elapsed < seconds) return true;
  std::size_t verdicts = 0;
  for (const Slice& slice : outcome.slices) {
    verdicts += slice.verdictCpuMs.size();
  }
  return verdicts < kMinSamples;
}

void emit(const Options& options, const Outcome& outcome) {
  for (const std::string& problem : outcome.problems) {
    std::fprintf(stderr, "verdict check failed: %s\n", problem.c_str());
  }
  std::vector<Metric> metrics;
  if (options.trace) {
    metrics = perLayer(outcome.breakdown);
    printLayerTable(options.workload, outcome.breakdown, metrics);
  } else {
    const CalmSet calm = calmSet(outcome);
    std::vector<double> verdictCpuMs;
    std::vector<double> rates;
    double wallS = 0.0;
    double cpuS = 0.0;
    for (const std::size_t i : calm.slices) {
      const Slice& slice = outcome.slices[i];
      for (const double ms : slice.verdictCpuMs) {
        verdictCpuMs.push_back(ms * calm.scale);
      }
      const auto verdicts = static_cast<double>(slice.verdictCpuMs.size());
      rates.push_back(verdicts / (slice.cpuS * calm.scale));
      wallS += slice.wallS;
      cpuS += slice.cpuS;
    }
    std::vector<double> setupS;
    for (const std::size_t i : calm.setups) {
      setupS.push_back(outcome.setups[i].cpuS * calm.scale);
    }
    const auto p50 = nearestRank(verdictCpuMs, 50.0);
    const auto p99 = nearestRank(verdictCpuMs, 99.0);
    const double v = outcome.countedVerdicts;
    const auto timed = static_cast<double>(verdictCpuMs.size());
    std::printf("%s: %zu of %zu slices and %zu of %zu set-ups calm (host "
                "probe at most %.0f us, median %.0f us, so CPU times are "
                "scaled by %.3f); %.0f verdicts timed, %.1f per wall second "
                "and %.1f per CPU second unscaled; hidden requests per "
                "verdict %.4f (counted at the transport)\n",
                options.workload.c_str(), calm.slices.size(),
                outcome.slices.size(), calm.setups.size(),
                outcome.setups.size(), calm.calmUs, calm.probeUs, calm.scale,
                timed, perVerdict(timed, wallS), perVerdict(timed, cpuS),
                perVerdict(static_cast<double>(
                               outcome.counts[Field::HiddenDispatches]),
                           v));
    if (!p50.has_value() || !p99.has_value()) {
      std::fprintf(stderr, "too few verdicts (%zu) for p99\n",
                   verdictCpuMs.size());
      std::exit(1);
    }
    metrics = {
        {"verdicts_per_cpu_s", "1/cpu_s", median(rates)},
        {"verdict_cpu_p50_ms", "ms", *p50},
        {"verdict_cpu_p99_ms", "ms", *p99},
        {"wire_kb_per_verdict", "KiB",
         perVerdict(static_cast<double>(outcome.counts[Field::WireBytes]) /
                        1024.0,
                    v)},
        {"false_useful_ratio", "ratio",
         ratio(outcome.falseUseful, outcome.trackers)},
        {"setup_s", "s", median(setupS)},
        {"peak_rss_mb", "MiB", peakRssMb()},
    };
  }
  std::string json = "{\"correct\": ";
  json += outcome.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", metrics[i].value);
    json += (i > 0 ? ", \"" : "\"") + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// --- cold_sim / warm_sim ----------------------------------------------------

struct SimStack {
  std::vector<server::SiteSpec> roster;
  std::unique_ptr<knowledge::KnowledgeBase> knowledge;
  std::unique_ptr<CountingTransport> transport;
  std::unique_ptr<serve::VerdictService> service;
  std::unique_ptr<SimWorld> world;
  bool worldFresh = false;  // no verdict has run against `world` yet
  // Roster indices one pass visits, in order.
  std::vector<std::size_t> order;
};

// Warm-up passes skip the pass-level checks; measured passes also count
// toward accuracy.
enum class SimPass { Warmup, Measured, Unsampled };

Outcome runSimWorkload(const Options& options, bool warm) {
  obs::MetricsRegistry::global().setEnabled(false);
  Outcome outcome;
  Tally tally;
  // Cold verdicts repeat byte for byte pass after pass (fresh origins each
  // pass). Warm ones do not: their hiddenRequests field echoes the crowd's
  // growing counters, so they are checked against ground truth only.
  std::vector<std::string> reference;

  // One pass over stack.order, each verdict checked. The driver thread runs
  // the whole verdict (the sim network answers inline), so its CPU clock
  // times the verdict.
  const auto runPass = [&](SimStack& stack, SimPass kind) {
    if (!stack.worldFresh) {
      stack.world =
          std::make_unique<SimWorld>(stack.roster, options.seed, tally);
      stack.transport->setInner(&stack.world->network);
    }
    stack.worldFresh = false;
    Slice pass;
    for (std::size_t i = 0; i < stack.order.size(); ++i) {
      const server::SiteSpec& spec = stack.roster[stack.order[i]];
      const std::uint64_t wallStart = monotonicNs();
      const std::uint64_t cpuStart = threadCpuNs();
      const std::string verdict =
          stack.service->runVerdict(spec.domain, kViews);
      const double cpuS = static_cast<double>(threadCpuNs() - cpuStart) / 1e9;
      pass.wallS += secondsSince(wallStart);
      pass.cpuS += cpuS;
      pass.verdictCpuMs.push_back(cpuS * 1e3);
      outcome.check(checkVerdictJson(verdict, spec),
                    kind == SimPass::Measured);
      if (kind == SimPass::Warmup) continue;
      if (warm) {
        if (verdict.find("\"knowledge\":\"warm\"") == std::string::npos) {
          outcome.fail(spec.domain + ": verdict not answered warm");
        }
      } else if (reference.size() < stack.order.size()) {
        reference.push_back(verdict);
      } else if (reference[i] != verdict) {
        outcome.fail(spec.domain + ": verdict differs from the first pass");
      }
    }
    return pass;
  };

  const std::function<std::unique_ptr<SimStack>()> setup = [&]() {
    auto built = std::make_unique<SimStack>();
    built->roster = benchRoster(options.seed);
    const std::vector<server::SiteSpec>& roster = built->roster;
    built->order = hostOrder(roster.size(), options.seed);
    built->transport = std::make_unique<CountingTransport>(tally);
    built->world = std::make_unique<SimWorld>(roster, options.seed, tally);
    built->transport->setInner(&built->world->network);
    built->worldFresh = true;
    serve::VerdictServiceConfig config;
    config.defaultViews = kViews;
    config.seed = options.seed;
    if (warm) {
      built->knowledge = std::make_unique<knowledge::KnowledgeBase>();
      config.knowledge = built->knowledge.get();
    }
    built->service =
        std::make_unique<serve::VerdictService>(*built->transport, config);
    for (const server::SiteSpec& spec : roster) {
      built->service->addHost(spec.domain, spec.pageCount);
    }
    if (warm) {
      // Pre-training: one cold pass publishes every host to the crowd.
      runPass(*built, SimPass::Warmup);
      // The sites with heavy layout noise (S1, S10, S27) mostly do not
      // settle within 12 views, so the crowd holds no stable entry for
      // them and they would train again; the measured passes visit the
      // other 33 hosts, each of which must answer warm.
      std::erase_if(built->order, [&](std::size_t i) {
        return roster[i].layoutNoiseProbability > 0.0;
      });
    }
    return built;
  };
  std::unique_ptr<SimStack> stack = setup();
  // cold_sim has no pre-training; one untimed cold pass fills the caches
  // and lazy state the measured passes then find ready.
  if (!warm) runPass(*stack, SimPass::Warmup);

  const double passVerdicts = static_cast<double>(stack->order.size());
  const std::uint64_t start = monotonicNs();
  if (!options.trace) {
    // Whole passes until the time (and p99 sample count) is reached, so
    // every count metric covers whole, identical passes.
    ProbedRun run;
    do {
      if (outcome.slices.size() % kSetupEvery == 0) {
        timeSetup(outcome, run, setup);
      }
      const TallySnapshot before = tally.snapshot();
      Slice pass;
      const double probeUs =
          run.around([&]() { pass = runPass(*stack, SimPass::Measured); });
      pass.probeUs = probeUs;
      outcome.slices.push_back(std::move(pass));
      outcome.counts += tally.snapshot().since(before);
      outcome.countedVerdicts += passVerdicts;
    } while (keepMeasuring(start, options.seconds, outcome));
    return outcome;
  }

  // Traced run: untraced and traced passes alternate, so the overhead
  // compares like with like.
  Breakdown& b = outcome.breakdown;
  double untracedCpuS = 0.0;
  double tracedCpuS = 0.0;
  double tracedWallS = 0.0;
  double untracedVerdicts = 0.0;
  do {
    untracedCpuS += runPass(*stack, SimPass::Unsampled).cpuS;
    untracedVerdicts += passVerdicts;
    setTracing(tally, true);
    const TallySnapshot before = tally.snapshot();
    const obs::MetricsSnapshot recorderBefore = recorderNow();
    const Slice timed = runPass(*stack, SimPass::Unsampled);
    b.recorder += RecorderDelta::between(recorderBefore, recorderNow());
    b.tally += tally.snapshot().since(before);
    setTracing(tally, false);
    tracedWallS += timed.wallS;
    tracedCpuS += timed.cpuS;
    b.verdicts += passVerdicts;
  } while (secondsSince(start) < options.seconds);
  b.wallUs = tracedWallS * 1e6 / b.verdicts;
  b.untracedRate = untracedVerdicts / untracedCpuS;
  b.tracedRate = b.verdicts / tracedCpuS;
  return outcome;
}

// --- audited_fleet ----------------------------------------------------------

// One fleet configuration of the A/B: the workload itself runs with both
// the audit trail and the state store on.
struct FleetVariant {
  bool audit = true;
  bool store = true;
};

struct FleetPass {
  // cpuS is the process's CPU time over the fleet run (every worker);
  // verdictCpuMs the CPU time of each host session.
  Slice slice;
  double sessionMs = 0.0;  // summed per-host session wall time
  std::size_t verdicts = 0;
  std::size_t auditBytes = 0;
  double utilization = 0.0;
};

struct FleetStack {
  std::vector<server::SiteSpec> roster;
  std::unique_ptr<CountingTransport> transport;
  std::unique_ptr<SimWorld> world;  // fresh origins for the next pass
};

Outcome runFleetWorkload(const Options& options) {
  obs::MetricsRegistry::global().setEnabled(false);
  Outcome outcome;
  Tally tally;
  SessionCpu sessionCpu;
  std::map<int, std::string> reference;  // variant code → first pass state
  std::uint64_t passNumber = 0;
  const std::filesystem::path workDir(options.workDir);

  // One fleet run over the roster on fresh origins and, with the store on,
  // a fresh state directory; every session checked against ground truth
  // and its state bytes against the variant's first pass.
  const auto runPass = [&](FleetStack& stack, FleetVariant variant,
                           bool measured) {
    const std::vector<server::SiteSpec>& roster = stack.roster;
    std::unique_ptr<SimWorld> world = std::move(stack.world);
    if (world == nullptr) {
      world = std::make_unique<SimWorld>(roster, options.seed, tally);
    }
    stack.transport->setInner(&world->network);
    const std::filesystem::path storeDir =
        workDir / ("store-" + std::to_string(passNumber++));
    std::optional<store::StateStore> stateStore;
    fleet::FleetConfig config;
    config.workers = kFleetWorkers;
    config.viewsPerHost = kViews;
    config.seed = options.seed;
    config.picker.autoEnforce = true;
    config.collectObservability = variant.audit;
    if (variant.store) {
      store::StoreConfig storeConfig;
      storeConfig.directory = storeDir.string();
      stateStore.emplace(std::move(storeConfig));
      config.stateStore = &*stateStore;
    }
    fleet::TrainingFleet trainingFleet(*stack.transport, config);
    const std::uint64_t wallStart = monotonicNs();
    const std::uint64_t cpuStart = processCpuNs();
    const fleet::FleetReport report = trainingFleet.run(roster);
    FleetPass pass;
    pass.slice.cpuS = static_cast<double>(processCpuNs() - cpuStart) / 1e9;
    pass.slice.wallS = secondsSince(wallStart);
    pass.slice.verdictCpuMs = sessionCpu.finish();
    if (pass.slice.verdictCpuMs.size() != roster.size()) {
      outcome.fail("fleet pass timed " +
                   std::to_string(pass.slice.verdictCpuMs.size()) +
                   " sessions for " + std::to_string(roster.size()) +
                   " hosts");
    }
    for (std::size_t i = 0; i < roster.size(); ++i) {
      const fleet::HostResult& host = report.hosts[i];
      outcome.check(checkFleetHost(host, roster[i]), measured);
      pass.sessionMs += host.wallMs;
    }
    const int code = (variant.audit ? 2 : 0) + (variant.store ? 1 : 0);
    const std::string state = report.serializeState();
    if (!reference.contains(code)) {
      reference[code] = state;
    } else if (reference[code] != state) {
      outcome.fail("fleet state differs from the first pass");
    }
    pass.verdicts = roster.size();
    pass.auditBytes = report.auditJsonl().size();
    pass.utilization = report.workerUtilization;
    if (variant.store) {
      // Flush this pass's store traffic outside the timed region, so the
      // next pass's fsyncs wait only for their own writes.
      stateStore.reset();
      std::filesystem::remove_all(storeDir);
      ::sync();
    }
    return pass;
  };

  const FleetVariant full;
  std::filesystem::remove_all(workDir);
  const std::function<std::unique_ptr<FleetStack>()> setup = [&]() {
    auto built = std::make_unique<FleetStack>();
    built->roster = benchRoster(options.seed);
    built->transport = std::make_unique<CountingTransport>(tally);
    built->transport->setSessionCpu(&sessionCpu);
    built->world =
        std::make_unique<SimWorld>(built->roster, options.seed, tally);
    std::filesystem::create_directories(workDir);
    return built;
  };
  std::unique_ptr<FleetStack> stack = setup();
  // An untimed warm-up pass without disk fills the caches and lazy state.
  runPass(*stack, {true, false}, false);

  const std::uint64_t start = monotonicNs();
  if (!options.trace) {
    ProbedRun run;
    do {
      if (outcome.slices.size() % kSetupEvery == 0) {
        timeSetup(outcome, run, setup);
      }
      const TallySnapshot before = tally.snapshot();
      FleetPass pass;
      const double probeUs =
          run.around([&]() { pass = runPass(*stack, full, true); });
      pass.slice.probeUs = probeUs;
      outcome.slices.push_back(std::move(pass.slice));
      outcome.counts += tally.snapshot().since(before);
      outcome.countedVerdicts += static_cast<double>(pass.verdicts);
    } while (keepMeasuring(start, options.seconds, outcome));
    std::filesystem::remove_all(workDir);
    return outcome;
  }

  // Traced run, in rounds: the full config untraced, then traced passes of
  // the full config, audit off, store off, and both off. The both-off
  // passes carry the layer breakdown; audit and store costs are the full
  // config's session time minus the variant's.
  Breakdown& b = outcome.breakdown;
  const FleetVariant noAudit{false, true};
  const FleetVariant noStore{true, false};
  const FleetVariant bare{false, false};
  double untracedCpuS = 0.0;
  double untracedVerdicts = 0.0;
  double fullCpuS = 0.0;
  double fullSessionMs = 0.0;
  double noAuditSessionMs = 0.0;
  double noStoreSessionMs = 0.0;
  double fullVerdicts = 0.0;
  double auditBytes = 0.0;
  double utilization = 0.0;
  int rounds = 0;
  RecorderDelta fullRecorder;
  do {
    const FleetPass untraced = runPass(*stack, full, false);
    untracedCpuS += untraced.slice.cpuS;
    untracedVerdicts += static_cast<double>(untraced.verdicts);
    setTracing(tally, true);
    obs::MetricsSnapshot before = recorderNow();
    const FleetPass a = runPass(*stack, full, false);
    fullRecorder += RecorderDelta::between(before, recorderNow());
    fullCpuS += a.slice.cpuS;
    fullSessionMs += a.sessionMs;
    fullVerdicts += static_cast<double>(a.verdicts);
    auditBytes += static_cast<double>(a.auditBytes);
    utilization += a.utilization;
    noAuditSessionMs += runPass(*stack, noAudit, false).sessionMs;
    noStoreSessionMs += runPass(*stack, noStore, false).sessionMs;
    const TallySnapshot tallyBefore = tally.snapshot();
    before = recorderNow();
    b.verdicts += static_cast<double>(runPass(*stack, bare, false).verdicts);
    b.recorder += RecorderDelta::between(before, recorderNow());
    b.tally += tally.snapshot().since(tallyBefore);
    setTracing(tally, false);
    ++rounds;
  } while (secondsSince(start) < options.seconds);
  b.wallUs = fullSessionMs * 1e3 / fullVerdicts;
  b.untracedRate = untracedVerdicts / untracedCpuS;
  b.tracedRate = fullVerdicts / fullCpuS;
  b.auditUs = (fullSessionMs - noAuditSessionMs) * 1e3 / fullVerdicts;
  b.storeUs = (fullSessionMs - noStoreSessionMs) * 1e3 / fullVerdicts;
  b.auditKb = auditBytes / 1024.0 / fullVerdicts;
  b.storeAppends = fullRecorder.count(obs::Counter::StoreAppends) / fullVerdicts;
  b.storeAppendKb =
      fullRecorder.count(obs::Counter::StoreAppendBytes) / 1024.0 /
      fullVerdicts;
  b.workerUtilization = utilization / rounds;
  std::filesystem::remove_all(workDir);
  return outcome;
}

int usage() {
  std::fprintf(stderr,
               "usage: verdict_bench --workload "
               "cold_sim|warm_sim|audited_fleet\n"
               "       [--seed N] [--seconds S] [--trace 0|1] "
               "[--work-dir DIR]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.workDir = value;
    } else {
      return usage();
    }
  }
  if (!(options.seconds > 0.0)) return usage();
  Outcome outcome;
  if (options.workload == "cold_sim" || options.workload == "warm_sim") {
    outcome = runSimWorkload(options, options.workload == "warm_sim");
  } else if (options.workload == "audited_fleet") {
    outcome = runFleetWorkload(options);
  } else {
    return usage();
  }
  emit(options, outcome);
  return 0;
}
