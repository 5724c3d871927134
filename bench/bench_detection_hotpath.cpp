// Detection hot-path benchmark: reference dom::Node implementations vs the
// snapshot fast path, on regular/hidden page pairs fetched from the Table 1
// and Table 2 rosters. Measures detection steps per second and heap bytes
// allocated per step (via global operator new/delete accounting), checks
// in-loop that both paths return identical decisions, and writes the
// results as JSON (argv[1], default BENCH_hotpath.json) so the numbers are
// versioned alongside the code that produced them. The same pairs time the
// audit evidence of a cookie-caused step: snapshot evidence against the
// oracle that parses both copies and diffs node trees; and the pages the
// stream build reads time the scan-only page-info pass against that build.
//
// Build Release: the speedup gate in tools/bench.sh reads the JSON this
// emits and EXPERIMENTS.md quotes it.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "browser/browser.h"
#include "core/decision.h"
#include "core/explain.h"
#include "core/node_detection.h"
#include "dom/interner.h"
#include "dom/snapshot.h"
#include "html/parser.h"
#include "html/stream_snapshot.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "server/generator.h"
#include "store/store.h"
#include "util/clock.h"

// --- allocation accounting ----------------------------------------------------
// Every operator-new in the process funnels through these counters; the
// bench snapshots them around each timed loop. Deliberately minimal: no
// alignment overloads (nothing in the hot path over-aligns), malloc_usable
// size is not consulted (requested bytes are what the code asked for).

namespace {
std::atomic<std::uint64_t> g_allocBytes{0};
std::atomic<std::uint64_t> g_allocCalls{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocBytes.fetch_add(size, std::memory_order_relaxed);
  g_allocCalls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace cookiepicker;

struct PagePair {
  std::unique_ptr<dom::Node> regular;
  std::unique_ptr<dom::Node> hidden;
  std::shared_ptr<const dom::TreeSnapshot> regularSnapshot;
  std::shared_ptr<const dom::TreeSnapshot> hiddenSnapshot;
  // Raw bodies, for the end-to-end parse-pipeline comparison.
  std::string regularHtml;
  std::string hiddenHtml;
};

// Regular/hidden document pairs the way FORCUM produces them: crawl each
// roster site until cookies flow, then pair the saved view with a hidden
// fetch that strips every persistent cookie.
std::vector<PagePair> buildPairs(const std::vector<server::SiteSpec>& roster,
                                 std::uint64_t seed) {
  util::SimClock serverClock;
  net::Network network(seed);
  server::registerRoster(network, serverClock, roster);

  std::vector<PagePair> pairs;
  pairs.reserve(roster.size());
  for (const server::SiteSpec& spec : roster) {
    util::SimClock clock;
    browser::Browser browser(network, clock,
                             cookies::CookiePolicy::recommended(), seed);
    browser.visit("http://" + spec.domain + "/page0");
    browser.visit("http://" + spec.domain + "/page1");
    browser::PageView view = browser.visit("http://" + spec.domain + "/page0");
    browser::HiddenFetchResult hidden = browser.hiddenFetch(
        view, [](const cookies::CookieRecord&) { return true; });
    // The reference loops need node trees: parse the retained HTML (the
    // streaming pipeline is timed from the raw HTML).
    PagePair pair;
    pair.regular = html::parseHtml(view.containerHtml);
    pair.hidden = html::parseHtml(hidden.html);
    pair.regularSnapshot = std::move(view.snapshot);
    pair.hiddenSnapshot = std::move(hidden.snapshot);
    pair.regularHtml = std::move(view.containerHtml);
    pair.hiddenHtml = std::move(hidden.html);
    pairs.push_back(std::move(pair));
  }
  return pairs;
}

struct LoopResult {
  double stepsPerSec = 0.0;
  double bytesPerStep = 0.0;
  double allocsPerStep = 0.0;
};

double medianOf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 0) return 0.0;
  if (n % 2 == 1) return values[n / 2];
  return 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

template <typename Step>
LoopResult timedLoop(int reps, std::size_t pairCount, Step&& step) {
  // Best-of-3 sampling: the work is deterministic, so the fastest sample is
  // the least-perturbed measurement — single-pass timings on a shared
  // machine swing enough to flip the bench.sh ratio gates.
  constexpr int kSamples = 3;
  const int sampleReps = std::max(1, reps / kSamples);
  const std::uint64_t bytesBefore =
      g_allocBytes.load(std::memory_order_relaxed);
  const std::uint64_t callsBefore =
      g_allocCalls.load(std::memory_order_relaxed);
  double bestMsPerRep = 0.0;
  int repsRun = 0;
  for (int sample = 0; sample < kSamples; ++sample) {
    const util::StopWatch watch;
    for (int rep = 0; rep < sampleReps; ++rep) {
      for (std::size_t i = 0; i < pairCount; ++i) step(i);
    }
    const double msPerRep = watch.elapsedMs() / sampleReps;
    if (sample == 0 || msPerRep < bestMsPerRep) bestMsPerRep = msPerRep;
    repsRun += sampleReps;
  }
  const auto steps =
      static_cast<double>(repsRun) * static_cast<double>(pairCount);
  LoopResult result;
  result.stepsPerSec =
      static_cast<double>(pairCount) / (bestMsPerRep / 1000.0);
  result.bytesPerStep =
      static_cast<double>(g_allocBytes.load(std::memory_order_relaxed) -
                          bytesBefore) /
      steps;
  result.allocsPerStep =
      static_cast<double>(g_allocCalls.load(std::memory_order_relaxed) -
                          callsBefore) /
      steps;
  return result;
}

// One side of a paired timing: every round times a few repetitions of the
// side's work back to back with the other sides, so a noisy stretch
// perturbs one round's ratio, not the median of the per-round ratios the
// gates read. A side reports its best round's rate and its allocations
// averaged over every round.
struct TimedSide {
  double bestMs = 0.0;
  int repsRun = 0;
  std::uint64_t bytes = 0;
  std::uint64_t calls = 0;

  // Times `reps` repetitions of `run`; returns milliseconds per repetition.
  template <typename Run>
  double time(int reps, Run&& run) {
    const std::uint64_t bytesBefore =
        g_allocBytes.load(std::memory_order_relaxed);
    const std::uint64_t callsBefore =
        g_allocCalls.load(std::memory_order_relaxed);
    const util::StopWatch watch;
    for (int rep = 0; rep < reps; ++rep) run();
    const double ms = watch.elapsedMs() / reps;
    bytes += g_allocBytes.load(std::memory_order_relaxed) - bytesBefore;
    calls += g_allocCalls.load(std::memory_order_relaxed) - callsBefore;
    if (repsRun == 0 || ms < bestMs) bestMs = ms;
    repsRun += reps;
    return ms;
  }

  LoopResult result(double stepsPerRep) const {
    const double steps = repsRun * stepsPerRep;
    LoopResult loop;
    loop.stepsPerSec = stepsPerRep / (bestMs / 1000.0);
    loop.bytesPerStep = static_cast<double>(bytes) / steps;
    loop.allocsPerStep = static_cast<double>(calls) / steps;
    return loop;
  }
};

struct RosterReport {
  std::string name;
  std::size_t pairs = 0;
  LoopResult reference;
  LoopResult fast;
  // The fast loop re-run with the flight recorder's metrics registry
  // installed as the thread's session sink (spans + counters recording).
  LoopResult instrumented;
  // The instrumented loop re-run with a durable state store attached: every
  // step logs the two WAL records a FORCUM verdict produces (the verdict
  // plus the site's counter transition). Compaction is disabled — its fsync
  // is a cadence cost, not a per-append one.
  LoopResult store;
  double speedup = 0.0;
  // Bare-over-instrumented time, median of paired per-round samples —
  // tools/bench.sh gates this at >= 0.9 (instrumentation may cost at most
  // 10%).
  double instrumentedRatio = 0.0;
  // Instrumented-over-store time, median of paired per-round samples —
  // tools/bench.sh gates this at >= 0.9 (WAL appends may cost at most 10%
  // of the instrumented path).
  double storeRatio = 0.0;
  double snapshotBuildUsPerDoc = 0.0;
  // End-to-end page pipeline (raw HTML → detection-ready snapshot), in
  // pages/sec: the reference parseHtml + flattenTree pass vs the
  // streaming tokenizer→snapshot builder.
  LoopResult parseReference;
  LoopResult stream;
  // Parse-over-stream time, median of paired per-round samples —
  // tools/bench.sh gates this at >= MIN_STREAM_RATIO (default 3.0).
  double streamRatio = 0.0;
  // Audit evidence per pair: the oracle (parse both copies, node-tree
  // evidence) and the snapshot evidence FORCUM runs.
  LoopResult evidenceOracle;
  LoopResult evidence;
  // Oracle-over-snapshot time, median of paired per-round samples —
  // tools/bench.sh gates this at >= MIN_EVIDENCE_SPEEDUP (default 2).
  double evidenceSpeedup = 0.0;
  // The scan-only page-info pass a page view runs when no comparison will
  // read its snapshot, over the same pages as the stream build.
  LoopResult scan;
  // Stream-over-scan time, median of paired per-round samples —
  // tools/bench.sh gates this at >= 1.5.
  double scanRatio = 0.0;
};

bool sameEvidence(const core::DifferenceExplanation& a,
                  const core::DifferenceExplanation& b) {
  return a.structureOnlyInRegular == b.structureOnlyInRegular &&
         a.structureOnlyInHidden == b.structureOnlyInHidden &&
         a.textOnlyInRegular == b.textOnlyInRegular &&
         a.textOnlyInHidden == b.textOnlyInHidden;
}

RosterReport benchRoster(const std::string& name,
                         const std::vector<server::SiteSpec>& roster) {
  RosterReport report;
  report.name = name;
  std::vector<PagePair> pairs = buildPairs(roster, 2007);
  report.pairs = pairs.size();

  const core::DecisionConfig config;
  core::DetectionScratch scratch;

  // Verify once, before timing: the two paths must agree bit for bit on
  // every pair, or the speedup below is measuring a different algorithm.
  for (const PagePair& pair : pairs) {
    const core::DecisionResult reference =
        core::decideCookieUsefulness(*pair.regular, *pair.hidden, config);
    const core::DecisionResult fast = core::decideCookieUsefulness(
        *pair.regularSnapshot, *pair.hiddenSnapshot, scratch, config);
    if (reference.treeSim != fast.treeSim ||
        reference.textSim != fast.textSim ||
        reference.causedByCookies != fast.causedByCookies) {
      std::fprintf(stderr,
                   "FATAL: fast path diverged on %s (tree %.17g vs %.17g, "
                   "text %.17g vs %.17g)\n",
                   name.c_str(), reference.treeSim, fast.treeSim,
                   reference.textSim, fast.textSim);
      std::exit(1);
    }
  }

  constexpr int kReferenceReps = 20;
  constexpr int kFastReps = 200;
  report.reference = timedLoop(kReferenceReps, pairs.size(), [&](size_t i) {
    core::decideCookieUsefulness(*pairs[i].regular, *pairs[i].hidden, config);
  });
  // One untimed pass grows the arena/scratch to working-set size; the timed
  // steady state is what FORCUM sees after its first few views.
  for (const PagePair& pair : pairs) {
    core::decideCookieUsefulness(*pair.regularSnapshot, *pair.hiddenSnapshot,
                                 scratch, config);
  }

  // The fast loop is timed three ways — bare, with the flight recorder's
  // metrics registry installed as the thread's session sink (spans +
  // counters recording), and with each step additionally logging the two
  // WAL records a FORCUM verdict produces to a live durable-store shard
  // (buffered appends, no per-record fsync; compaction disabled — its
  // fsync is a cadence cost, not a per-append one). The gate ratios
  // (instrumented/fast and store/instrumented) are each taken from a single
  // round's adjacent windows: timing the variants in independent best-of-N
  // windows lets a noisy stretch hit one side only and whipsaw the ratio
  // run to run, while paired windows see the same machine conditions.
  {
    // Prefer tmpfs for the bench shard: the gate measures the CPU cost of
    // buffered appends (fsync/compaction are cadence costs, excluded by
    // design), and a disk-backed /tmp couples the store windows to whatever
    // writeback the preceding build left behind.
    const std::filesystem::path shmDir = "/dev/shm";
    const std::filesystem::path storeDir =
        (std::filesystem::is_directory(shmDir)
             ? shmDir
             : std::filesystem::temp_directory_path()) /
        ("cp_bench_store_" + name);
    std::filesystem::remove_all(storeDir);
    store::StoreConfig storeConfig;
    storeConfig.directory = storeDir.string();
    storeConfig.compactEveryAppends = 0;
    store::StateStore stateStore(storeConfig);
    store::HostStore* shard = stateStore.openHost("bench." + name);
    shard->beginSession("bench");
    const std::string verdictBody =
        "bench." + name + "\t12\tno-difference\t0";
    const std::string counterBody =
        "bench." + name + "\t1\t12\t12\t3\t0\tk|d|p";

    const auto runFast = [&] {
      for (const PagePair& pair : pairs) {
        core::decideCookieUsefulness(*pair.regularSnapshot,
                                     *pair.hiddenSnapshot, scratch, config);
      }
    };
    const auto runStore = [&] {
      for (const PagePair& pair : pairs) {
        core::decideCookieUsefulness(*pair.regularSnapshot,
                                     *pair.hiddenSnapshot, scratch, config);
        shard->append(store::RecordType::VerdictApplied, verdictBody);
        shard->append(store::RecordType::CounterTransition, counterBody);
      }
    };

    constexpr int kRatioRounds = 8;
    constexpr int kRepsPerRound = kFastReps / kRatioRounds;
    const auto stepsPerRep = static_cast<double>(pairs.size());
    TimedSide fastSide, instrSide, storeSide;
    std::vector<double> instrRatios, storeRatios;
    for (int round = 0; round < kRatioRounds; ++round) {
      const double fastMs = fastSide.time(kRepsPerRound, runFast);
      double instrMs = 0.0;
      double storeMs = 0.0;
      {
        obs::MetricsRegistry metrics;
        obs::ScopedObsSession obsScope(&metrics, nullptr);
        runFast();  // warm the session sink before its timed window
        instrMs = instrSide.time(kRepsPerRound, runFast);
        storeMs = storeSide.time(kRepsPerRound, runStore);
      }
      instrRatios.push_back(fastMs / instrMs);
      storeRatios.push_back(instrMs / storeMs);
    }
    std::filesystem::remove_all(storeDir);

    report.fast = fastSide.result(stepsPerRep);
    report.instrumented = instrSide.result(stepsPerRep);
    report.store = storeSide.result(stepsPerRep);
    report.speedup = report.fast.stepsPerSec / report.reference.stepsPerSec;
    report.instrumentedRatio = medianOf(instrRatios);
    report.storeRatio = medianOf(storeRatios);

    // Instrumentation must stay allocation-free — obs recording never
    // touches the heap.
    if (report.instrumented.bytesPerStep != 0.0 ||
        report.instrumented.allocsPerStep != 0.0) {
      std::fprintf(stderr,
                   "FATAL: instrumented hot path allocated on %s "
                   "(%.1f bytes/step, %.2f allocs/step)\n",
                   name.c_str(), report.instrumented.bytesPerStep,
                   report.instrumented.allocsPerStep);
      std::exit(1);
    }
  }

  // Cost of building the snapshots the fast path reads — paid once per
  // parse, amortized over every detection step on that document.
  constexpr int kBuildReps = 20;
  const util::StopWatch buildWatch;
  for (int rep = 0; rep < kBuildReps; ++rep) {
    for (const PagePair& pair : pairs) {
      const dom::TreeSnapshot regular = dom::flattenTree(*pair.regular);
      const dom::TreeSnapshot hidden = dom::flattenTree(*pair.hidden);
      (void)regular;
      (void)hidden;
    }
  }
  report.snapshotBuildUsPerDoc =
      buildWatch.elapsedMs() * 1000.0 /
      (2.0 * kBuildReps * static_cast<double>(pairs.size()));

  // End-to-end page pipeline: raw container/hidden HTML in, detection-ready
  // snapshot out. Verify equivalence once before timing — the ratio is
  // meaningless if the streaming builder produces a different snapshot.
  std::vector<const std::string*> documents;
  documents.reserve(pairs.size() * 2);
  for (const PagePair& pair : pairs) {
    documents.push_back(&pair.regularHtml);
    documents.push_back(&pair.hiddenHtml);
  }
  html::StreamingSnapshotBuilder builder;
  for (const std::string* html : documents) {
    const auto parsed = html::parseHtml(*html);
    const dom::TreeSnapshot reference = dom::flattenTree(*parsed);
    const html::StreamParseResult streamed = builder.build(*html);
    bool equal = reference.nodeCount() == streamed.snapshot->nodeCount();
    for (std::uint32_t i = 0; equal && i < reference.nodeCount(); ++i) {
      equal = reference.symbol(i) == streamed.snapshot->symbol(i) &&
              reference.subtreeEnd(i) == streamed.snapshot->subtreeEnd(i) &&
              reference.rawFlags(i) == streamed.snapshot->rawFlags(i) &&
              reference.textHash(i) == streamed.snapshot->textHash(i);
    }
    if (!equal) {
      std::fprintf(stderr,
                   "FATAL: streaming snapshot diverged from reference on %s\n",
                   name.c_str());
      std::exit(1);
    }
  }
  // Paired rounds again, three sides: the reference parse, the stream build
  // and the scan-only page-info pass a page view runs when no comparison
  // will read its snapshot. stream_ratio is parse time over build time and
  // scan_ratio build time over scan time, each the median of the per-round
  // ratios. Every round checks that the scan found the page info the build
  // did, so scan_ratio never compares different output.
  std::vector<html::StreamPageInfo> builtPages(documents.size());
  std::vector<html::StreamPageInfo> scannedPages(documents.size());
  const auto runParse = [&] {
    for (const std::string* html : documents) {
      const auto parsed = html::parseHtml(*html);
      const dom::TreeSnapshot snapshot = dom::flattenTree(*parsed);
      (void)snapshot;
    }
  };
  const auto runStream = [&] {
    for (std::size_t i = 0; i < documents.size(); ++i) {
      builtPages[i] = builder.build(*documents[i]).page;
    }
  };
  const auto runScan = [&] {
    for (std::size_t i = 0; i < documents.size(); ++i) {
      scannedPages[i] = builder.scanPageInfo(*documents[i]);
    }
  };
  constexpr int kRounds = 10;
  constexpr int kParseRepsPerRound = 3;
  constexpr int kStreamRepsPerRound = 9;
  TimedSide parseSide, streamSide, scanSide;
  std::vector<double> streamRatios, scanRatios;
  for (int round = 0; round < kRounds; ++round) {
    const double parseMs = parseSide.time(kParseRepsPerRound, runParse);
    const double streamMs = streamSide.time(kStreamRepsPerRound, runStream);
    const double scanMs = scanSide.time(kStreamRepsPerRound, runScan);
    for (std::size_t i = 0; i < documents.size(); ++i) {
      if (builtPages[i].baseHref != scannedPages[i].baseHref ||
          builtPages[i].subresourceRefs != scannedPages[i].subresourceRefs) {
        std::fprintf(stderr,
                     "FATAL: scanned page info diverged from the build on "
                     "%s page %zu\n",
                     name.c_str(), i);
        std::exit(1);
      }
    }
    streamRatios.push_back(parseMs / streamMs);
    scanRatios.push_back(streamMs / scanMs);
  }
  const auto pagesPerRep = static_cast<double>(documents.size());
  report.parseReference = parseSide.result(pagesPerRep);
  report.stream = streamSide.result(pagesPerRep);
  report.scan = scanSide.result(pagesPerRep);
  report.streamRatio = medianOf(streamRatios);
  report.scanRatio = medianOf(scanRatios);

  // Audit evidence, timed in paired rounds like the ratios above. Every
  // round keeps both paths' lists and compares them pair by pair, so the
  // speedup is never measured against different output.
  const core::ExplainOptions explainOptions;
  core::EvidenceScratch evidenceScratch;
  std::vector<core::DifferenceExplanation> oracleLists(pairs.size());
  std::vector<core::DifferenceExplanation> snapshotLists(pairs.size());
  const auto runOracle = [&] {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const auto regular = html::parseHtml(pairs[i].regularHtml);
      const auto hidden = html::parseHtml(pairs[i].hiddenHtml);
      oracleLists[i] = {};
      core::collectDifferenceEvidence(*regular, *hidden, explainOptions,
                                      oracleLists[i]);
    }
  };
  const auto runEvidence = [&] {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      snapshotLists[i] = {};
      core::collectDifferenceEvidence(
          {*pairs[i].regularSnapshot, pairs[i].regularHtml},
          {*pairs[i].hiddenSnapshot, pairs[i].hiddenHtml}, explainOptions,
          evidenceScratch, snapshotLists[i]);
    }
  };
  runEvidence();  // grows the evidence scratch to working-set size
  constexpr int kEvidenceRounds = 10;
  constexpr int kOracleRepsPerRound = 2;
  constexpr int kEvidenceRepsPerRound = 4;
  TimedSide oracleSide, evidenceSide;
  std::vector<double> evidenceRatios;
  for (int round = 0; round < kEvidenceRounds; ++round) {
    const double oracleMs = oracleSide.time(kOracleRepsPerRound, runOracle);
    const double evidenceMs =
        evidenceSide.time(kEvidenceRepsPerRound, runEvidence);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (!sameEvidence(oracleLists[i], snapshotLists[i])) {
        std::fprintf(stderr,
                     "FATAL: snapshot evidence diverged from the oracle on "
                     "%s pair %zu\n",
                     name.c_str(), i);
        std::exit(1);
      }
    }
    evidenceRatios.push_back(oracleMs / evidenceMs);
  }
  const auto stepsPerRep = static_cast<double>(pairs.size());
  report.evidenceOracle = oracleSide.result(stepsPerRep);
  report.evidence = evidenceSide.result(stepsPerRep);
  report.evidenceSpeedup = medianOf(evidenceRatios);
  return report;
}

void appendLoopJson(std::string& out, const char* key,
                    const LoopResult& loop) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "      \"%s\": {\"steps_per_sec\": %.1f, "
                "\"bytes_per_step\": %.1f, \"allocs_per_step\": %.2f}",
                key, loop.stepsPerSec, loop.bytesPerStep, loop.allocsPerStep);
  out += buffer;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string outputPath = argc > 1 ? argv[1] : "BENCH_hotpath.json";

  std::printf("=== detection hot path: reference vs snapshot fast path ===\n\n");
  std::vector<RosterReport> reports;
  reports.push_back(benchRoster("table1", cookiepicker::server::table1Roster()));
  reports.push_back(benchRoster("table2", cookiepicker::server::table2Roster()));

  std::string json = "{\n  \"benchmark\": \"detection_hotpath\",\n"
                     "  \"rosters\": {\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const RosterReport& report = reports[i];
    std::printf("[%s] %zu pairs\n", report.name.c_str(), report.pairs);
    std::printf("  reference : %10.1f steps/s  %10.1f bytes/step  %8.2f allocs/step\n",
                report.reference.stepsPerSec, report.reference.bytesPerStep,
                report.reference.allocsPerStep);
    std::printf("  fast      : %10.1f steps/s  %10.1f bytes/step  %8.2f allocs/step\n",
                report.fast.stepsPerSec, report.fast.bytesPerStep,
                report.fast.allocsPerStep);
    std::printf("  +metrics  : %10.1f steps/s  %10.1f bytes/step  %8.2f allocs/step\n",
                report.instrumented.stepsPerSec,
                report.instrumented.bytesPerStep,
                report.instrumented.allocsPerStep);
    std::printf("  +store    : %10.1f steps/s  %10.1f bytes/step  %8.2f allocs/step\n",
                report.store.stepsPerSec, report.store.bytesPerStep,
                report.store.allocsPerStep);
    std::printf("  parse+snap: %10.1f pages/s %10.1f bytes/page %8.2f allocs/page\n",
                report.parseReference.stepsPerSec,
                report.parseReference.bytesPerStep,
                report.parseReference.allocsPerStep);
    std::printf("  stream    : %10.1f pages/s %10.1f bytes/page %8.2f allocs/page\n",
                report.stream.stepsPerSec, report.stream.bytesPerStep,
                report.stream.allocsPerStep);
    std::printf("  scan      : %10.1f pages/s %10.1f bytes/page %8.2f allocs/page\n",
                report.scan.stepsPerSec, report.scan.bytesPerStep,
                report.scan.allocsPerStep);
    std::printf("  evid oracle:%10.1f steps/s  %10.1f bytes/step  %8.2f allocs/step\n",
                report.evidenceOracle.stepsPerSec,
                report.evidenceOracle.bytesPerStep,
                report.evidenceOracle.allocsPerStep);
    std::printf("  evidence  : %10.1f steps/s  %10.1f bytes/step  %8.2f allocs/step\n",
                report.evidence.stepsPerSec, report.evidence.bytesPerStep,
                report.evidence.allocsPerStep);
    std::printf("  speedup   : %.2fx   instrumented ratio: %.2f   "
                "store ratio: %.2f   snapshot build: %.1f us/doc   "
                "stream ratio: %.2fx   evidence speedup: %.2fx   "
                "scan ratio: %.2fx\n\n",
                report.speedup, report.instrumentedRatio, report.storeRatio,
                report.snapshotBuildUsPerDoc, report.streamRatio,
                report.evidenceSpeedup, report.scanRatio);

    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "    \"%s\": {\n      \"pairs\": %zu,\n",
                  report.name.c_str(), report.pairs);
    json += buffer;
    appendLoopJson(json, "reference", report.reference);
    json += ",\n";
    appendLoopJson(json, "fast", report.fast);
    json += ",\n";
    appendLoopJson(json, "instrumented", report.instrumented);
    json += ",\n";
    appendLoopJson(json, "store", report.store);
    json += ",\n";
    appendLoopJson(json, "parse_reference", report.parseReference);
    json += ",\n";
    appendLoopJson(json, "stream", report.stream);
    json += ",\n";
    appendLoopJson(json, "evidence_oracle", report.evidenceOracle);
    json += ",\n";
    appendLoopJson(json, "evidence", report.evidence);
    json += ",\n";
    appendLoopJson(json, "scan", report.scan);
    json += ",\n";
    std::snprintf(buffer, sizeof(buffer),
                  "      \"speedup\": %.2f,\n"
                  "      \"instrumented_ratio\": %.2f,\n"
                  "      \"store_ratio\": %.2f,\n"
                  "      \"stream_ratio\": %.2f,\n"
                  "      \"evidence_speedup\": %.2f,\n"
                  "      \"scan_ratio\": %.2f,\n"
                  "      \"snapshot_build_us_per_doc\": %.1f\n    }%s\n",
                  report.speedup, report.instrumentedRatio, report.storeRatio,
                  report.streamRatio, report.evidenceSpeedup, report.scanRatio,
                  report.snapshotBuildUsPerDoc,
                  i + 1 < reports.size() ? "," : "");
    json += buffer;
  }
  json += "  }\n}\n";

  if (std::FILE* file = std::fopen(outputPath.c_str(), "w")) {
    std::fwrite(json.data(), 1, json.size(), file);
    std::fclose(file);
    std::printf("wrote %s\n", outputPath.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", outputPath.c_str());
    return 1;
  }
  return 0;
}
