// Metrics registry — the flight recorder's numeric half.
//
// Three metric families, all compiled-in and branch-cheap when disabled:
//
//  * monotonic counters  — sharded relaxed atomics (one cache-line-padded
//    shard per hardware-ish thread bucket) so fleet workers never contend;
//  * gauges              — last-value or high-water registers with an
//    explicit per-gauge merge policy (Sum across sessions, or Max);
//  * timing histograms   — fixed-bound log2 buckets (1 µs .. ~18 min) plus
//    count/sum, recorded in nanoseconds with no heap allocation.
//
// The determinism split: counters and gauges are *deterministic* — for a
// fixed seed and workload their snapshot is byte-identical for any fleet
// worker count (each session records into its own registry and snapshots
// merge in roster order; sums/maxes commute). Histograms measure *host*
// time, which varies run to run, so they are reported by `toJson()` but
// excluded from `deterministicJson()` and from every determinism check.
//
// A registry is thread-safe for concurrent recording and snapshotting.
// `MetricsRegistry::global()` is the process-wide default sink; sessions
// (fleet host sessions, the CLI) install their own via obs::ScopedObsSession
// (recorder.h), which takes precedence on that thread.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace cookiepicker::obs {

// Deterministic monotonic counters. Keep names in metrics.cpp in sync.
enum class Counter : std::uint8_t {
  PagesVisited,            // Browser::visit calls
  RedirectsFollowed,       // container redirects followed
  SubresourceFetches,      // object requests (img/script/css/iframe)
  HiddenFetches,           // FORCUM hidden requests (incl. re-probes)
  NetworkRequests,         // Network::dispatch calls
  NetworkBytes,            // request + response wire bytes
  NetworkFailuresInjected, // synthetic 503s from failure injection
  ReplayMisses,            // ReplayHandler requests with no recorded match
  JarEvictions,            // cookies evicted by jar capacity limits
  RstmEvaluations,         // nTreeSim calls (reference or snapshot kernel)
  CvceExtractions,         // context-content extractions (either kernel)
  CvceMerges,              // nTextSim calls (either kernel)
  Decisions,               // Figure-5 decisions evaluated
  VerdictCookieCaused,     // decisions that attributed the diff to cookies
  VerdictNoDifference,     // decisions that did not
  VerdictVetoed,           // markings vetoed by the consistency re-probe
  CookiesMarkedUseful,     // cookies newly marked useful
  HostsEnforced,           // hosts put under enforcement
  // --- fault injection & resilience (reported under "faults" in
  // deterministicJson; keep kFirstFaultCounter below in sync) ---
  FaultServerErrors,           // injected synthetic 5xx responses
  FaultConnectionDrops,        // injected connection drops (status 0)
  FaultTimeouts,               // injected timeouts (status 0 + deadline)
  FaultTruncatedBodies,        // bodies actually cut short mid-transfer
  FaultCorruptedSetCookies,    // Set-Cookie headers actually mangled
  FaultSlowDrips,              // responses delayed by slow-drip latency
  HiddenFetchRetries,          // hidden-fetch attempts beyond the first
  HiddenFetchExhausted,        // hidden fetches that failed every attempt
  HiddenRetryBudgetExhausted,  // retries forgone: session budget empty
  ForcumStepsSkipped,          // FORCUM steps degraded to a skip verdict
  // --- durable state store (reported under "store" in deterministicJson;
  // keep kFirstStoreCounter below in sync) ---
  StoreAppends,            // WAL records appended
  StoreAppendBytes,        // framed WAL bytes written
  StoreCompactions,        // snapshots compacted on the append cadence
  StoreSnapshotBytes,      // snapshot bytes published
  StoreSnapshotsLoaded,    // valid snapshots read during recovery
  StoreRecordsRecovered,   // records applied during recovery replay
  StoreRecordsDiscarded,   // records lost to torn tails / checksum failures
  StoreShardsReset,        // shards wiped for a from-scratch session rerun
  // --- shared knowledge tier (reported under "knowledge" in
  // deterministicJson; keep kFirstKnowledgeCounter below in sync). The
  // consult-side counters (hits/misses/demotions/imported marks) are
  // recorded by the picker inside the session, so they are deterministic
  // per (seed, host, views); merges are recorded wherever the join runs
  // (inside a session for fleet publishes, the caller's registry for
  // gossip rounds). ---
  KnowledgeHits,           // consults answered by a warm (stable) entry
  KnowledgeMisses,         // consults that fell back to the paper path
  KnowledgeDemotions,      // epoch bumps: observed cookie set changed
  KnowledgeMarksImported,  // useful marks adopted from shared knowledge
  KnowledgeMerges,         // SiteKnowledge joins applied to a base
  // --- serve tier (reported under "serve" in deterministicJson; keep
  // kFirstServeCounter below in sync). Recorded against the global
  // registry only: serve activity is real-socket plumbing, never part of
  // the per-session determinism contract (sim determinism suites do not
  // enter the serve tier, so these stay zero there). ---
  ServeDispatches,         // async-client requests issued
  ServeConnectionsOpened,  // TCP connections the client pool opened
  ServeReusedDispatches,   // dispatches on an already-used connection
  ServeRetriesScheduled,   // wheel-timer retries the client scheduled
  ServeRequestsServed,     // requests the origin tier answered
  ServeFaultsInjected,     // socket-layer faults the origin injected
  ServeParseErrors,        // malformed/oversized requests rejected
  // --- provenance attribution tier (reported under "attribution" in
  // deterministicJson, but only when at least one of its counters is
  // nonzero — AttributionMode::Off runs must serialize byte-identically to
  // builds that predate the tier; keep kFirstAttributionCounter in sync) ---
  AttributionSteps,         // FORCUM steps that entered the attribution path
  AttributionNominated,     // steps where taint nominated a single cookie
  AttributionAmbiguous,     // steps where taint named several candidates
  AttributionConfirmStrips, // targeted single-cookie confirm fetches issued
  AttributionConfirmed,     // confirm strips that upheld their nomination
  AttributionFallbacks,     // steps with no usable taint (map missing, no
                            // tainted difference rows, or label overflow)
  kCount,
};

// First counter of the fault/resilience block — deterministicJson splits the
// counter array here into the "counters" and "faults" sections.
inline constexpr std::size_t kFirstFaultCounter =
    static_cast<std::size_t>(Counter::FaultServerErrors);
// First counter of the durable-store block (the "store" section).
inline constexpr std::size_t kFirstStoreCounter =
    static_cast<std::size_t>(Counter::StoreAppends);
// First counter of the shared-knowledge block (the "knowledge" section).
inline constexpr std::size_t kFirstKnowledgeCounter =
    static_cast<std::size_t>(Counter::KnowledgeHits);
// First counter of the serve-tier block (the "serve" section).
inline constexpr std::size_t kFirstServeCounter =
    static_cast<std::size_t>(Counter::ServeDispatches);
// First counter of the attribution block (the conditional "attribution"
// section).
inline constexpr std::size_t kFirstAttributionCounter =
    static_cast<std::size_t>(Counter::AttributionSteps);

// Gauges: set-style registers. Merge policy is per gauge (see gaugeMerge).
enum class Gauge : std::uint8_t {
  JarCookies,      // cookies currently stored in the session jar  (Sum)
  RstmArenaCells,  // high-water cell count of the RSTM DP arena   (Max)
  kCount,
};

enum class GaugeMerge { Sum, Max };

// Timing histograms — the pipeline phases the spans instrument.
enum class Timer : std::uint8_t {
  StreamBuild,    // streaming tokenizer→snapshot build or page-info scan
  RstmDp,         // nTreeSim (the RSTM dynamic program + node counts)
  CvceExtract,    // context-content extraction
  CvceMerge,      // nTextSim set/feature merge
  Decision,       // one full Figure-5 decision (both kernels + verdict)
  HiddenFetch,    // Browser::hiddenFetch round trip (host time)
  PageVisit,      // Browser::visit end to end (host time)
  ForcumStep,     // ForcumEngine::runStep end to end (host time)
  AuditEvidence,  // difference evidence for a cookie-caused audit record
  ServeDispatch,  // async-client request round trip over real sockets
  kCount,
};

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);
inline constexpr std::size_t kGaugeCount =
    static_cast<std::size_t>(Gauge::kCount);
inline constexpr std::size_t kTimerCount =
    static_cast<std::size_t>(Timer::kCount);

// Log2 buckets over nanoseconds: bucket 0 is < 1 µs, bucket i >= 1 covers
// [2^(i-1), 2^i) µs, the last bucket is open-ended (>= ~18 min).
inline constexpr std::size_t kHistogramBuckets = 32;

const char* counterName(Counter counter);
const char* gaugeName(Gauge gauge);
GaugeMerge gaugeMerge(Gauge gauge);
const char* timerName(Timer timer);

// Bucket index for a nanosecond duration (exposed for the bound tests).
std::size_t histogramBucketIndex(std::uint64_t ns);
// Upper bound of a bucket in milliseconds (the value percentiles report).
double histogramBucketUpperMs(std::size_t bucket);

// Point-in-time copy of one timing histogram. Plain data; merge adds.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sumNs = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  void merge(const HistogramSnapshot& other);
  double totalMs() const { return static_cast<double>(sumNs) / 1e6; }
  double meanMs() const;
  // Nearest-rank percentile, reported as the matched bucket's upper bound.
  double percentileMs(double p) const;
};

// Point-in-time copy of a whole registry. Plain data; merging commutes, so
// per-session snapshots combined in roster order are scheduling-independent.
struct MetricsSnapshot {
  std::array<std::uint64_t, kCounterCount> counters{};
  std::array<std::int64_t, kGaugeCount> gauges{};
  std::array<HistogramSnapshot, kTimerCount> timers{};

  std::uint64_t counter(Counter counter) const {
    return counters[static_cast<std::size_t>(counter)];
  }
  std::int64_t gauge(Gauge gauge) const {
    return gauges[static_cast<std::size_t>(gauge)];
  }
  const HistogramSnapshot& timer(Timer timer) const {
    return timers[static_cast<std::size_t>(timer)];
  }

  void merge(const MetricsSnapshot& other);

  // Canonical JSON of the deterministic metrics only (counters + gauges,
  // fixed key order, no whitespace variance) — the bytes the 1-vs-8-worker
  // determinism tests compare.
  std::string deterministicJson() const;
  // Timing histograms as JSON (count, total/mean ms, p50/p90/p99).
  std::string timingJson() const;
  // {"deterministic": ..., "timing": ...} — what --metrics-out writes.
  std::string toJson() const;
};

class MetricsRegistry {
 public:
  // Session registries start enabled; the process-global one starts from
  // the COOKIEPICKER_OBS environment variable (unset/0 = disabled).
  explicit MetricsRegistry(bool enabled = true) : enabled_(enabled) {}
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void setEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  // Recording. All paths are allocation-free and safe to call concurrently;
  // counters go to a per-thread shard to keep fleet workers off each
  // other's cache lines.
  void add(Counter counter, std::uint64_t delta = 1);
  void gaugeSet(Gauge gauge, std::int64_t value);  // Sum-policy gauges
  void gaugeMax(Gauge gauge, std::int64_t value);  // Max-policy gauges
  void recordTimerNs(Timer timer, std::uint64_t ns);

  MetricsSnapshot snapshot() const;
  void reset();

  // The process-wide default registry (used when no session is installed).
  static MetricsRegistry& global();

  static constexpr std::size_t kShards = 8;

 private:
  struct alignas(64) CounterShard {
    std::array<std::atomic<std::uint64_t>, kCounterCount> values{};
  };
  struct TimerSlot {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sumNs{0};
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
  };

  std::atomic<bool> enabled_;
  std::array<CounterShard, kShards> counterShards_{};
  std::array<std::atomic<std::int64_t>, kGaugeCount> gauges_{};
  std::array<TimerSlot, kTimerCount> timers_{};
};

}  // namespace cookiepicker::obs
