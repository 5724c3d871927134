#include "obs/metrics.h"

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace cookiepicker::obs {

namespace {

constexpr const char* kCounterNames[kCounterCount] = {
    "pages_visited",
    "redirects_followed",
    "subresource_fetches",
    "hidden_fetches",
    "network_requests",
    "network_bytes",
    "network_failures_injected",
    "replay_misses",
    "jar_evictions",
    "rstm_evaluations",
    "cvce_extractions",
    "cvce_merges",
    "decisions",
    "verdicts_cookie_caused",
    "verdicts_no_difference",
    "verdicts_vetoed",
    "cookies_marked_useful",
    "hosts_enforced",
    "fault_server_errors",
    "fault_connection_drops",
    "fault_timeouts",
    "fault_truncated_bodies",
    "fault_corrupted_set_cookies",
    "fault_slow_drips",
    "hidden_fetch_retries",
    "hidden_fetch_exhausted",
    "hidden_retry_budget_exhausted",
    "forcum_steps_skipped",
    "store_appends",
    "store_append_bytes",
    "store_compactions",
    "store_snapshot_bytes",
    "store_snapshots_loaded",
    "store_records_recovered",
    "store_records_discarded",
    "store_shards_reset",
    "knowledge_hits",
    "knowledge_misses",
    "knowledge_demotions",
    "knowledge_marks_imported",
    "knowledge_merges",
    "serve_dispatches",
    "serve_connections_opened",
    "serve_reused_dispatches",
    "serve_retries_scheduled",
    "serve_requests_served",
    "serve_faults_injected",
    "serve_parse_errors",
    "attribution_steps",
    "attribution_nominated",
    "attribution_ambiguous",
    "attribution_confirm_strips",
    "attribution_confirmed",
    "attribution_fallbacks",
};

constexpr const char* kGaugeNames[kGaugeCount] = {
    "jar_cookies",
    "rstm_arena_cells",
};

constexpr GaugeMerge kGaugeMerges[kGaugeCount] = {
    GaugeMerge::Sum,  // jar_cookies
    GaugeMerge::Max,  // rstm_arena_cells
};

constexpr const char* kTimerNames[kTimerCount] = {
    "stream_build",
    "rstm_dp",
    "cvce_extract",
    "cvce_merge",
    "decision",
    "hidden_fetch",
    "page_visit",
    "forcum_step",
    "audit_evidence",
    "serve_dispatch",
};

// Shard choice: a stable per-thread index. Hashing the thread id once per
// thread keeps every counter increment a single relaxed fetch_add on a line
// no other worker is writing (kShards is a power of two).
std::size_t thisThreadShard() {
  static thread_local const std::size_t shard =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) &
      (MetricsRegistry::kShards - 1);
  return shard;
}

void appendUint(std::string& out, std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%llu",
                static_cast<unsigned long long>(value));
  out += buffer;
}

void appendInt(std::string& out, std::int64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%lld",
                static_cast<long long>(value));
  out += buffer;
}

void appendFixed(std::string& out, double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  out += buffer;
}

}  // namespace

const char* counterName(Counter counter) {
  return kCounterNames[static_cast<std::size_t>(counter)];
}

const char* gaugeName(Gauge gauge) {
  return kGaugeNames[static_cast<std::size_t>(gauge)];
}

GaugeMerge gaugeMerge(Gauge gauge) {
  return kGaugeMerges[static_cast<std::size_t>(gauge)];
}

const char* timerName(Timer timer) {
  return kTimerNames[static_cast<std::size_t>(timer)];
}

std::size_t histogramBucketIndex(std::uint64_t ns) {
  const std::uint64_t micros = ns >> 10;  // /1024: cheap µs-ish scaling
  if (micros == 0) return 0;
  const std::size_t width = static_cast<std::size_t>(std::bit_width(micros));
  return width < kHistogramBuckets ? width : kHistogramBuckets - 1;
}

double histogramBucketUpperMs(std::size_t bucket) {
  // Bucket 0 tops out at 1 µs; bucket i at 2^i µs (1024 ns units).
  const double upperNs =
      static_cast<double>(1024.0) * std::exp2(static_cast<double>(bucket));
  return upperNs / 1e6;
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  count += other.count;
  sumNs += other.sumNs;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    buckets[i] += other.buckets[i];
  }
}

double HistogramSnapshot::meanMs() const {
  return count == 0 ? 0.0
                    : static_cast<double>(sumNs) /
                          (1e6 * static_cast<double>(count));
}

double HistogramSnapshot::percentileMs(double p) const {
  if (count == 0) return 0.0;
  if (p < 0.0) p = 0.0;
  if (p > 100.0) p = 100.0;
  // Nearest-rank over the cumulative bucket counts.
  const std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    seen += buckets[i];
    if (seen >= rank && seen > 0) return histogramBucketUpperMs(i);
  }
  return histogramBucketUpperMs(kHistogramBuckets - 1);
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    counters[i] += other.counters[i];
  }
  for (std::size_t i = 0; i < kGaugeCount; ++i) {
    switch (kGaugeMerges[i]) {
      case GaugeMerge::Sum:
        gauges[i] += other.gauges[i];
        break;
      case GaugeMerge::Max:
        if (other.gauges[i] > gauges[i]) gauges[i] = other.gauges[i];
        break;
    }
  }
  for (std::size_t i = 0; i < kTimerCount; ++i) {
    timers[i].merge(other.timers[i]);
  }
}

std::string MetricsSnapshot::deterministicJson() const {
  std::string out = "{\"counters\":{";
  for (std::size_t i = 0; i < kFirstFaultCounter; ++i) {
    if (i != 0) out += ',';
    out += '"';
    out += kCounterNames[i];
    out += "\":";
    appendUint(out, counters[i]);
  }
  out += "},\"faults\":{";
  for (std::size_t i = kFirstFaultCounter; i < kFirstStoreCounter; ++i) {
    if (i != kFirstFaultCounter) out += ',';
    out += '"';
    out += kCounterNames[i];
    out += "\":";
    appendUint(out, counters[i]);
  }
  out += "},\"store\":{";
  for (std::size_t i = kFirstStoreCounter; i < kFirstKnowledgeCounter; ++i) {
    if (i != kFirstStoreCounter) out += ',';
    out += '"';
    out += kCounterNames[i];
    out += "\":";
    appendUint(out, counters[i]);
  }
  out += "},\"knowledge\":{";
  for (std::size_t i = kFirstKnowledgeCounter; i < kFirstServeCounter; ++i) {
    if (i != kFirstKnowledgeCounter) out += ',';
    out += '"';
    out += kCounterNames[i];
    out += "\":";
    appendUint(out, counters[i]);
  }
  out += "},\"serve\":{";
  for (std::size_t i = kFirstServeCounter; i < kFirstAttributionCounter; ++i) {
    if (i != kFirstServeCounter) out += ',';
    out += '"';
    out += kCounterNames[i];
    out += "\":";
    appendUint(out, counters[i]);
  }
  // The attribution section exists only when the tier actually ran: an
  // AttributionMode::Off run serializes byte-identically to builds that
  // predate the tier (the differential pin depends on this).
  bool anyAttribution = false;
  for (std::size_t i = kFirstAttributionCounter; i < kCounterCount; ++i) {
    anyAttribution = anyAttribution || counters[i] != 0;
  }
  if (anyAttribution) {
    out += "},\"attribution\":{";
    for (std::size_t i = kFirstAttributionCounter; i < kCounterCount; ++i) {
      if (i != kFirstAttributionCounter) out += ',';
      out += '"';
      out += kCounterNames[i];
      out += "\":";
      appendUint(out, counters[i]);
    }
  }
  out += "},\"gauges\":{";
  for (std::size_t i = 0; i < kGaugeCount; ++i) {
    if (i != 0) out += ',';
    out += '"';
    out += kGaugeNames[i];
    out += "\":";
    appendInt(out, gauges[i]);
  }
  out += "}}";
  return out;
}

std::string MetricsSnapshot::timingJson() const {
  std::string out = "{";
  for (std::size_t i = 0; i < kTimerCount; ++i) {
    if (i != 0) out += ',';
    const HistogramSnapshot& h = timers[i];
    out += '"';
    out += kTimerNames[i];
    out += "\":{\"count\":";
    appendUint(out, h.count);
    out += ",\"total_ms\":";
    appendFixed(out, h.totalMs(), 3);
    out += ",\"mean_ms\":";
    appendFixed(out, h.meanMs(), 6);
    out += ",\"p50_ms\":";
    appendFixed(out, h.percentileMs(50.0), 6);
    out += ",\"p90_ms\":";
    appendFixed(out, h.percentileMs(90.0), 6);
    out += ",\"p99_ms\":";
    appendFixed(out, h.percentileMs(99.0), 6);
    out += '}';
  }
  out += '}';
  return out;
}

std::string MetricsSnapshot::toJson() const {
  std::string out = "{\n  \"deterministic\": ";
  out += deterministicJson();
  out += ",\n  \"timing\": ";
  out += timingJson();
  out += "\n}\n";
  return out;
}

void MetricsRegistry::add(Counter counter, std::uint64_t delta) {
  if (!enabled()) return;
  counterShards_[thisThreadShard()]
      .values[static_cast<std::size_t>(counter)]
      .fetch_add(delta, std::memory_order_relaxed);
}

void MetricsRegistry::gaugeSet(Gauge gauge, std::int64_t value) {
  if (!enabled()) return;
  gauges_[static_cast<std::size_t>(gauge)].store(value,
                                                 std::memory_order_relaxed);
}

void MetricsRegistry::gaugeMax(Gauge gauge, std::int64_t value) {
  if (!enabled()) return;
  std::atomic<std::int64_t>& slot = gauges_[static_cast<std::size_t>(gauge)];
  std::int64_t current = slot.load(std::memory_order_relaxed);
  while (value > current &&
         !slot.compare_exchange_weak(current, value,
                                     std::memory_order_relaxed)) {
  }
}

void MetricsRegistry::recordTimerNs(Timer timer, std::uint64_t ns) {
  if (!enabled()) return;
  TimerSlot& slot = timers_[static_cast<std::size_t>(timer)];
  slot.count.fetch_add(1, std::memory_order_relaxed);
  slot.sumNs.fetch_add(ns, std::memory_order_relaxed);
  slot.buckets[histogramBucketIndex(ns)].fetch_add(1,
                                                   std::memory_order_relaxed);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  for (const CounterShard& shard : counterShards_) {
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      snap.counters[i] += shard.values[i].load(std::memory_order_relaxed);
    }
  }
  for (std::size_t i = 0; i < kGaugeCount; ++i) {
    snap.gauges[i] = gauges_[i].load(std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < kTimerCount; ++i) {
    const TimerSlot& slot = timers_[i];
    snap.timers[i].count = slot.count.load(std::memory_order_relaxed);
    snap.timers[i].sumNs = slot.sumNs.load(std::memory_order_relaxed);
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      snap.timers[i].buckets[b] =
          slot.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return snap;
}

void MetricsRegistry::reset() {
  for (CounterShard& shard : counterShards_) {
    for (auto& value : shard.values) {
      value.store(0, std::memory_order_relaxed);
    }
  }
  for (auto& gauge : gauges_) gauge.store(0, std::memory_order_relaxed);
  for (TimerSlot& slot : timers_) {
    slot.count.store(0, std::memory_order_relaxed);
    slot.sumNs.store(0, std::memory_order_relaxed);
    for (auto& bucket : slot.buckets) {
      bucket.store(0, std::memory_order_relaxed);
    }
  }
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = [] {
    const char* env = std::getenv("COOKIEPICKER_OBS");
    const bool enabled =
        env != nullptr && env[0] != '\0' && env[0] != '0';
    return new MetricsRegistry(enabled);  // leaked: lives for the process
  }();
  return *registry;
}

}  // namespace cookiepicker::obs
