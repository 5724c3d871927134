#include "harness.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <utility>

#include "cookies/jar.h"
#include "util/rng.h"

namespace perfbench {

std::uint64_t monotonicNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

std::uint64_t cpuNs(clockid_t clock) {
  timespec now{};
  clock_gettime(clock, &now);
  return static_cast<std::uint64_t>(now.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(now.tv_nsec);
}

}  // namespace

// Written by hostProbeUs, so its walks are not optimized away.
volatile std::uint64_t g_probeSink = 0;

std::uint64_t threadCpuNs() { return cpuNs(CLOCK_THREAD_CPUTIME_ID); }

std::uint64_t processCpuNs() { return cpuNs(CLOCK_PROCESS_CPUTIME_ID); }

double hostProbeUs() {
  constexpr std::size_t kSlots = 1 << 18;  // 2 MiB of 8-byte slots
  constexpr int kSteps = 1 << 15;
  // One random cycle through every slot.
  static const std::vector<std::uint64_t> next = [] {
    std::vector<std::uint64_t> order(kSlots);
    std::iota(order.begin(), order.end(), std::uint64_t{0});
    util::Pcg32 rng(7, 0x70726f6265ULL);
    for (std::size_t i = kSlots; i > 1; --i) {
      std::swap(order[i - 1],
                order[rng.uniform(0, static_cast<std::uint32_t>(i - 1))]);
    }
    std::vector<std::uint64_t> cycle(kSlots);
    for (std::size_t i = 0; i < kSlots; ++i) {
      cycle[order[i]] = order[(i + 1) % kSlots];
    }
    return cycle;
  }();
  std::uint64_t slot = 0;
  std::uint64_t mix = 0x9e3779b97f4a7c15ULL;
  const auto walk = [&]() {
    for (int step = 0; step < kSteps; ++step) {
      slot = next[slot];
      for (int round = 0; round < 8; ++round) {
        mix ^= mix << 13;
        mix ^= mix >> 7;
        mix ^= mix << 17;
      }
      slot ^= mix & 1;
    }
  };
  walk();  // into cache
  const std::uint64_t start = threadCpuNs();
  walk();
  const double us = static_cast<double>(threadCpuNs() - start) / 1e3;
  g_probeSink = slot + mix;
  return us;
}

std::optional<double> nearestRank(std::vector<double> samples,
                                  double percentile, std::size_t minBeyond) {
  const std::size_t n = samples.size();
  if (n == 0 || !(percentile > 0.0) || percentile > 100.0) return std::nullopt;
  const auto rank = static_cast<std::size_t>(
      std::ceil(percentile / 100.0 * static_cast<double>(n)));
  if (n - rank < minBeyond) return std::nullopt;
  const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

std::vector<std::size_t> calmItems(const std::vector<double>& probeUs,
                                   const std::vector<double>& weight,
                                   double calmUs, double minWeight) {
  std::vector<std::size_t> byProbe(probeUs.size());
  std::iota(byProbe.begin(), byProbe.end(), std::size_t{0});
  std::stable_sort(byProbe.begin(), byProbe.end(),
                   [&](std::size_t a, std::size_t b) {
                     return probeUs[a] < probeUs[b];
                   });
  std::vector<std::size_t> kept;
  double keptWeight = 0.0;
  for (const std::size_t i : byProbe) {
    if (probeUs[i] > calmUs && keptWeight >= minWeight) break;
    kept.push_back(i);
    keptWeight += weight[i];
  }
  std::sort(kept.begin(), kept.end());
  return kept;
}

TallySnapshot TallySnapshot::since(const TallySnapshot& earlier) const {
  TallySnapshot delta;
  for (std::size_t i = 0; i < kFieldCount; ++i) {
    delta.values[i] = values[i] - earlier.values[i];
  }
  return delta;
}

TallySnapshot& TallySnapshot::operator+=(const TallySnapshot& other) {
  for (std::size_t i = 0; i < kFieldCount; ++i) values[i] += other.values[i];
  return *this;
}

TallySnapshot Tally::snapshot() const {
  TallySnapshot snapshot;
  for (std::size_t i = 0; i < kFieldCount; ++i) {
    snapshot.values[i] = values_[i].load(std::memory_order_relaxed);
  }
  return snapshot;
}

TimedHandler::TimedHandler(net::HttpHandler& inner, Tally& tally,
                           std::shared_ptr<net::HttpHandler> owner)
    : inner_(inner), owner_(std::move(owner)), tally_(tally) {}

net::HttpResponse TimedHandler::handle(const net::HttpRequest& request) {
  const bool tracing = tally_.tracing();
  const std::uint64_t start = tracing ? monotonicNs() : 0;
  net::HttpResponse response = inner_.handle(request);
  if (tracing) tally_.add(Field::RenderNs, monotonicNs() - start);
  tally_.add(Field::ResponseBytes, response.body.size());
  return response;
}

void SessionCpu::onRequest(const std::string& host) {
  if (host == host_) return;
  const std::uint64_t now = threadCpuNs();
  if (!host_.empty()) {
    closedMs_.push_back(static_cast<double>(now - startNs_) / 1e6);
  }
  host_ = host;
  startNs_ = now;
}

std::vector<double> SessionCpu::finish() {
  if (!host_.empty()) {
    closedMs_.push_back(static_cast<double>(threadCpuNs() - startNs_) / 1e6);
  }
  host_.clear();
  return std::exchange(closedMs_, {});
}

void CountingTransport::count(const net::HttpRequest& request,
                              const net::Exchange& exchange, int attempts) {
  const auto sent = static_cast<std::uint64_t>(std::max(1, attempts));
  tally_.add(Field::Dispatches, sent);
  if (request.kind == net::RequestKind::Hidden) {
    tally_.add(Field::HiddenDispatches, sent);
  }
  tally_.add(Field::WireBytes, exchange.requestBytes + exchange.responseBytes);
}

net::Exchange CountingTransport::dispatch(const net::HttpRequest& request) {
  if (sessions_ != nullptr) sessions_->onRequest(request.url.host());
  const bool tracing = tally_.tracing();
  const std::uint64_t start = tracing ? monotonicNs() : 0;
  net::Exchange exchange = inner_->dispatch(request);
  if (tracing) tally_.add(Field::DispatchNs, monotonicNs() - start);
  count(request, exchange, 1);
  return exchange;
}

std::vector<net::Exchange> CountingTransport::dispatchBatch(
    const std::vector<net::HttpRequest>& requests) {
  if (sessions_ != nullptr && !requests.empty()) {
    sessions_->onRequest(requests.front().url.host());
  }
  const bool tracing = tally_.tracing();
  const std::uint64_t start = tracing ? monotonicNs() : 0;
  std::vector<net::Exchange> exchanges = inner_->dispatchBatch(requests);
  if (tracing) tally_.add(Field::DispatchNs, monotonicNs() - start);
  for (std::size_t i = 0; i < exchanges.size() && i < requests.size(); ++i) {
    count(requests[i], exchanges[i], 1);
  }
  return exchanges;
}

net::FetchOutcome CountingTransport::dispatchWithRetry(
    const net::HttpRequest& request, const net::RetrySpec& retry) {
  if (sessions_ != nullptr) sessions_->onRequest(request.url.host());
  const bool tracing = tally_.tracing();
  const std::uint64_t start = tracing ? monotonicNs() : 0;
  net::FetchOutcome outcome = inner_->dispatchWithRetry(request, retry);
  if (tracing) tally_.add(Field::DispatchNs, monotonicNs() - start);
  count(request, outcome.exchange, outcome.attempts);
  return outcome;
}

std::vector<server::SiteSpec> benchRoster(std::uint64_t seed) {
  std::vector<server::SiteSpec> roster = server::table1Roster();
  for (server::SiteSpec& spec : server::table2Roster()) {
    roster.push_back(std::move(spec));
  }
  for (server::SiteSpec& spec : roster) {
    spec.seed = spec.seed * 1000003ULL + seed;
  }
  return roster;
}

std::vector<std::size_t> hostOrder(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  util::Pcg32 rng(seed, 0x6f72646572ULL);
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = rng.uniform(0, static_cast<std::uint32_t>(i - 1));
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

std::shared_ptr<net::HttpHandler> timedSite(const server::SiteSpec& spec,
                                            util::SimClock& clock,
                                            Tally& tally) {
  std::shared_ptr<net::HttpHandler> site = server::buildSite(spec, clock);
  net::HttpHandler& inner = *site;
  return std::make_shared<TimedHandler>(inner, tally, std::move(site));
}

SimWorld::SimWorld(const std::vector<server::SiteSpec>& roster,
                   std::uint64_t seed, Tally& tally)
    : network(seed) {
  for (const server::SiteSpec& spec : roster) {
    network.registerHost(spec.domain, timedSite(spec, siteClock, tally),
                         spec.latencyProfile());
  }
}

namespace {

VerdictCheck judge(const std::vector<std::string>& useful,
                   const server::SiteSpec& spec) {
  VerdictCheck check;
  const std::vector<std::string> truth = spec.usefulCookieNames();
  const std::set<std::string> kept(useful.begin(), useful.end());
  check.trackers = spec.totalPersistent() - spec.totalUseful();
  for (const std::string& name : kept) {
    if (std::find(truth.begin(), truth.end(), name) == truth.end()) {
      ++check.falseUseful;
    }
  }
  for (const std::string& name : truth) {
    if (!kept.contains(name)) {
      check.problem = spec.domain + ": useful cookie " + name + " missed";
      return check;
    }
  }
  check.ok = true;
  return check;
}

}  // namespace

std::vector<std::string> usefulCookiesOf(const std::string& json) {
  std::vector<std::string> names;
  const std::string key = "\"usefulCookies\":[";
  const std::size_t begin = json.find(key);
  if (begin == std::string::npos) return names;
  const std::size_t end = json.find(']', begin);
  if (end == std::string::npos) return names;
  std::size_t pos = begin + key.size();
  while (pos < end) {
    const std::size_t open = json.find('"', pos);
    if (open == std::string::npos || open >= end) break;
    const std::size_t close = json.find('"', open + 1);
    if (close == std::string::npos || close > end) break;
    names.push_back(json.substr(open + 1, close - open - 1));
    pos = close + 1;
  }
  return names;
}

VerdictCheck checkVerdictJson(const std::string& json,
                              const server::SiteSpec& spec) {
  if (json.empty()) return {false, 0, 0, spec.domain + ": empty verdict"};
  if (json.find("\"host\":\"" + spec.domain + "\"") == std::string::npos) {
    return {false, 0, 0, spec.domain + ": verdict names another host"};
  }
  return judge(usefulCookiesOf(json), spec);
}

VerdictCheck checkFleetHost(const fleet::HostResult& result,
                            const server::SiteSpec& spec) {
  if (result.state.empty() || result.host != spec.domain) {
    return {false, 0, 0, spec.domain + ": empty fleet session"};
  }
  const cookies::CookieJar jar = cookies::CookieJar::deserialize(
      result.jarState);
  std::vector<std::string> useful;
  for (const cookies::CookieRecord* record :
       jar.persistentCookiesForHost(spec.domain)) {
    if (record->useful) useful.push_back(record->key.name);
  }
  return judge(useful, spec);
}

}  // namespace perfbench
