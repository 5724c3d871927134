#include "net/network.h"

#include <chrono>
#include <thread>

#include "obs/recorder.h"
#include "util/strings.h"

namespace cookiepicker::net {

LatencyProfile LatencyProfile::fast() {
  // Fast, CDN-like sites: the quick end of Table 1 (~0.5 s durations).
  LatencyProfile profile;
  profile.baseRttMs = 150.0;
  profile.perKilobyteMs = 8.0;
  profile.jitterMu = 5.3;   // exp(5.3) ≈ 200 ms median extra
  profile.jitterSigma = 0.5;
  return profile;
}

LatencyProfile LatencyProfile::typical() {
  // Calibrated against the paper's Table 1: typical sites showed
  // CookiePicker durations (≈ one container round trip) between ~0.5 s and
  // ~5 s, averaging ~2.7 s — 2007-era servers and last miles.
  LatencyProfile profile;
  profile.baseRttMs = 450.0;
  profile.perKilobyteMs = 35.0;
  profile.jitterMu = 6.6;   // exp(6.6) ≈ 735 ms median extra
  profile.jitterSigma = 0.7;
  return profile;
}

LatencyProfile LatencyProfile::slow() {
  LatencyProfile profile;
  profile.baseRttMs = 900.0;
  profile.perKilobyteMs = 70.0;
  profile.jitterMu = 6.8;
  profile.jitterSigma = 0.8;
  profile.stallProbability = 0.55;
  profile.stallMs = 8000.0;
  return profile;
}

double LatencyProfile::sampleMs(util::Pcg32& rng,
                                std::size_t responseBytes) const {
  double latency = baseRttMs;
  latency += perKilobyteMs * (static_cast<double>(responseBytes) / 1024.0);
  latency += rng.logNormal(jitterMu, jitterSigma);
  if (stallProbability > 0.0 && rng.chance(stallProbability)) {
    latency += stallMs * (0.75 + 0.5 * rng.uniform01());
  }
  return latency;
}

void Network::registerHost(const std::string& host,
                           std::shared_ptr<HttpHandler> handler,
                           LatencyProfile profile) {
  const std::string key = util::toLowerAscii(host);
  auto entry = std::make_unique<HostEntry>();
  entry->handler = std::move(handler);
  entry->profile = profile;
  // Keyed by host name so the stream survives re-registration and does not
  // depend on registration order.
  entry->rng = hostStream(seed_, key);
  std::unique_lock lock(registryMutex_);
  hosts_[key] = std::move(entry);
}

namespace {

obs::Counter counterForAction(faults::Action action) {
  switch (action) {
    case faults::Action::ServerError: return obs::Counter::FaultServerErrors;
    case faults::Action::ConnectionDrop:
      return obs::Counter::FaultConnectionDrops;
    case faults::Action::Timeout: return obs::Counter::FaultTimeouts;
    case faults::Action::TruncateBody:
      return obs::Counter::FaultTruncatedBodies;
    case faults::Action::CorruptSetCookie:
      return obs::Counter::FaultCorruptedSetCookies;
    case faults::Action::SlowDrip: return obs::Counter::FaultSlowDrips;
  }
  return obs::Counter::FaultServerErrors;
}

}  // namespace

void Network::recordInjectedFault(Exchange& exchange, faults::Action action) {
  exchange.injectedFault = faults::actionName(action);
  injectedFailures_.fetch_add(1, std::memory_order_relaxed);
  obs::count(obs::Counter::NetworkFailuresInjected);
  obs::count(counterForAction(action));
}

Exchange Network::dispatch(const HttpRequest& request) {
  Exchange exchange;
  exchange.requestBytes = wireSize(request);

  HostEntry* entry = nullptr;
  {
    std::shared_lock lock(registryMutex_);
    const auto it = hosts_.find(request.url.host());
    if (it != hosts_.end()) entry = it->second.get();
  }

  if (entry == nullptr) {
    exchange.response = HttpResponse::notFound(request.url.toString());
    // Stateless per-request stream keyed by (host, path): unknown-host
    // latency is a pure function of the request, so concurrent sessions
    // probing the same missing host cannot perturb each other.
    util::Pcg32 rng(seed_ ^ util::fnv1a64(request.url.host()),
                    util::fnv1a64(request.url.path()));
    exchange.latencyMs =
        LatencyProfile::fast().sampleMs(rng, exchange.response.body.size());
    exchange.responseBytes = wireSize(exchange.response);
  } else {
    std::lock_guard lock(entry->mutex);
    const faults::FiredRule fault = faultPlan_.evaluate(
        entry->faultState, request.url.host(), faultScope(request.kind),
        request.attempt == 0, entry->rng);
    if (fault && shortCircuits(fault->action)) {
      recordInjectedFault(exchange, fault->action);
      double extraLatencyMs = 0.0;
      if (fault->action == faults::Action::ServerError) {
        exchange.response = serverErrorPage(fault->status);
      } else {
        // A drop and a timeout answer status 0 with no body; a timeout
        // also waits out the full virtual deadline, so it costs clock
        // time, unlike a drop.
        const bool timedOut = fault->action == faults::Action::Timeout;
        exchange.response.status = 0;
        exchange.response.statusText =
            timedOut ? kTimedOut : kConnectionDropped;
        if (timedOut) extraLatencyMs = fault->extraLatencyMs;
      }
      exchange.latencyMs = entry->profile.sampleMs(
                               entry->rng, exchange.response.body.size()) +
                           extraLatencyMs;
      exchange.responseBytes = wireSize(exchange.response);
    } else {
      exchange.response = entry->handler->handle(request);
      double extraLatencyMs = 0.0;
      if (fault) {
        switch (fault->action) {
          case faults::Action::TruncateBody:
            // Only an actual cut counts as injected; Content-Length keeps
            // the original size (our handlers never set it) so consumers
            // can detect the truncation the way a real client would.
            if (exchange.response.body.size() > fault->truncateAtBytes) {
              exchange.response.headers.set(
                  "Content-Length",
                  std::to_string(exchange.response.body.size()));
              exchange.response.body.resize(fault->truncateAtBytes);
              recordInjectedFault(exchange, fault->action);
            }
            break;
          case faults::Action::CorruptSetCookie:
            if (corruptSetCookies(exchange.response, entry->rng)) {
              recordInjectedFault(exchange, fault->action);
            }
            break;
          case faults::Action::SlowDrip:
            extraLatencyMs = fault->extraLatencyMs;
            recordInjectedFault(exchange, fault->action);
            break;
          default:
            break;
        }
      }
      // Sized once: latency sampling and the byte bill read the same
      // number.
      exchange.responseBytes = wireSize(exchange.response);
      exchange.latencyMs =
          entry->profile.sampleMs(entry->rng, exchange.responseBytes) +
          exchange.response.serverProcessingMs + extraLatencyMs;
    }
  }

  totalRequests_.fetch_add(1, std::memory_order_relaxed);
  totalBytes_.fetch_add(exchange.requestBytes + exchange.responseBytes,
                        std::memory_order_relaxed);
  obs::count(obs::Counter::NetworkRequests);
  obs::count(obs::Counter::NetworkBytes,
             exchange.requestBytes + exchange.responseBytes);

  const double scale = wallLatencyScale_.load(std::memory_order_relaxed);
  if (scale > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(exchange.latencyMs * scale));
  }
  return exchange;
}

}  // namespace cookiepicker::net
