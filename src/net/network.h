// In-process simulated network.
//
// Replaces the live internet of the paper's evaluation: servers register by
// host name, requests are dispatched synchronously, and a per-server latency
// model reports how long each exchange *would* have taken. Callers (the
// browser) advance the simulated clock by that amount, so timing results are
// deterministic functions of the RNG seed.
//
// Thread safety: `dispatch` may be called concurrently from many browser
// sessions (the fleet layer). The host registry is guarded by a shared
// mutex (register before spawning workers for best throughput), each host's
// handler + latency RNG is serialized by a per-host mutex, and the traffic
// counters are atomic. Latency randomness is drawn from *per-host* RNG
// streams forked from the network seed and keyed by host name, so the
// latency sequence a host serves depends only on the requests sent to that
// host — never on how requests to different hosts interleave. That is the
// invariant that keeps fleet results byte-identical across worker counts.
//
// Fault injection: a faults::FaultPlanSlot evaluated under the host's lock
// picks the rule; its effects are the ones net/transport.h shares with the
// socket origin tier, plus the sim's own wire effect, a status-0 exchange.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>

#include "faults/fault_engine.h"
#include "faults/fault_plan.h"
#include "net/http.h"
#include "net/transport.h"
#include "util/rng.h"

namespace cookiepicker::net {

// How long a request/response exchange takes, modeled as
//   rtt + perKilobyte * (bytes/1024) + lognormal jitter,
// optionally with a heavy "stall" tail (the paper's S4/S17/S28 sites showed
// ~10 s identification durations caused by very slow responses).
struct LatencyProfile {
  double baseRttMs = 80.0;
  double perKilobyteMs = 8.0;
  double jitterMu = 4.0;       // lognormal location (exp(4) ≈ 55 ms median)
  double jitterSigma = 0.6;
  double stallProbability = 0.0;  // chance of an extra multi-second stall
  double stallMs = 8000.0;

  static LatencyProfile fast();
  static LatencyProfile typical();
  static LatencyProfile slow();  // the S4/S17/S28-style profile

  double sampleMs(util::Pcg32& rng, std::size_t responseBytes) const;
};

class Network : public Transport {
 public:
  explicit Network(std::uint64_t seed = 7) : seed_(seed) {}

  // Registers a handler for a host (exact match, lowercase).
  void registerHost(const std::string& host,
                    std::shared_ptr<HttpHandler> handler,
                    LatencyProfile profile = LatencyProfile::typical());

  // Dispatches a request to the host's handler. Unknown hosts get a
  // synthetic 404 with fast latency (a resolver failure would be faster
  // still; indistinguishable for our purposes). Safe to call concurrently;
  // requests to the same host serialize on that host's lock.
  Exchange dispatch(const HttpRequest& request) override;

  // Fault injection: installs a schedule of faults evaluated per request to
  // *known* hosts (unknown hosts already fail with their synthetic 404).
  // Every probabilistic gate draws from the host's forked RNG stream, so a
  // faulty run is as reproducible as a clean one. nullptr (or an empty
  // plan) disables injection. Installing a plan resets the per-host
  // schedule cursors; safe to call between or during runs.
  void setFaultPlan(std::shared_ptr<const faults::FaultPlan> plan) {
    faultPlan_.install(std::move(plan));
  }

  std::uint64_t injectedFailures() const {
    return injectedFailures_.load(std::memory_order_relaxed);
  }

  // Wall-latency emulation: when scale > 0, dispatch() additionally sleeps
  // for latencyMs * scale of *host* time, turning the simulated wait into a
  // real one. Results are unaffected (the simulated clock still advances by
  // the full latency); only wall time changes. The fleet scaling benchmark
  // uses this to reproduce the network-bound regime of a real crawl, where
  // extra workers win by overlapping waits.
  void setWallLatencyScale(double scale) {
    wallLatencyScale_.store(scale, std::memory_order_relaxed);
  }

  // --- accounting (reset per experiment as needed) ---
  //
  // Ordering contract: the three traffic counters are independent relaxed
  // atomics. Each individual read/reset is race-free (TSan-clean), but the
  // *set* is not updated atomically with respect to a dispatch in flight: a
  // reader racing a dispatch may see the request counted and its bytes not
  // yet added (dispatch bumps requests first), and a resetCounters() racing
  // a dispatch may zero one counter before the other is bumped, leaving
  // e.g. bytes > 0 with requests == 0. Callers that need a coherent
  // cross-counter view (the overhead benchmarks, per-experiment deltas)
  // must quiesce dispatch first; snapshotCounters() documents the same
  // caveat in API form and reads all three in one call.
  struct TrafficCounters {
    std::uint64_t requests = 0;
    std::uint64_t bytes = 0;
    std::uint64_t injectedFailures = 0;
  };
  // One relaxed read of each counter. Coherent only while no dispatch is in
  // flight; mid-run values are per-counter accurate but mutually skewed by
  // at most the requests currently inside dispatch().
  TrafficCounters snapshotCounters() const {
    TrafficCounters counters;
    counters.requests = totalRequests_.load(std::memory_order_relaxed);
    counters.bytes = totalBytes_.load(std::memory_order_relaxed);
    counters.injectedFailures =
        injectedFailures_.load(std::memory_order_relaxed);
    return counters;
  }
  std::uint64_t totalRequests() const {
    return totalRequests_.load(std::memory_order_relaxed);
  }
  std::uint64_t totalBytesTransferred() const {
    return totalBytes_.load(std::memory_order_relaxed);
  }
  // Zeroes requests and bytes (not injectedFailures, whose consumers track
  // lifetime totals across failure-injection experiments). Safe to call
  // concurrently with dispatch — each store is atomic — but see the
  // ordering contract above for what a concurrent reader may observe.
  void resetCounters() {
    totalRequests_.store(0, std::memory_order_relaxed);
    totalBytes_.store(0, std::memory_order_relaxed);
  }

 private:
  // Annotates an exchange with the injected action and bumps the lifetime
  // failure counter plus the per-action obs counters.
  void recordInjectedFault(Exchange& exchange, faults::Action action);

  struct HostEntry {
    std::shared_ptr<HttpHandler> handler;
    LatencyProfile profile;
    // Per-host latency and fault stream (net::hostStream), advanced only
    // by requests to this host.
    util::Pcg32 rng;
    // Fault-schedule cursors for this host (logical indices, flap phases);
    // mutated under the host lock only.
    faults::HostFaultState faultState;
    // Serializes handler invocation and RNG draws for this host.
    std::mutex mutex;
  };

  std::map<std::string, std::unique_ptr<HostEntry>> hosts_;
  mutable std::shared_mutex registryMutex_;
  std::uint64_t seed_;
  std::atomic<std::uint64_t> totalRequests_{0};
  std::atomic<std::uint64_t> totalBytes_{0};
  std::atomic<std::uint64_t> injectedFailures_{0};
  std::atomic<double> wallLatencyScale_{0.0};
  faults::FaultPlanSlot faultPlan_;
};

}  // namespace cookiepicker::net
