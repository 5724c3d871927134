// Verdict benchmark harness.
//
// Everything the benchmark puts around the program lives here, outside
// src/: the roster and sim world it builds, the wrappers it slips into the
// program's public seams (net::HttpHandler around each origin site,
// net::Transport around the session's transport), the CPU clocks, the
// ground-truth verdict checks, and the statistics helpers.
//
// The wrappers always count (a few relaxed atomic adds per request) and
// read the wall clock only while tracing is switched on, so an untraced run
// pays for counting but not for timing.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fleet/fleet.h"
#include "net/network.h"
#include "net/transport.h"
#include "server/generator.h"
#include "util/clock.h"

namespace perfbench {

namespace cookies = cookiepicker::cookies;
namespace fleet = cookiepicker::fleet;
namespace net = cookiepicker::net;
namespace server = cookiepicker::server;
namespace util = cookiepicker::util;

std::uint64_t monotonicNs();

// CPU time of the calling thread, and of the whole process. Time the
// hypervisor takes from this guest (steal) is not in either.
std::uint64_t threadCpuNs();
std::uint64_t processCpuNs();

// CPU microseconds the calling thread takes for a fixed piece of work that
// touches memory much as a verdict does: dependent loads over a 2 MiB
// table (walked once untimed to bring it into cache), mixed with
// arithmetic. It reads the same whatever the program does, so repeated
// between measurements it tells how fast the host runs this guest at the
// time. On a shared host that speed flips between modes for seconds at a
// time; in the slow mode this probe takes about twice as long.
double hostProbeUs();

// --- statistics -------------------------------------------------------------

// Nearest-rank percentile (0 < percentile <= 100): the sample at rank
// ceil(percentile/100 * n) of the sorted samples. Refuses (nullopt) when
// fewer than `minBeyond` samples lie above that rank, so a reported tail
// percentile always rests on at least that many slower samples.
std::optional<double> nearestRank(std::vector<double> samples,
                                  double percentile,
                                  std::size_t minBeyond = 10);

double median(std::vector<double> values);

// The items (slices of a run) measured while the host was calm, as
// ascending indices: every item whose host probe `probeUs[i]` is at most
// `calmUs`, then, while the kept items' summed `weight` is below
// `minWeight`, the next calmest. The choice rests on the probes alone,
// never on what the items measured.
std::vector<std::size_t> calmItems(const std::vector<double>& probeUs,
                                   const std::vector<double>& weight,
                                   double calmUs, double minWeight);

// --- wrapper tallies --------------------------------------------------------

enum class Field : std::uint8_t {
  RenderNs,          // origin handler time (server layer)
  ResponseBytes,     // rendered response body bytes
  DispatchNs,        // transport wrapper time (includes nested renders)
  Dispatches,        // requests sent, every attempt counted
  HiddenDispatches,  // RequestKind::Hidden requests sent
  WireBytes,         // request + response wire bytes, as the transport saw
  kCount,
};
inline constexpr std::size_t kFieldCount =
    static_cast<std::size_t>(Field::kCount);

struct TallySnapshot {
  std::array<std::uint64_t, kFieldCount> values{};

  std::uint64_t operator[](Field field) const {
    return values[static_cast<std::size_t>(field)];
  }
  // Field-wise difference; `earlier` must be a snapshot of the same tally.
  TallySnapshot since(const TallySnapshot& earlier) const;
  TallySnapshot& operator+=(const TallySnapshot& other);
};

// Shared by every wrapper of one benchmark stack. Safe to record into from
// any thread (the fleet's workers).
class Tally {
 public:
  void add(Field field, std::uint64_t delta) {
    values_[static_cast<std::size_t>(field)].fetch_add(
        delta, std::memory_order_relaxed);
  }
  TallySnapshot snapshot() const;

  bool tracing() const { return tracing_.load(std::memory_order_relaxed); }
  void setTracing(bool on) { tracing_.store(on, std::memory_order_relaxed); }

 private:
  std::array<std::atomic<std::uint64_t>, kFieldCount> values_{};
  std::atomic<bool> tracing_{false};
};

// --- wrappers ---------------------------------------------------------------

// Times and counts calls into an origin site (server layer). `owner`, when
// given, keeps the wrapped handler alive for the wrapper's lifetime.
class TimedHandler : public net::HttpHandler {
 public:
  TimedHandler(net::HttpHandler& inner, Tally& tally,
               std::shared_ptr<net::HttpHandler> owner = nullptr);

  net::HttpResponse handle(const net::HttpRequest& request) override;

 private:
  net::HttpHandler& inner_;
  std::shared_ptr<net::HttpHandler> owner_;
  Tally& tally_;
};

// CPU time per host session of a fleet run on the calling thread, where
// the fleet's inline path (one worker) runs the sessions one after
// another. A session is told apart by its requests' host; its time runs
// from its first request to the next session's first request, or to
// finish(). So each session is charged the set-up of the session after it
// instead of its own.
class SessionCpu {
 public:
  // Called for every request, on the thread that runs the sessions.
  void onRequest(const std::string& host);
  // Closes the open session and returns the CPU ms of every session since
  // the last call.
  std::vector<double> finish();

 private:
  std::string host_;  // of the open session; empty when none is open
  std::uint64_t startNs_ = 0;
  std::vector<double> closedMs_;
};

// Counts (and, while tracing, times) every request the session sends,
// forwarding to the real transport. The inner transport may be swapped
// between passes, never while a dispatch is in flight.
class CountingTransport : public net::Transport {
 public:
  explicit CountingTransport(Tally& tally, net::Transport* inner = nullptr)
      : tally_(tally), inner_(inner) {}
  void setInner(net::Transport* inner) { inner_ = inner; }
  // Reports every request's host to `sessions` (null: no one).
  void setSessionCpu(SessionCpu* sessions) { sessions_ = sessions; }

  net::Exchange dispatch(const net::HttpRequest& request) override;
  std::vector<net::Exchange> dispatchBatch(
      const std::vector<net::HttpRequest>& requests) override;
  bool ownsRetryTiming() const override { return inner_->ownsRetryTiming(); }
  net::FetchOutcome dispatchWithRetry(const net::HttpRequest& request,
                                      const net::RetrySpec& retry) override;

 private:
  void count(const net::HttpRequest& request, const net::Exchange& exchange,
             int attempts);

  Tally& tally_;
  net::Transport* inner_;
  SessionCpu* sessions_ = nullptr;
};

// --- roster and sim world ---------------------------------------------------

// table1Roster() + table2Roster(): 36 hosts with every useful-cookie
// mechanism, slow sites and noisy sites. `seed` varies the page content
// streams (SiteSpec::seed); cookie inventories, and so ground truth, stay.
std::vector<server::SiteSpec> benchRoster(std::uint64_t seed);

// A seeded permutation of 0..n-1: the round-robin order verdicts visit the
// roster in.
std::vector<std::size_t> hostOrder(std::size_t n, std::uint64_t seed);

// Fresh origins for one pass over the sim transport: every roster site,
// wrapped in a TimedHandler, registered on a new seeded Network. A new world
// per pass keeps every pass's verdicts identical for one seed.
struct SimWorld {
  SimWorld(const std::vector<server::SiteSpec>& roster,
           std::uint64_t seed, Tally& tally);

  util::SimClock siteClock;  // never advanced, as in serve
  net::Network network;
};

// Wraps each roster site for registration with an origin (sim or socket).
std::shared_ptr<net::HttpHandler> timedSite(
    const server::SiteSpec& spec,
    util::SimClock& clock, Tally& tally);

// --- verdict checks ---------------------------------------------------------

struct VerdictCheck {
  bool ok = false;
  int falseUseful = 0;  // ground-truth trackers the verdict keeps useful
  int trackers = 0;     // ground-truth trackers of the host
  std::string problem;  // why !ok
};

// A /verdict JSON body (VerdictService::runVerdict): non-empty, for the
// right host, and its usefulCookies list holds every ground-truth useful
// cookie.
VerdictCheck checkVerdictJson(const std::string& json,
                              const server::SiteSpec& spec);

// The same check on a fleet session: its jar keeps every ground-truth
// useful cookie marked useful.
VerdictCheck checkFleetHost(const fleet::HostResult& result,
                            const server::SiteSpec& spec);

// Names in the "usefulCookies" array of a verdict body (empty if absent).
std::vector<std::string> usefulCookiesOf(const std::string& json);

}  // namespace perfbench
