// Pluggable request transport.
//
// Everything above the network — the browser, the picker, the fleet —
// speaks to this interface, not to a concrete network. Two implementations
// exist:
//
//  * net::Network (the sim transport): the in-process seeded-latency
//    simulation. It answers synchronously, models latency from per-host RNG
//    streams, and leaves retry/backoff timing to the caller's virtual
//    clock — the determinism contract every byte-identity test rides on.
//  * serve::SocketTransport: real HTTP/1.1 over loopback sockets through an
//    epoll event loop, with per-host connection pools and pipelining. It
//    owns retry timing itself (attempts and backoffs run on the loop's
//    timer wheel) and reports measured wall latencies.
//
// The browser asks `ownsRetryTiming()` to decide which side runs the hidden
// fetch retry loop; the sim answer ("no") keeps the virtual-clock path
// bit-exact with the pre-transport code.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "faults/fault_plan.h"
#include "net/http.h"
#include "util/rng.h"

namespace cookiepicker::net {

// Anything that can answer HTTP requests (the server module implements it).
class HttpHandler {
 public:
  virtual ~HttpHandler() = default;
  virtual HttpResponse handle(const HttpRequest& request) = 0;
};

struct Exchange {
  HttpResponse response;
  double latencyMs = 0.0;
  std::size_t requestBytes = 0;
  std::size_t responseBytes = 0;
  // Name of the fault action the plan injected into this exchange (the
  // faults::actionName string), or nullptr for a clean exchange. Transport
  // failures (connection-drop, timeout) additionally report status 0.
  const char* injectedFault = nullptr;
};

// Hidden-fetch retry settings, as both retry loops read them: the
// browser's virtual-clock loop and the transports that run the loop
// themselves. The browser keeps one for its session and hands it to
// dispatchWithRetry as is. `retryBudget` is the *remaining* session budget —
// at most that many attempts beyond each first try — and the browser counts
// it down as retries are spent.
struct RetrySpec {
  int maxAttempts = 1;
  double initialBackoffMs = 400.0;
  double backoffMultiplier = 2.0;
  double maxBackoffMs = 6400.0;
  double jitterFraction = 0.25;
  std::uint64_t retryBudget = 0;
};

// What a transport-owned retrying fetch reports back.
struct FetchOutcome {
  Exchange exchange;          // the final attempt
  int attempts = 1;           // dispatches issued (1 = clean first try)
  int retriesUsed = 0;        // attempts beyond the first actually spent
  double totalLatencyMs = 0.0;  // every attempt's round trip plus backoffs
  bool degraded = false;      // every allowed attempt failed
  bool budgetExhausted = false;  // a retry was forgone: retryBudget was empty
  std::string failureReason;  // empty when the final attempt is usable
};

// The wait before retry number `attempt + 1` (attempt 0 is the first try):
// initialBackoffMs * backoffMultiplier^attempt, capped at maxBackoffMs, then
// scaled by (1 ± jitterFraction) with exactly one rng.uniform01() draw.
// The one backoff formula; both retry loops call it.
double backoffMs(const RetrySpec& spec, int attempt, util::Pcg32& rng);

// Why a fetched response cannot be used as-is, or empty if it can: status 0
// names the transport failure via statusText, 5xx reports "http-NNN", and a
// body shorter than its declared Content-Length reports "truncated-body".
// Shared by the browser's virtual-clock retry loop and the socket client's
// wheel-driven one, so both sides classify identically.
std::string fetchFailureReason(const HttpResponse& response);
// A body shorter than its declared Content-Length — the signature a
// mid-transfer truncation leaves behind.
bool bodyTruncated(const HttpResponse& response);

// --- fault effects both transports share -----------------------------------
// A faults::FaultPlanSlot picks the rule; each transport keeps only its own
// wire effect for the short-circuit actions (a status-0 exchange in the
// sim, a closed or parked connection on a socket).

// The status-0 reasons a failed exchange names in its statusText.
inline constexpr char kConnectionDropped[] = "connection dropped";
inline constexpr char kTimedOut[] = "timeout";

// The fault scope a request kind is scheduled under.
faults::Scope faultScope(RequestKind kind);
// Actions that answer in place of the handler, which never runs.
bool shortCircuits(faults::Action action);
// A host's fault (and, in the sim, latency) stream: forked from the
// transport seed and keyed by host name, so its draws depend only on the
// requests sent to that host.
util::Pcg32 hostStream(std::uint64_t seed, std::string_view host);
// The page a server-error fault answers with.
HttpResponse serverErrorPage(int status);
// The corrupt-set-cookie effect: garbles every Set-Cookie value with draws
// from `rng`, moving the headers to the end in their order. Returns false,
// drawing nothing, when the response sets no cookie.
bool corruptSetCookies(HttpResponse& response, util::Pcg32& rng);

class Transport {
 public:
  virtual ~Transport() = default;

  // One request, one response. Blocking; safe to call concurrently.
  virtual Exchange dispatch(const HttpRequest& request) = 0;

  // A batch of independent requests. The default runs them sequentially in
  // order — exactly the draws and side effects of a caller-side loop, so
  // the sim stays byte-identical. Socket transports override this to issue
  // the batch as pipelined async fetches over pooled connections; results
  // still come back in request order.
  virtual std::vector<Exchange> dispatchBatch(
      const std::vector<HttpRequest>& requests) {
    std::vector<Exchange> exchanges;
    exchanges.reserve(requests.size());
    for (const HttpRequest& request : requests) {
      exchanges.push_back(dispatch(request));
    }
    return exchanges;
  }

  // True when the transport runs retry/backoff itself (on its event loop's
  // timer wheel). The sim answers false: there the browser owns the retry
  // loop and charges backoffs to the virtual clock, bit-exactly as before
  // the transport seam existed.
  virtual bool ownsRetryTiming() const { return false; }

  // Multi-attempt fetch for transports that own retry timing. The default
  // (never reached through the browser, which checks ownsRetryTiming()
  // first) degrades to a single attempt.
  virtual FetchOutcome dispatchWithRetry(const HttpRequest& request,
                                         const RetrySpec& retry) {
    (void)retry;
    FetchOutcome outcome;
    outcome.exchange = dispatch(request);
    outcome.totalLatencyMs = outcome.exchange.latencyMs;
    outcome.failureReason = fetchFailureReason(outcome.exchange.response);
    outcome.degraded = !outcome.failureReason.empty();
    return outcome;
  }
};

}  // namespace cookiepicker::net
