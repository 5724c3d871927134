// Simulated web browser.
//
// Implements the page-load pipeline of Figure 1: the container-page request
// (1)/(2), parsing the container into its detection snapshot, and the
// follow-up object requests — plus the extension hooks CookiePicker needs:
// the hidden request (3)/(4) that refetches only the container page with a
// group of persistent cookies stripped, and a pluggable filter that
// suppresses blocked cookies on outgoing regular requests.
//
// Both copies of a page go through one parser, html::StreamingSnapshot-
// Builder (Section 3.2): the tokenizer feeds the snapshot rows directly and
// no node tree is ever built. A page view no comparison is expected to read
// is only scanned for its subresources; snapshotOf builds its snapshot from
// the retained HTML if a comparison needs it after all.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "cookies/jar.h"
#include "cookies/policy.h"
#include "html/stream_snapshot.h"
#include "net/transport.h"
#include "browser/page.h"
#include "provenance/taint.h"
#include "util/clock.h"
#include "util/rng.h"

namespace cookiepicker::browser {

// User think time between page views. Mah's empirical HTTP traffic model
// [12] gives heavy-tailed think times with means above 10 seconds; we use a
// log-normal fit with a floor. The FORCUM process runs inside this window.
class ThinkTimeModel {
 public:
  explicit ThinkTimeModel(double medianSeconds = 12.0,
                          double sigma = 0.9,
                          double floorSeconds = 1.0);
  double sampleMs(util::Pcg32& rng) const;

 private:
  double mu_;
  double sigma_;
  double floorMs_;
};

struct HiddenFetchResult {
  // Flattened detection view of the response body, always built at parse
  // time: a hidden copy exists only to be compared.
  std::shared_ptr<const dom::TreeSnapshot> snapshot;
  std::string html;
  // Provenance map for `html`, mirroring PageView::provenance. Null unless
  // the browser opted in and the origin's header decoded cleanly — degraded
  // or truncated responses typically lose it, which attribution treats as
  // "no taint data" rather than guessing.
  std::shared_ptr<const provenance::ProvenanceMap> provenance;
  // Total virtual time spent: every attempt's round trip plus backoffs.
  double latencyMs = 0.0;
  int status = 0;
  // Names of the persistent cookies that were stripped from the request —
  // the "group of cookies whose usefulness will be tested" (Section 3.2).
  std::vector<cookies::CookieKey> strippedCookies;
  // Dispatches issued for this fetch (1 = clean first try).
  int attempts = 0;
  // The final response body arrived shorter than its Content-Length.
  bool truncated = false;
  // Every allowed attempt failed; `snapshot` and `html` hold whatever the
  // last attempt returned (an error page, a truncated body, or nothing) and
  // must not be compared against the regular copy.
  bool degraded = false;
  std::string degradedReason;  // e.g. "connection-drop", "http-503"

  // True when the result is safe to feed into a FORCUM comparison.
  bool usable() const { return status == 200 && !degraded; }
};

class Browser {
 public:
  Browser(net::Transport& transport, util::SimClock& clock,
          cookies::CookiePolicy policy = cookies::CookiePolicy::recommended(),
          std::uint64_t seed = 11);

  // Full page view: follows redirects (bounded), stores cookies per policy,
  // builds the container's snapshot, fetches embedded objects. Advances the
  // simulated clock by the load time. With `buildSnapshot` false, the visit
  // only scans the container for its subresources and leaves
  // PageView::snapshot null.
  PageView visit(const net::Url& url, bool buildSnapshot = true);
  PageView visit(const std::string& url);

  // The view's detection snapshot: PageView::snapshot, or one built now
  // from the retained containerHtml and the view's provenance map when the
  // visit skipped it (each such call builds again).
  std::shared_ptr<const dom::TreeSnapshot> snapshotOf(const PageView& view);

  // The hidden request of Section 3.1: same URI and headers as the saved
  // container request, with persistent cookies matching `excludePersistent`
  // removed from the Cookie header. Fetches the container page only, follows
  // no redirects, triggers no object loads, and ignores Set-Cookie headers
  // (it must not perturb the jar the regular session uses). Advances the
  // clock by its round-trip latency (it runs during think time, so this
  // costs the user nothing).
  HiddenFetchResult hiddenFetch(
      const PageView& view,
      const std::function<bool(const cookies::CookieRecord&)>&
          excludePersistent);

  // Installed by CookiePicker once training ends: persistent cookies for
  // which the filter returns true are withheld from regular requests
  // ("no longer be transmitted to the corresponding Web site").
  void setPersistentSendFilter(
      std::function<bool(const cookies::CookieRecord&)> filter) {
    sendOptions_.excludePersistentIf = std::move(filter);
  }
  void clearPersistentSendFilter() {
    sendOptions_.excludePersistentIf = nullptr;
  }

  // Simulates the user pausing between page views; advances the clock.
  double think();

  // Opt into per-cookie taint data: container and hidden requests carry
  // X-Want-Provenance, response maps are decoded onto PageView /
  // HiddenFetchResult, and streaming snapshots get taint-stamped rows.
  // Off (the default) leaves every request and snapshot byte-identical to a
  // provenance-free build.
  void setWantProvenance(bool want) { wantProvenance_ = want; }
  bool wantProvenance() const { return wantProvenance_; }

  // How hiddenFetch responds to transport failures (connection drops,
  // timeouts, 5xx, truncated bodies). Backoff is exponential over the
  // *virtual* clock with deterministic jitter drawn from the session RNG, so
  // a faulty run replays byte-identically; a fault-free run draws nothing
  // extra and behaves exactly as if no retry layer existed. `retryBudget`
  // is what the session has left: both retry loops count it down as they
  // spend retries, and once it is empty a hidden fetch degrades after its
  // first failed attempt instead of hammering a host that is clearly down.
  void setHiddenRetrySpec(const net::RetrySpec& spec) { hiddenRetry_ = spec; }
  const net::RetrySpec& hiddenRetrySpec() const { return hiddenRetry_; }
  // Retries spent so far across the session.
  std::uint64_t hiddenRetriesUsed() const { return hiddenRetriesUsed_; }
  // Hidden fetches this browser actually dispatched (a fetch retried after
  // a transport fault counts once) — unlike FORCUM's per-host
  // hiddenRequests counter, which a warm session imports from the crowd.
  std::uint64_t hiddenRequestsSent() const { return hiddenRequestsSent_; }

  cookies::CookieJar& jar() { return jar_; }
  const cookies::CookieJar& jar() const { return jar_; }
  util::SimClock& clock() { return clock_; }
  const cookies::CookiePolicy& policy() const { return policy_; }

  // Total subresource fetches issued (object requests), for overhead
  // accounting against the Doppelganger baseline.
  std::uint64_t objectRequestCount() const { return objectRequests_; }

  static constexpr int kMaxRedirects = 5;
  // 2007-era browsers opened a handful of parallel connections per host;
  // object fetch wall time is modeled as ceil(n / parallelism) batches.
  static constexpr int kParallelConnections = 4;

 private:
  // The issue half of a hidden fetch: the request with the tested cookie
  // group stripped, ready to dispatch, plus the group's resolved keys.
  struct HiddenFetchPlan {
    net::HttpRequest request;
    std::vector<cookies::CookieKey> strippedCookies;
  };

  // Builds the cookie-stripped request without dispatching it. Resolves
  // the tested group against the live jar, so call it at the clock time the
  // fetch should see.
  HiddenFetchPlan planHiddenFetch(
      const PageView& view,
      const std::function<bool(const cookies::CookieRecord&)>&
          excludePersistent);

  // Completion half: builds the final attempt's snapshot into a
  // HiddenFetchResult and advances the clock by that attempt's round trip
  // (earlier attempts and backoffs must already be accounted —
  // `latencySoFarMs` carries them into the result's total). Takes the
  // exchange by value so the body moves into the result uncopied.
  HiddenFetchResult completeHiddenFetch(HiddenFetchPlan plan,
                                        net::Exchange finalExchange,
                                        int attempts, double latencySoFarMs,
                                        bool degraded,
                                        std::string degradedReason);

  net::HttpRequest buildRequest(
      const net::Url& url, const net::Url& documentUrl,
      net::RequestKind kind = net::RequestKind::Container);
  void storeResponseCookies(const net::HttpResponse& response,
                            const net::Url& requestUrl,
                            const net::Url& documentUrl);
  std::vector<net::Url> resolveSubresources(const html::StreamPageInfo& page,
                                            const net::Url& documentUrl) const;
  // Decodes X-Cookie-Provenance when wantProvenance_ is set; null on absent
  // or malformed headers (strict parse — a torn map is worthless).
  std::shared_ptr<const provenance::ProvenanceMap> extractProvenance(
      const net::HttpResponse& response) const;

  net::Transport& transport_;
  util::SimClock& clock_;
  const cookies::CookiePolicy policy_;
  cookies::CookieJar jar_;
  util::Pcg32 rng_;
  ThinkTimeModel thinkTime_;
  // What a first-party (or any, when third-party cookies are accepted)
  // request sends: everything but what the persistent send filter holds
  // back.
  cookies::SendOptions sendOptions_;
  bool wantProvenance_ = false;
  // Retained across page loads: its scratch (token buffers, open stack,
  // per-tag info cache) makes steady-state builds allocation-light.
  html::StreamingSnapshotBuilder streamBuilder_;
  std::uint64_t objectRequests_ = 0;
  net::RetrySpec hiddenRetry_{.maxAttempts = 3, .retryBudget = 256};
  std::uint64_t hiddenRetriesUsed_ = 0;
  std::uint64_t hiddenRequestsSent_ = 0;
};

}  // namespace cookiepicker::browser
