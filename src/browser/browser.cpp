#include "browser/browser.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <set>

#include "obs/recorder.h"
#include "util/log.h"
#include "util/strings.h"

namespace cookiepicker::browser {

ThinkTimeModel::ThinkTimeModel(double medianSeconds, double sigma,
                               double floorSeconds)
    : mu_(std::log(medianSeconds * 1000.0)),
      sigma_(sigma),
      floorMs_(floorSeconds * 1000.0) {}

double ThinkTimeModel::sampleMs(util::Pcg32& rng) const {
  return std::max(floorMs_, rng.logNormal(mu_, sigma_));
}

Browser::Browser(net::Transport& transport, util::SimClock& clock,
                 cookies::CookiePolicy policy, std::uint64_t seed)
    : transport_(transport),
      clock_(clock),
      policy_(policy),
      rng_(seed, /*sequence=*/0x62726f77UL) {}

net::HttpRequest Browser::buildRequest(const net::Url& url,
                                       const net::Url& documentUrl,
                                       net::RequestKind kind) {
  net::HttpRequest request;
  request.method = "GET";
  request.url = url;
  request.kind = kind;
  // The fixed lines in wire order, then the cookies: appended, never
  // looked up, into room for all four.
  request.headers.reserve(4);
  request.headers.add("User-Agent", "CookiePickerSim/1.0 (Firefox/1.5 model)");
  request.headers.add("Accept", "text/html,*/*");
  // Container documents only: subresources carry no markup to attribute,
  // and the header must stay off the wire entirely when provenance is off.
  if (wantProvenance_ && kind != net::RequestKind::Subresource) {
    request.headers.add(provenance::kWantProvenanceHeader, "1");
  }

  // Third-party cookies disabled: send none to third-party hosts.
  static const cookies::SendOptions kSendNone{.includeSession = false,
                                              .includePersistent = false,
                                              .excludePersistentIf = nullptr};
  const bool firstParty = cookies::isFirstParty(url, documentUrl);
  const cookies::SendOptions& options =
      !firstParty && !policy_.acceptThirdParty ? kSendNone : sendOptions_;
  std::string cookieHeader = jar_.cookieHeaderFor(url, clock_.nowMs(), options);
  if (!cookieHeader.empty()) {
    request.headers.add("Cookie", std::move(cookieHeader));
  }
  return request;
}

void Browser::storeResponseCookies(const net::HttpResponse& response,
                                   const net::Url& requestUrl,
                                   const net::Url& documentUrl) {
  const bool firstParty = cookies::isFirstParty(requestUrl, documentUrl);
  for (const net::HeaderMap::Entry& entry : response.headers.entries()) {
    if (!util::equalsIgnoreCase(entry.name, "Set-Cookie")) continue;
    const auto parsed = net::parseSetCookie(entry.value);
    if (!parsed.has_value()) continue;
    const bool persistent =
        parsed->maxAgeSeconds.has_value() ||
        parsed->expiresEpochSeconds.has_value();
    if (!policy_.shouldAccept(firstParty, persistent)) {
      CP_LOG_DEBUG << "policy rejected cookie " << parsed->name << " from "
                   << requestUrl.host();
      continue;
    }
    jar_.store(*parsed, requestUrl, firstParty, clock_.nowMs());
  }
}

// The page info (the first <base href> and the raw references in preorder)
// came from the stream pass; only URL resolution is left.
std::vector<net::Url> Browser::resolveSubresources(
    const html::StreamPageInfo& page, const net::Url& documentUrl) const {
  const net::Url baseUrl = page.baseHref.empty()
                               ? documentUrl
                               : documentUrl.resolve(page.baseHref);
  std::vector<net::Url> resources;
  resources.reserve(page.subresourceRefs.size());
  for (const std::string& reference : page.subresourceRefs) {
    resources.push_back(baseUrl.resolve(reference));
  }
  return resources;
}

std::shared_ptr<const provenance::ProvenanceMap> Browser::extractProvenance(
    const net::HttpResponse& response) const {
  if (!wantProvenance_) return nullptr;
  const auto header = response.headers.get(provenance::kCookieProvenanceHeader);
  if (!header.has_value()) return nullptr;
  auto decoded = provenance::ProvenanceMap::decodeHeader(*header);
  if (!decoded.has_value()) return nullptr;
  return std::make_shared<const provenance::ProvenanceMap>(
      std::move(*decoded));
}

PageView Browser::visit(const std::string& url) {
  const auto parsed = net::Url::parse(url);
  if (!parsed.has_value()) {
    PageView view;
    view.status = 0;
    view.snapshot = streamBuilder_.build("").snapshot;
    return view;
  }
  return visit(*parsed);
}

PageView Browser::visit(const net::Url& url, bool buildSnapshot) {
  obs::ScopedTimer visitSpan(obs::Timer::PageVisit);
  obs::count(obs::Counter::PagesVisited);
  PageView view;
  net::Url current = url;
  net::HttpRequest request;
  net::Exchange exchange;

  // Step one of FORCUM: follow temporary redirection / replacement pages to
  // the real container document, saving the final request.
  for (int redirect = 0; redirect <= kMaxRedirects; ++redirect) {
    request = buildRequest(current, current);
    exchange = transport_.dispatch(request);
    view.timing.containerLatencyMs += exchange.latencyMs;
    clock_.advanceMs(static_cast<util::SimTimeMs>(exchange.latencyMs));
    storeResponseCookies(exchange.response, current, current);
    if (!exchange.response.isRedirect()) break;
    const auto location = exchange.response.headers.get("Location");
    if (!location.has_value()) break;
    current = current.resolve(*location);
    ++view.timing.redirectCount;
    obs::count(obs::Counter::RedirectsFollowed);
  }

  view.url = std::move(current);
  view.containerRequest = std::move(request);
  view.status = exchange.response.status;
  view.provenance = extractProvenance(exchange.response);
  view.containerHtml = std::move(exchange.response.body);
  {
    // One pass: tokens flow straight into the snapshot arrays, and the
    // subresource references fall out of the same walk. A view nobody
    // compares only needs the references.
    obs::ScopedTimer streamSpan(obs::Timer::StreamBuild);
    html::StreamParseResult streamed;
    if (buildSnapshot) {
      streamed = streamBuilder_.build(view.containerHtml,
                                      view.provenance.get());
    } else {
      streamed.page = streamBuilder_.scanPageInfo(view.containerHtml);
    }
    view.snapshot = std::move(streamed.snapshot);
    view.subresources = resolveSubresources(streamed.page, view.url);
  }

  // Object requests (stylesheets, images, scripts).
  double maxBatchMs = 0.0;
  double batchMs = 0.0;
  int inBatch = 0;
  for (const net::Url& resource : view.subresources) {
    net::HttpRequest subRequest =
        buildRequest(resource, view.url, net::RequestKind::Subresource);
    const net::Exchange subExchange = transport_.dispatch(subRequest);
    ++objectRequests_;
    obs::count(obs::Counter::SubresourceFetches);
    storeResponseCookies(subExchange.response, resource, view.url);
    batchMs = std::max(batchMs, subExchange.latencyMs);
    if (++inBatch == kParallelConnections) {
      maxBatchMs += batchMs;
      batchMs = 0.0;
      inBatch = 0;
    }
  }
  maxBatchMs += batchMs;
  view.timing.subresourceCount = static_cast<int>(view.subresources.size());
  view.timing.subresourceLatencyMs = maxBatchMs;
  view.timing.totalLoadMs =
      view.timing.containerLatencyMs + view.timing.subresourceLatencyMs;
  clock_.advanceMs(static_cast<util::SimTimeMs>(maxBatchMs));
  view.loadedAtMs = clock_.nowMs();
  return view;
}

std::shared_ptr<const dom::TreeSnapshot> Browser::snapshotOf(
    const PageView& view) {
  if (view.snapshot != nullptr) return view.snapshot;
  obs::ScopedTimer streamSpan(obs::Timer::StreamBuild);
  return streamBuilder_.build(view.containerHtml, view.provenance.get())
      .snapshot;
}

Browser::HiddenFetchPlan Browser::planHiddenFetch(
    const PageView& view,
    const std::function<bool(const cookies::CookieRecord&)>&
        excludePersistent) {
  HiddenFetchPlan plan;

  // Section 3.2, step two: the hidden request "uses the same URI as the
  // saved [request]. It only modifies the Cookie field of the request
  // header by removing a group of cookies". Starting from the *saved*
  // header (not the live jar) matters: cookies that arrived with this very
  // response must not leak into the hidden copy, or the comparison would
  // invert.
  plan.request = view.containerRequest;

  // Resolve the tested group to names: jar records matching this URL for
  // which the exclusion predicate holds.
  std::set<std::string> strippedNames;
  if (excludePersistent) {
    for (const cookies::CookieRecord* record :
         jar_.cookiesFor(view.url, clock_.nowMs())) {
      if (record->persistent && excludePersistent(*record)) {
        strippedNames.insert(record->key.name);
        plan.strippedCookies.push_back(record->key);
      }
    }
  }

  std::vector<std::pair<std::string, std::string>> kept;
  for (auto& pair :
       net::parseCookieHeader(view.containerRequest.cookieHeader())) {
    if (!strippedNames.contains(pair.first)) {
      kept.push_back(std::move(pair));
    }
  }
  const std::string cookieHeader = net::formatCookieHeader(kept);
  if (cookieHeader.empty()) {
    plan.request.headers.remove("Cookie");
  } else {
    plan.request.headers.set("Cookie", cookieHeader);
  }
  plan.request.kind = net::RequestKind::Hidden;
  plan.request.attempt = 0;
  return plan;
}

HiddenFetchResult Browser::completeHiddenFetch(
    HiddenFetchPlan plan, net::Exchange finalExchange, int attempts,
    double latencySoFarMs, bool degraded, std::string degradedReason) {
  ++hiddenRequestsSent_;
  HiddenFetchResult result;
  result.strippedCookies = std::move(plan.strippedCookies);
  result.attempts = attempts;
  result.latencyMs = latencySoFarMs + finalExchange.latencyMs;
  result.degraded = degraded;
  result.degradedReason = std::move(degradedReason);
  result.truncated = net::bodyTruncated(finalExchange.response);
  result.status = finalExchange.response.status;
  result.provenance = extractProvenance(finalExchange.response);
  result.html = std::move(finalExchange.response.body);
  // Built by the same parser as the regular copy, per Section 3.2 step
  // three (the hidden copy fetches no objects, so its page info is
  // discarded).
  {
    obs::ScopedTimer streamSpan(obs::Timer::StreamBuild);
    result.snapshot =
        streamBuilder_.build(result.html, result.provenance.get()).snapshot;
  }
  // The hidden response triggers no object loads and its Set-Cookie headers
  // are deliberately ignored.
  clock_.advanceMs(static_cast<util::SimTimeMs>(finalExchange.latencyMs));
  return result;
}

HiddenFetchResult Browser::hiddenFetch(
    const PageView& view,
    const std::function<bool(const cookies::CookieRecord&)>&
        excludePersistent) {
  obs::ScopedTimer hiddenSpan(obs::Timer::HiddenFetch);
  obs::count(obs::Counter::HiddenFetches);
  HiddenFetchPlan plan = planHiddenFetch(view, excludePersistent);

  if (transport_.ownsRetryTiming()) {
    // Socket mode: attempts and backoffs run on the transport's event-loop
    // timer wheel, in real time. The virtual clock still records the
    // measured wait so session timing stays coherent.
    net::FetchOutcome outcome =
        transport_.dispatchWithRetry(plan.request, hiddenRetry_);
    const auto retries = static_cast<std::uint64_t>(outcome.retriesUsed);
    hiddenRetriesUsed_ += retries;
    hiddenRetry_.retryBudget -= std::min(retries, hiddenRetry_.retryBudget);
    obs::count(obs::Counter::HiddenFetchRetries, retries);
    if (outcome.degraded) {
      if (outcome.budgetExhausted) {
        obs::count(obs::Counter::HiddenRetryBudgetExhausted);
      }
      obs::count(obs::Counter::HiddenFetchExhausted);
    }
    const double earlierMs =
        outcome.totalLatencyMs - outcome.exchange.latencyMs;
    clock_.advanceMs(static_cast<util::SimTimeMs>(earlierMs));
    return completeHiddenFetch(std::move(plan), std::move(outcome.exchange),
                               outcome.attempts, earlierMs, outcome.degraded,
                               std::move(outcome.failureReason));
  }

  // Sim mode: dispatch with bounded retry on the virtual clock. Failed
  // attempts advance the clock by their own round trip plus an exponential
  // jittered backoff; the final attempt's latency is applied after parsing,
  // exactly where the pre-retry code advanced it, so a clean fetch replays
  // byte-identically.
  net::HttpRequest& request = plan.request;
  net::Exchange exchange;
  std::string failureReason;
  int attempts = 0;
  double latencySoFarMs = 0.0;
  bool degraded = false;
  for (int attempt = 0;; ++attempt) {
    request.attempt = attempt;
    exchange = transport_.dispatch(request);
    ++attempts;
    failureReason = net::fetchFailureReason(exchange.response);
    if (failureReason.empty()) break;
    if (attempt + 1 >= hiddenRetry_.maxAttempts) {
      degraded = true;
      obs::count(obs::Counter::HiddenFetchExhausted);
      break;
    }
    if (hiddenRetry_.retryBudget == 0) {
      degraded = true;
      obs::count(obs::Counter::HiddenRetryBudgetExhausted);
      obs::count(obs::Counter::HiddenFetchExhausted);
      break;
    }
    latencySoFarMs += exchange.latencyMs;
    clock_.advanceMs(static_cast<util::SimTimeMs>(exchange.latencyMs));
    // Jitter is drawn from the session RNG only when a retry actually
    // happens, so fault-free runs consume no extra draws.
    const double backoff = net::backoffMs(hiddenRetry_, attempt, rng_);
    clock_.advanceMs(static_cast<util::SimTimeMs>(backoff));
    latencySoFarMs += backoff;
    --hiddenRetry_.retryBudget;
    ++hiddenRetriesUsed_;
    obs::count(obs::Counter::HiddenFetchRetries);
  }
  return completeHiddenFetch(std::move(plan), std::move(exchange), attempts,
                             latencySoFarMs, degraded,
                             std::move(failureReason));
}

double Browser::think() {
  const double thinkMs = thinkTime_.sampleMs(rng_);
  clock_.advanceMs(static_cast<util::SimTimeMs>(thinkMs));
  return thinkMs;
}

}  // namespace cookiepicker::browser
