#include "baseline/doppelganger.h"

#include <algorithm>

#include "dom/serialize.h"
#include "html/parser.h"

namespace cookiepicker::baseline {

Doppelganger::Doppelganger(browser::Browser& browser, net::Network& network,
                           UserOracle oracle)
    : browser_(browser), network_(network), oracle_(std::move(oracle)) {}

void Doppelganger::onPageView(const browser::PageView& view) {
  ++stats_.pageViews;

  const std::uint64_t requestsBefore = network_.totalRequests();
  const std::uint64_t bytesBefore = network_.totalBytesTransferred();

  // Fork window: the container page without persistent cookies...
  browser::HiddenFetchResult fork = browser_.hiddenFetch(
      view,
      [](const cookies::CookieRecord& record) { return record.persistent; });
  stats_.mirrorLatencyMs += fork.latencyMs;

  // Doppelganger diffs serialized node trees; the browser keeps only
  // snapshots, so both windows' retained HTML is parsed here.
  const std::unique_ptr<dom::Node> forkDocument = html::parseHtml(fork.html);
  const std::unique_ptr<dom::Node> viewDocument =
      html::parseHtml(view.containerHtml);

  // ...plus, unlike CookiePicker, every embedded object of the fork copy.
  double batchMs = 0.0;
  int inBatch = 0;
  double totalMs = 0.0;
  dom::preorder(*forkDocument, [&](const dom::Node& node, std::size_t) {
    if (!node.isElement()) return true;
    std::optional<std::string> reference;
    if (node.name() == "img" || node.name() == "script") {
      reference = node.attribute("src");
    } else if (node.name() == "link") {
      reference = node.attribute("href");
    }
    if (reference.has_value() && !reference->empty()) {
      net::HttpRequest request;
      request.url = view.url.resolve(*reference);
      request.headers.set("User-Agent", "DoppelgangerFork/1.0");
      const net::Exchange exchange = network_.dispatch(request);
      batchMs = std::max(batchMs, exchange.latencyMs);
      if (++inBatch == browser::Browser::kParallelConnections) {
        totalMs += batchMs;
        batchMs = 0.0;
        inBatch = 0;
      }
    }
    return true;
  });
  totalMs += batchMs;
  stats_.mirrorLatencyMs += totalMs;

  stats_.mirroredRequests += network_.totalRequests() - requestsBefore;
  stats_.mirroredBytes += network_.totalBytesTransferred() - bytesBefore;

  // Any difference between the serialized windows triggers a user prompt.
  const std::string mainHtml = dom::toHtml(*viewDocument);
  const std::string forkHtml = dom::toHtml(*forkDocument);
  if (mainHtml != forkHtml) {
    ++stats_.userPrompts;
    if (oracle_(mainHtml, forkHtml)) {
      for (const cookies::CookieKey& key : fork.strippedCookies) {
        if (browser_.jar().markUseful(key)) ++stats_.cookiesKeptUseful;
      }
    }
  }
}

}  // namespace cookiepicker::baseline
