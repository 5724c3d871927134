#include "server/evasion.h"

#include "server/fragments.h"
#include "server/words.h"

namespace cookiepicker::server {

bool HiddenRequestDetector::looksLikeProbe(std::string_view path,
                                           std::size_t cookieCount,
                                           util::SimTimeMs nowMs) {
  auto it = history_.find(path);
  if (it == history_.end()) it = history_.emplace(path, Observation{}).first;
  Observation& observation = it->second;
  const bool probe = observation.lastSeenMs >= 0 &&
                     nowMs - observation.lastSeenMs <= windowMs_ &&
                     cookieCount < observation.lastCookieCount;
  // A probe must not update the baseline: the operator keeps comparing
  // against the genuine browsing request.
  if (!probe) {
    observation.lastSeenMs = nowMs;
    observation.lastCookieCount = cookieCount;
  }
  return probe;
}

void EvasionBehavior::onRequest(const RenderContext& context,
                                net::HttpResponse& response) {
  (void)response;
  defaceCurrentRequest_ = detector_.looksLikeProbe(
      context.path, context.distinctCookieCount(), context.clock->nowMs());
  if (defaceCurrentRequest_) ++probesDetected_;
}

void EvasionBehavior::render(const RenderContext& context, Page& page) {
  if (!defaceCurrentRequest_) return;
  // Manipulate the suspected hidden response: replace the content area with
  // fresh, structurally different material so the checker concludes the
  // stripped cookies were responsible.
  util::Pcg32& rng = *context.fetchRng;
  page.main.clear();
  const int blocks = 2 + static_cast<int>(rng.uniform(0, 2));
  for (int i = 0; i < blocks; ++i) {
    Block promo;
    appendPromoBlock(promo.html, rng, static_cast<int>(rng.uniform(0, 2)));
    page.main.push_back(std::move(promo));
  }
  Block notice;
  notice.html = "<section class=\"fresh\"><h2>";
  appendTitle(notice.html, rng);
  notice.html += "</h2><p>";
  appendParagraph(notice.html, rng, 2);
  notice.html += "</p></section>";
  page.main.push_back(std::move(notice));
}

}  // namespace cookiepicker::server
