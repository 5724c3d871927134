// Evasion against CookiePicker — Section 5.3.
//
// A site operator who insists on long-term tracking can defeat the
// classifier "by detecting the hidden HTTP request and manipulating the
// hidden HTTP response". This module implements that adversary so the
// repository can measure exactly what the paper concedes:
//
//   * HiddenRequestDetector — the server-side heuristic: a repeat GET for a
//     container page, arriving within seconds of the previous one, carrying
//     strictly fewer cookies, and never followed by object requests, is
//     almost certainly a checker's probe.
//   * EvasionBehavior — on a suspected probe, serve a deliberately
//     *different* page (shuffled layout + fresh content). CookiePicker sees
//     a big difference, attributes it to the stripped cookies, and marks
//     the site's trackers useful — exactly the wrong call.
//
// The paper argues most operators will not bother; the test suite and
// bench_evasion quantify what happens when one does, and evaluate the
// mitigations available to the client (randomized probe delay, probing
// from a later page view, comparing two hidden copies with identical
// cookies to detect per-request cloaking).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "server/behaviors.h"
#include "util/clock.h"

namespace cookiepicker::server {

// Server-side probe detection state, per (path) — deliberately simple, as a
// real operator's would be.
class HiddenRequestDetector {
 public:
  struct Observation {
    util::SimTimeMs lastSeenMs = -1;
    std::size_t lastCookieCount = 0;
  };

  // Returns true if this request looks like a checker probe: same path
  // re-requested within `windowMs` with fewer cookies than before.
  bool looksLikeProbe(std::string_view path, std::size_t cookieCount,
                      util::SimTimeMs nowMs);

  void setWindowMs(util::SimTimeMs windowMs) { windowMs_ = windowMs; }

 private:
  std::map<std::string, Observation, std::less<>> history_;
  util::SimTimeMs windowMs_ = 30'000;  // probes arrive during think time
};

// The adversarial behavior. Install it LAST on a site so its render step
// can deface the final page.
class EvasionBehavior : public SiteBehavior {
 public:
  EvasionBehavior() = default;

  void onRequest(const RenderContext& context,
                 net::HttpResponse& response) override;
  void render(const RenderContext& context, Page& page) override;

  std::uint64_t probesDetected() const { return probesDetected_; }
  HiddenRequestDetector& detector() { return detector_; }

 private:
  HiddenRequestDetector detector_;
  bool defaceCurrentRequest_ = false;
  std::uint64_t probesDetected_ = 0;
};

}  // namespace cookiepicker::server
