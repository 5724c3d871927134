// The CookiePicker verdict service.
//
// An HttpHandler exposing cookie-usefulness verdicts over HTTP — the
// service half of `cookiepicker serve`. A request names a host from the
// roster; the service runs one core::Session for it (the fleet's session:
// fresh Browser + jar + SimClock, RNG keyed by host name) with every fetch
// flowing through the injected net::Transport — the sim for reference
// runs, the SocketTransport for the real service tier, where hidden
// requests become batched pipelined fetches against the origin tier.
//
// Routes:
//   GET /healthz               → 200 "ok"
//   GET /verdict?host=H[&views=N] → verdict JSON: session report plus the
//       sorted useful/blocked persistent-cookie names; 400 unless N is a
//       decimal integer in [1, kMaxVerdictViews]. Keys and values are
//       percent-decoded; a malformed escape or a decoded control byte is a
//       400. `hiddenRequestsSent` counts the hidden requests this session
//       dispatched; `hiddenRequests` is FORCUM's per-host counter, which a
//       warm session imports from the crowd. Deterministic
//       fields only — no timing — so two runs (or sim vs. socket) can be
//       compared byte-for-byte; the soak harness does exactly that. Only
//       with a shared knowledge base does it gain a "knowledge" field
//       naming the consult outcome.
//   GET /stats                 → service counters JSON
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "core/session.h"
#include "net/transport.h"

namespace cookiepicker::serve {

// Cap on /verdict's views: a verdict runs inline on the frontend's event
// loop, so a huge count would stall every other client.
inline constexpr int kMaxVerdictViews = 1000;

struct VerdictServiceConfig : core::SessionConfig {
  int defaultViews = 12;
};

class VerdictService : public net::HttpHandler {
 public:
  VerdictService(net::Transport& transport, VerdictServiceConfig config = {});

  // Hosts the service will run sessions for, with their page counts
  // (sessions cycle /page0../page{count-1} like the fleet does).
  void addHost(const std::string& host, int pageCount);

  net::HttpResponse handle(const net::HttpRequest& request) override;

  // The verdict body for `host` (ASCII case-insensitive) without the HTTP
  // shell (used directly by the soak harness and the CLI's --once mode);
  // empty for an unknown host. A non-null `jarText` receives the session
  // jar's serialize() bytes as the verdict ends.
  std::string runVerdict(const std::string& host, int views,
                         std::string* jarText = nullptr);

  std::uint64_t sessionsRun() const;

 private:
  net::Transport& transport_;
  VerdictServiceConfig config_;
  std::map<std::string, int> hostPages_;
  mutable std::mutex mutex_;
  std::uint64_t sessionsRun_ = 0;
};

}  // namespace cookiepicker::serve
