// Quickstart: the smallest complete CookiePicker session.
//
// Builds a simulated internet with one web site, attaches CookiePicker to a
// browser, browses a handful of pages, and prints what the system decided
// about each persistent cookie — all in ~40 lines of user code.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "browser/browser.h"
#include "core/cookie_picker.h"
#include "core/explain.h"
#include "net/network.h"
#include "server/generator.h"
#include "util/clock.h"

int main() {
  using namespace cookiepicker;

  // 1. A simulated internet: clock + network + one synthetic site that
  //    sets one genuinely useful preference cookie and two pure trackers.
  util::SimClock clock;
  net::Network network(/*seed=*/1);
  server::SiteSpec spec =
      server::makeGenericSpec("Demo", "shop.demo.example", /*seed=*/42);
  // Trackers as 1x1 pixels with scoped cookie paths (a common real-world
  // pattern); they never ride the container request, so group testing
  // judges each cookie cleanly.
  spec.containerTrackers = 0;
  spec.pixelTrackers = 2;
  network.registerHost(spec.domain, server::buildSite(spec, clock));

  // 2. A browser with the recommended policy (third-party cookies blocked,
  //    first-party allowed) and CookiePicker attached.
  browser::Browser browser(network, clock);
  core::CookiePicker picker(browser);

  // 3. Browse. Every page view triggers one hidden request during think
  //    time; differences between the regular and hidden copies mark the
  //    responsible cookies as useful.
  for (int i = 0; i < 8; ++i) {
    const std::string url = "http://" + spec.domain +
                            (i == 0 ? "/" : "/page" + std::to_string(i));
    const core::ForcumStepReport report = picker.browse(url);
    if (report.hiddenRequestSent) {
      std::printf("view %d: NTreeSim=%.3f NTextSim=%.3f -> %s\n", i + 1,
                  report.decision.treeSim, report.decision.textSim,
                  report.decision.causedByCookies ? "cookies are useful"
                                                  : "no cookie effect");
    } else {
      std::printf("view %d: nothing to test yet\n", i + 1);
    }
  }

  // 4. Ask *why*: diff the two page versions once more and render the
  //    evidence the classifier acted on.
  {
    const auto view = browser.visit("http://" + spec.domain + "/");
    const auto hidden = browser.hiddenFetch(
        view,
        [](const cookies::CookieRecord& record) { return record.persistent; });
    // Each copy's snapshot plus the HTML it was built from is all an
    // explanation needs: no node tree, no second parse.
    std::printf("\nwhy: %s",
                core::explainDifference({*view.snapshot, view.containerHtml},
                                        {*hidden.snapshot, hidden.html})
                    .summary()
                    .c_str());
  }

  // 5. Inspect the verdicts and enforce them: useless persistent cookies
  //    stop being sent and are deleted from the jar.
  std::printf("\ncookie verdicts for %s:\n", spec.domain.c_str());
  for (const cookies::CookieRecord* record :
       browser.jar().persistentCookiesForHost(spec.domain)) {
    std::printf("  %-10s -> %s\n", record->key.name.c_str(),
                record->useful ? "USEFUL (kept)" : "useless (will be removed)");
  }
  picker.enforceForHost(spec.domain);
  std::printf("\nafter enforcement, %zu persistent cookie(s) remain.\n",
              browser.jar().persistentCookiesForHost(spec.domain).size());
  return 0;
}
