// A synthetic web site: deterministic page skeletons plus composable
// behaviors, served through the simulated network.
//
// Pages live at "/", "/page1" … "/page<N-1>"; assets (stylesheet, script,
// images, tracking pixels) live under "/assets/" and "/metrics/". The
// skeleton of a page is a pure function of (site seed, path); everything
// that varies per fetch is injected by noise behaviors from the per-fetch
// RNG stream, and everything that varies with cookies is injected by cookie
// behaviors — exactly the decomposition CookiePicker's detection relies on.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/network.h"
#include "server/behaviors.h"
#include "util/clock.h"
#include "util/rng.h"

namespace cookiepicker::server {

struct SiteConfig {
  std::string domain;            // "s1.shopping.example"
  std::string title;             // human-readable site name
  std::string category;          // one of the 15 directory categories
  int pageCount = 30;
  std::uint64_t seed = 1;
  int adSlotsPerSection = 1;     // skeleton richness knobs
  bool rotatingHeadlines = true;
  int pixelTrackers = 0;         // <img src="/metrics/<k>/pixel.gif"> count
  bool useRedirectEntry = false; // "/" issues a 302 to "/home" first
};

class WebSite : public net::HttpHandler {
 public:
  WebSite(SiteConfig config, util::SimClock& clock);

  // Behaviors run in registration order; later render() calls see earlier
  // edits of the page model.
  void addBehavior(std::unique_ptr<SiteBehavior> behavior);

  net::HttpResponse handle(const net::HttpRequest& request) override;

  const SiteConfig& config() const { return config_; }
  // All container-page paths of this site ("/", "/page1", ...).
  std::vector<std::string> pagePaths() const;
  std::uint64_t fetchCount() const { return fetchCounter_; }

 private:
  net::HttpResponse servePage(const net::HttpRequest& request,
                              RenderContext& context);
  net::HttpResponse serveAsset(const net::HttpRequest& request,
                               RenderContext& context);
  // The parts of a page behaviors may edit, as the skeleton has them.
  Page buildPage(util::Pcg32& stableRng) const;
  // Appends the whole document: the fixed skeleton around `page`.
  void emitPage(const Page& page, const std::string& path,
                provenance::ProvenanceMap* map, std::string& out) const;

  SiteConfig config_;
  util::SimClock& clock_;
  util::Pcg32 siteRng_;          // root stream; forked per fetch
  std::uint64_t fetchCounter_ = 0;
  std::vector<std::unique_ptr<SiteBehavior>> behaviors_;
};

}  // namespace cookiepicker::server
