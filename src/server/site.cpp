#include "server/site.h"

#include <algorithm>

#include "net/cookie_parse.h"
#include "server/fragments.h"

namespace cookiepicker::server {

namespace {

bool isAssetPath(const std::string& path) {
  return path.starts_with("/assets/") || path.starts_with("/metrics/") ||
         path.starts_with("/w3c/") || path.ends_with(".css") ||
         path.ends_with(".js") || path.ends_with(".gif") ||
         path.ends_with(".png") || path.ends_with(".xml");
}

// The page skeleton: 4 or 5 content sections of 2 paragraphs each, and 2
// plain images and a timestamp in the footer.
constexpr int kSectionsPerPage = 4;
constexpr int kParagraphsPerSection = 2;
constexpr int kPlainImages = 2;

}  // namespace

WebSite::WebSite(SiteConfig config, util::SimClock& clock)
    : config_(std::move(config)),
      clock_(clock),
      siteRng_(util::fnv1a64(config_.domain), config_.seed) {}

void WebSite::addBehavior(std::unique_ptr<SiteBehavior> behavior) {
  behaviors_.push_back(std::move(behavior));
}

std::vector<std::string> WebSite::pagePaths() const {
  std::vector<std::string> paths;
  paths.push_back("/");
  for (int i = 1; i < config_.pageCount; ++i) {
    paths.push_back("/page" + std::to_string(i));
  }
  return paths;
}

net::HttpResponse WebSite::handle(const net::HttpRequest& request) {
  ++fetchCounter_;

  RenderContext context;
  context.request = &request;
  context.path = request.url.path();
  context.clock = &clock_;
  for (const auto& [name, value] :
       net::parseCookieHeader(request.cookieHeader())) {
    context.cookies[name] = value;
  }
  // Per-fetch stream: unique per request, so noise differs between fetches.
  util::Pcg32 fetchRng =
      siteRng_.fork("fetch" + std::to_string(fetchCounter_));
  // Stable stream: a pure function of (site, path) — identical every fetch.
  util::Pcg32 stableRng(util::fnv1a64(config_.domain + "|" + context.path),
                        config_.seed * 2 + 1);
  context.fetchRng = &fetchRng;
  context.stableRng = &stableRng;

  if (config_.useRedirectEntry && context.path == "/") {
    net::HttpResponse response = net::HttpResponse::redirect("/home");
    for (auto& behavior : behaviors_) {
      behavior->onRequest(context, response);
    }
    return response;
  }

  if (isAssetPath(context.path)) {
    return serveAsset(request, context);
  }
  return servePage(request, context);
}

net::HttpResponse WebSite::serveAsset(const net::HttpRequest& request,
                                      RenderContext& context) {
  (void)request;
  net::HttpResponse response;
  response.status = 200;
  response.statusText = "OK";
  if (context.path.ends_with(".xml")) {
    // Machine-readable policy documents (e.g. /w3c/p3p.xml) exist only when
    // a behavior provides one; the default is 404, which behaviors'
    // onRequest may overwrite.
    response.status = 404;
    response.statusText = "Not Found";
    response.headers.set("Content-Type", "text/plain");
    response.body = "no such document";
  } else if (context.path.ends_with(".css")) {
    response.headers.set("Content-Type", "text/css");
    response.body = "body{font-family:serif;margin:0}"
                    ".sidebar{float:left;width:20%}"
                    ".adslot{border:1px solid #ccc}";
    // Realistic stylesheet weight (a few KB).
    response.body += std::string(3000, ' ');
  } else if (context.path.ends_with(".js")) {
    response.headers.set("Content-Type", "application/javascript");
    response.body = "/* site script */ function init(){return 1;}";
    response.body += std::string(2000, ' ');
  } else if (context.path.ends_with("pixel.gif")) {
    response.headers.set("Content-Type", "image/gif");
    response.body = std::string(43, '\x01');  // 1x1 tracking pixel
  } else {
    response.headers.set("Content-Type", context.path.ends_with(".gif")
                                             ? "image/gif"
                                             : "image/png");
    // Image weight varies deterministically with the path (4-16 KB).
    const std::size_t size =
        4096 + (util::fnv1a64(context.path) % 12) * 1024;
    response.body = std::string(size, '\x01');
  }
  for (auto& behavior : behaviors_) {
    behavior->onRequest(context, response);
  }
  return response;
}

Page WebSite::buildPage(util::Pcg32& stableRng) const {
  Page page;
  page.heading = config_.title;
  const int sections =
      kSectionsPerPage +
      static_cast<int>(stableRng.uniform(0, 1));  // 4 or 5, stable per path
  page.main.resize(static_cast<std::size_t>(sections));
  for (int s = 0; s < sections; ++s) {
    Block& section = page.main[static_cast<std::size_t>(s)];
    section.kind = BlockKind::Content;
    appendContentSection(section, stableRng, kParagraphsPerSection,
                         config_.adSlotsPerSection,
                         config_.rotatingHeadlines && s % 2 == 0);
  }

  // A handful of plain images (object requests for the browser to fetch).
  std::string& footer = page.footer.html;
  footer = "<footer>";
  for (int i = 0; i < kPlainImages; ++i) {
    footer += "<img src=\"/assets/banner" + std::to_string(i) + ".png\">";
  }
  for (int i = 0; i < config_.pixelTrackers; ++i) {
    footer += "<img src=\"/metrics/" + std::to_string(i) +
              "/pixel.gif\" width=\"1\" height=\"1\">";
  }
  footer += "<p>(c) ";
  appendEscapedText(footer, config_.title);
  footer += " — all rights reserved.</p><span class=\"timestamp\">";
  page.footer.addHole(HoleKind::Timestamp);
  footer += "</span></footer>";
  return page;
}

void WebSite::emitPage(const Page& page, const std::string& path,
                       provenance::ProvenanceMap* map,
                       std::string& out) const {
  const auto emitAll = [&](const std::vector<Block>& blocks) {
    for (const Block& block : blocks) emitBlock(out, block, map);
  };
  out += "<!DOCTYPE html><html><head><title>";
  appendEscapedText(out, config_.title);
  if (path != "/") {
    out += " — ";
    appendEscapedText(out, path);
  }
  out += "</title><link rel=\"stylesheet\" href=\"/assets/site.css\">"
         "<script src=\"/assets/app.js\"></script></head><body>"
         "<!-- generated by cookiepicker synthetic web --><div id=\"page\">"
         "<header>";
  const std::size_t headingStart = out.size();
  out += "<h1>";
  appendEscapedText(out, page.heading);
  out += "</h1>";
  const std::size_t headingEnd = out.size();
  // Nav bar linking to the site's first pages.
  out += "<nav><ul>";
  for (int i = 0; i < std::min(config_.pageCount, 6); ++i) {
    const std::string index = std::to_string(i);
    out += i == 0 ? "<li><a href=\"/\">Home</a></li>"
                  : "<li><a href=\"/page" + index + "\">Section " + index +
                        "</a></li>";
  }
  out += "</ul></nav>";
  emitAll(page.header);
  out += "</header>";
  emitAll(page.beforeMain);
  const std::size_t mainStart = out.size();
  out += "<main>";
  emitAll(page.main);
  out += "</main>";
  if (map != nullptr) {
    map->add(static_cast<std::uint32_t>(headingStart),
             static_cast<std::uint32_t>(headingEnd), page.headingTaint);
    map->add(static_cast<std::uint32_t>(mainStart),
             static_cast<std::uint32_t>(out.size()), page.mainTaint);
  }
  emitBlock(out, page.footer, map);
  out += "</div>";
  emitAll(page.tail);
  out += "</body></html>";
}

net::HttpResponse WebSite::servePage(const net::HttpRequest& request,
                                     RenderContext& context) {
  // Taint recording is strictly opt-in per request: without the header the
  // render path, the response bytes and the wire byte counts are identical
  // to a provenance-free build.
  const bool wantProvenance =
      request.headers.has(provenance::kWantProvenanceHeader);
  provenance::TaintRecorder recorder;
  if (wantProvenance) context.taint = &recorder;

  // Skeleton draws on the stable stream, then onRequest, then each render
  // in registration order: the order every RNG draw and taint read keeps.
  Page page = buildPage(*context.stableRng);

  net::HttpResponse response;
  response.status = 200;
  response.statusText = "OK";
  response.headers.set("Content-Type", "text/html");

  for (auto& behavior : behaviors_) {
    behavior->onRequest(context, response);
  }
  for (auto& behavior : behaviors_) {
    behavior->render(context, page);
  }

  // One emitter for both paths; with provenance it also records the output
  // range of every tainted piece, shipped out of band.
  provenance::ProvenanceMap map;
  emitPage(page, context.path, wantProvenance ? &map : nullptr,
           response.body);
  if (wantProvenance) {
    map.setLabelNames(recorder.labels());
    response.headers.set(provenance::kCookieProvenanceHeader,
                         map.encodeHeader());
    context.taint = nullptr;
  }
  return response;
}

}  // namespace cookiepicker::server
