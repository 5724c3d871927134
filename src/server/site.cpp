#include "server/site.h"

#include <algorithm>
#include <charconv>
#include <iterator>

#include "net/cookie_parse.h"
#include "server/fragments.h"
#include "util/strings.h"

namespace cookiepicker::server {

namespace {

bool isAssetPath(std::string_view path) {
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

// Reservation sizes, each a little above what the markup needs: room for
// the blocks behaviors insert into <main>, the footer without its title
// and pixel images, one pixel image, and a page's fixed markup with a full
// nav bar.
constexpr std::size_t kInsertedBlocks = 4;
constexpr std::size_t kFooterBytes = 192;
constexpr std::size_t kPixelImageBytes = 64;
constexpr std::size_t kSkeletonBytes = 640;

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
  context.cookies = net::parseCookieHeader(request.cookieHeader());
  // Per-fetch stream: unique per request, so noise differs between fetches.
  // Its tag is "fetch<n>", written on the stack.
  char tag[32] = "fetch";
  const char* tagEnd = std::to_chars(tag + 5, std::end(tag), fetchCounter_).ptr;
  util::Pcg32 fetchRng = siteRng_.fork(
      std::string_view(tag, static_cast<std::size_t>(tagEnd - tag)));
  // Stable stream: a pure function of (site, path) — identical every fetch.
  // Keyed by fnv1a64(domain + "|" + path), hashed part by part.
  util::Pcg32 stableRng(
      util::fnv1a64(context.path,
                    util::fnv1a64("|", util::fnv1a64(config_.domain))),
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
    return serveAsset(context);
  }
  return servePage(request, context);
}

net::HttpResponse WebSite::serveAsset(RenderContext& context) {
  const std::string_view path = context.path;
  net::HttpResponse response;
  // The Content-Type line and at most one line per behavior.
  response.headers.reserve(behaviors_.size() + 1);
  // Text padded to a realistic weight, in one allocation.
  const auto fill = [&](std::string_view text, std::size_t padding, char pad) {
    response.body.reserve(text.size() + padding);
    response.body.append(text);
    response.body.append(padding, pad);
  };
  if (path.ends_with(".xml")) {
    // Machine-readable policy documents (e.g. /w3c/p3p.xml) exist only when
    // a behavior provides one; the default is 404, which behaviors'
    // onRequest may overwrite.
    response.status = 404;
    response.statusText = "Not Found";
    response.headers.add("Content-Type", "text/plain");
    response.body = "no such document";
  } else if (path.ends_with(".css")) {
    response.headers.add("Content-Type", "text/css");
    // Realistic stylesheet weight (a few KB).
    fill("body{font-family:serif;margin:0}"
         ".sidebar{float:left;width:20%}"
         ".adslot{border:1px solid #ccc}",
         3000, ' ');
  } else if (path.ends_with(".js")) {
    response.headers.add("Content-Type", "application/javascript");
    fill("/* site script */ function init(){return 1;}", 2000, ' ');
  } else if (path.ends_with("pixel.gif")) {
    response.headers.add("Content-Type", "image/gif");
    fill({}, 43, '\x01');  // 1x1 tracking pixel
  } else {
    response.headers.add("Content-Type",
                         path.ends_with(".gif") ? "image/gif" : "image/png");
    // Image weight varies deterministically with the path (4-16 KB).
    fill({}, 4096 + (util::fnv1a64(path) % 12) * 1024, '\x01');
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
  page.main.reserve(static_cast<std::size_t>(sections) + kInsertedBlocks);
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
  const auto pixels =
      static_cast<std::size_t>(std::max(0, config_.pixelTrackers));
  footer.reserve(kFooterBytes + config_.title.size() +
                 kPixelImageBytes * pixels);
  footer += "<footer>";
  for (int i = 0; i < kPlainImages; ++i) {
    util::appendParts(footer, {"<img src=\"/assets/banner", std::to_string(i),
                               ".png\">"});
  }
  for (int i = 0; i < config_.pixelTrackers; ++i) {
    util::appendParts(footer,
                      {"<img src=\"/metrics/", std::to_string(i),
                       "/pixel.gif\" width=\"1\" height=\"1\">"});
  }
  footer += "<p>(c) ";
  appendEscapedText(footer, config_.title);
  footer += " — all rights reserved.</p><span class=\"timestamp\">";
  page.footer.addHole(HoleKind::Timestamp);
  footer += "</span></footer>";
  return page;
}

void WebSite::emitPage(const Page& page, std::string_view path,
                       provenance::ProvenanceMap* map,
                       std::string& out) const {
  // One allocation: the fixed markup and nav, the title, path and heading
  // as they would read unescaped, and every block.
  std::size_t size = kSkeletonBytes + config_.title.size() + path.size() +
                     page.heading.size() + page.footer.emittedSize();
  for (const std::vector<Block>* blocks :
       {&page.header, &page.beforeMain, &page.main, &page.tail}) {
    for (const Block& block : *blocks) size += block.emittedSize();
  }
  out.reserve(out.size() + size);

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
  if (config_.pageCount > 0) out += "<li><a href=\"/\">Home</a></li>";
  for (int i = 1; i < std::min(config_.pageCount, 6); ++i) {
    const std::string index = std::to_string(i);
    util::appendParts(out, {"<li><a href=\"/page", index, "\">Section ",
                            index, "</a></li>"});
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
  // The Content-Type line, at most one line per behavior and the
  // provenance line.
  response.headers.reserve(behaviors_.size() + 2);
  response.headers.add("Content-Type", "text/html");

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
