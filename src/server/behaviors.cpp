#include "server/behaviors.h"

#include <algorithm>
#include <cstdio>

#include "net/cookie_parse.h"
#include "server/fragments.h"
#include "server/words.h"

namespace cookiepicker::server {

namespace {

std::string randomHexId(util::Pcg32& rng) {
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "%08x%08x", rng.next(), rng.next());
  return buffer;
}

std::string setCookieValue(const std::string& name, const std::string& value,
                           std::int64_t maxAgeSeconds,
                           const std::string& path) {
  std::string header = name + "=" + value;
  if (maxAgeSeconds > 0) {
    header += "; Max-Age=" + std::to_string(maxAgeSeconds);
  }
  header += "; Path=" + path;
  return header;
}

}  // namespace

// --- TrackingCookieBehavior -------------------------------------------------

TrackingCookieBehavior::TrackingCookieBehavior(std::string cookieName,
                                               std::int64_t maxAgeSeconds,
                                               std::string cookiePath,
                                               std::string setOnPathPrefix)
    : cookieName_(std::move(cookieName)),
      maxAgeSeconds_(maxAgeSeconds),
      cookiePath_(std::move(cookiePath)),
      setOnPathPrefix_(std::move(setOnPathPrefix)) {}

void TrackingCookieBehavior::onRequest(const RenderContext& context,
                                       net::HttpResponse& response) {
  if (!setOnPathPrefix_.empty() &&
      context.path.compare(0, setOnPathPrefix_.size(), setOnPathPrefix_) !=
          0) {
    return;
  }
  if (context.hasCookie(cookieName_)) return;
  // Half the trackers (stable per name) use the older Expires=<RFC 1123>
  // attribute instead of Max-Age, as real 2007 servers did — both formats
  // flow through the full parsing pipeline.
  if (util::fnv1a64(cookieName_) % 2 == 0) {
    // Round the current time up to whole seconds so the declared lifetime
    // is never a fraction short of the intended Max-Age equivalent.
    const std::int64_t expiresEpochSeconds =
        (context.clock->nowMs() + 999) / 1000 + maxAgeSeconds_;
    response.headers.add(
        "Set-Cookie",
        cookieName_ + "=" + randomHexId(*context.fetchRng) +
            "; Expires=" + net::formatHttpDate(expiresEpochSeconds) +
            "; Path=" + cookiePath_);
    return;
  }
  response.headers.add(
      "Set-Cookie", setCookieValue(cookieName_, randomHexId(*context.fetchRng),
                                   maxAgeSeconds_, cookiePath_));
}

// --- SessionCartBehavior ----------------------------------------------------

SessionCartBehavior::SessionCartBehavior(std::string cookieName)
    : cookieName_(std::move(cookieName)) {}

void SessionCartBehavior::onRequest(const RenderContext& context,
                                    net::HttpResponse& response) {
  if (context.hasCookie(cookieName_)) return;
  // Session cookie: no Max-Age / Expires.
  response.headers.add("Set-Cookie", cookieName_ + "=0; Path=/");
}

void SessionCartBehavior::render(const RenderContext& context, Page& page) {
  std::string html = "<span class=\"cart-status\">Cart items: ";
  appendEscapedText(html, context.hasCookie(cookieName_)
                              ? context.cookieValue(cookieName_)
                              : "0");
  html += "</span>";
  // The cart widget renders either way, but its content is a function of the
  // cookie read — taint it in both branches.
  page.header.push_back({context.taintFor(cookieName_), std::move(html)});
}

// --- PreferenceCookieBehavior -----------------------------------------------

PreferenceCookieBehavior::PreferenceCookieBehavior(
    std::string cookieName, int intensity, std::int64_t maxAgeSeconds,
    std::string affectedPathPrefix)
    : cookieName_(std::move(cookieName)),
      intensity_(intensity),
      maxAgeSeconds_(maxAgeSeconds),
      affectedPathPrefix_(std::move(affectedPathPrefix)) {}

bool PreferenceCookieBehavior::affectsPath(const std::string& path) const {
  return affectedPathPrefix_.empty() ||
         path.compare(0, affectedPathPrefix_.size(), affectedPathPrefix_) ==
             0;
}

void PreferenceCookieBehavior::onRequest(const RenderContext& context,
                                         net::HttpResponse& response) {
  if (context.hasCookie(cookieName_)) return;
  response.headers.add(
      "Set-Cookie",
      setCookieValue(cookieName_, "default", maxAgeSeconds_, "/"));
}

void PreferenceCookieBehavior::render(const RenderContext& context,
                                      Page& page) {
  // Both branches below are conditioned on reading this cookie, so both
  // taint what they emit — the absence branch's banner is as much a
  // consequence of the read as the personalized content.
  const provenance::LabelSet taint = context.taintFor(cookieName_);
  if (!context.hasCookie(cookieName_) || !affectsPath(context.path)) {
    // Without the preference cookie the generic page carries a hint banner.
    if (affectsPath(context.path)) {
      page.main.insert(page.main.begin(),
                       {taint,
                        "<div class=\"pref-hint\">Set your preferences to "
                        "personalize this page.</div>"});
    }
    return;
  }

  util::Pcg32& stable = *context.stableRng;
  // 1. Personalized greeting replaces the generic site title text.
  page.heading = "Welcome back — your ";
  appendWord(page.heading, stable);
  page.heading += " edition";
  page.headingTaint |= taint;
  // 2. Sidebar with saved links, inserted before <main>.
  Block sidebar(taint, {});
  appendSidebar(sidebar.html, stable, "Your saved topics", 5);
  page.beforeMain.push_back(std::move(sidebar));
  // 3. Recommendation sections at the top of <main>.
  for (int i = 0; i < intensity_; ++i) {
    Block recommended(
        taint, "<section class=\"recommended\"><h2>Recommended for you: ");
    std::string& html = recommended.html;
    appendTitle(html, stable);
    html += "</h2><p>";
    appendParagraph(html, stable, 2);
    html += "</p><ul>";
    for (int j = 0; j < 4; ++j) {
      html += "<li>";
      appendPhrase(html, stable, 4);
      html += "</li>";
    }
    html += "</ul></section>";
    page.main.insert(page.main.begin(), std::move(recommended));
  }
  // 4. High intensity: personalization dominates — generic sections are
  // replaced outright (drives P4-style similarity scores near 0.2), the
  // last one first.
  if (intensity_ >= 3) {
    for (auto it = page.main.rbegin(); it != page.main.rend(); ++it) {
      if (it->kind != BlockKind::Content) continue;
      Block feed(taint,
                 "<article class=\"personal-feed\"><h2>From your feed: ");
      std::string& html = feed.html;
      appendTitle(html, stable);
      html += "</h2><dl>";
      for (int j = 0; j < 3; ++j) {
        html += "<dt>";
        appendTitle(html, stable);
        html += "</dt><dd>";
        appendParagraph(html, stable, 1);
        html += "</dd>";
      }
      html += "</dl></article>";
      *it = std::move(feed);
    }
  }
}

// --- SignUpWallBehavior -----------------------------------------------------

SignUpWallBehavior::SignUpWallBehavior(std::string cookieName,
                                       std::int64_t maxAgeSeconds)
    : cookieName_(std::move(cookieName)), maxAgeSeconds_(maxAgeSeconds) {}

void SignUpWallBehavior::onRequest(const RenderContext& context,
                                   net::HttpResponse& response) {
  if (context.hasCookie(cookieName_)) return;
  response.headers.add(
      "Set-Cookie", setCookieValue(cookieName_, randomHexId(*context.fetchRng),
                                   maxAgeSeconds_, "/"));
}

void SignUpWallBehavior::render(const RenderContext& context, Page& page) {
  const provenance::LabelSet taint = context.taintFor(cookieName_);
  if (context.hasCookie(cookieName_)) {
    // Members get a small account toolbar.
    page.header.push_back(
        {taint, "<div class=\"account-bar\">Signed in — account menu</div>"});
    return;
  }
  // No account cookie: the entire content area becomes the sign-up wall.
  // The wall replaces <main> wholesale, so the whole emptied container is
  // a consequence of the cookie read.
  page.main.clear();
  Block wall;
  appendSignUpForm(wall.html, *context.stableRng);
  page.main.push_back(std::move(wall));
  page.mainTaint |= taint;
}

// --- QueryCacheBehavior -----------------------------------------------------

QueryCacheBehavior::QueryCacheBehavior(std::string cookieName,
                                       std::int64_t maxAgeSeconds)
    : cookieName_(std::move(cookieName)), maxAgeSeconds_(maxAgeSeconds) {}

void QueryCacheBehavior::onRequest(const RenderContext& context,
                                   net::HttpResponse& response) {
  // The performance effect (the paper's P2): with the cookie, the server
  // reuses the user's cached query results; without it, results must be
  // recomputed and the response takes far longer.
  if (context.hasCookie(cookieName_)) {
    response.serverProcessingMs += 40.0;
    return;
  }
  response.serverProcessingMs += 1200.0 + 600.0 * context.fetchRng->uniform01();
  response.headers.add(
      "Set-Cookie", setCookieValue(cookieName_, randomHexId(*context.fetchRng),
                                   maxAgeSeconds_, "/"));
}

void QueryCacheBehavior::render(const RenderContext& context, Page& page) {
  const provenance::LabelSet taint = context.taintFor(cookieName_);
  Block block(taint, {});
  if (context.hasCookie(cookieName_)) {
    // The cookie names the user's server-side result directory; the page
    // embeds the cached results instantly.
    block.html =
        "<section class=\"query-cache\"><h2>Your recent query results</h2>";
    appendResultList(block.html, *context.stableRng, 8);
    block.html +=
        "<p>Served from your result cache for instant reuse.</p></section>";
  } else {
    block.html =
        "<div class=\"query-pending\"><h2>Recomputing your results</h2>"
        "<p>No result cache found; queries must be executed again.</p></div>";
  }
  page.main.insert(page.main.begin(), std::move(block));
}

// --- AdRotationNoise --------------------------------------------------------

AdRotationNoise::AdRotationNoise(bool structuralVariation)
    : structuralVariation_(structuralVariation) {}

void AdRotationNoise::render(const RenderContext& context, Page& page) {
  util::Pcg32& rng = *context.fetchRng;
  page.forEachHole(HoleKind::AdSlot, [&](std::string& slot) {
    const int shape =
        structuralVariation_ ? static_cast<int>(rng.uniform(0, 2)) : 0;
    slot = "<a href=\"/ad/redirect" + std::to_string(rng.uniform(1, 999)) +
           "\">";
    appendAdCopy(slot, rng);
    slot += "</a>";
    if (shape == 1) {
      slot += "<span class=\"sponsor-tag\">Sponsored</span>";
    } else if (shape == 2) {
      // The image is drawn after the anchor it precedes.
      slot = "<div class=\"ad-wrap\"><img src=\"/assets/ad" +
             std::to_string(rng.uniform(1, 9)) + ".png\">" + slot + "</div>";
    }
  });
}

// --- HeadlineRotationNoise --------------------------------------------------

void HeadlineRotationNoise::render(const RenderContext& context, Page& page) {
  util::Pcg32& rng = *context.fetchRng;
  page.forEachHole(HoleKind::Headline, [&](std::string& headline) {
    headline.clear();
    appendPhrase(headline, rng, 5);
  });
}

// --- TimestampNoise ---------------------------------------------------------

void TimestampNoise::render(const RenderContext& context, Page& page) {
  const auto totalSeconds = context.clock->nowMs() / 1000;
  char buffer[16];
  std::snprintf(buffer, sizeof(buffer), "%02d:%02d:%02d",
                static_cast<int>((totalSeconds / 3600) % 24),
                static_cast<int>((totalSeconds / 60) % 60),
                static_cast<int>(totalSeconds % 60));
  page.forEachHole(HoleKind::Timestamp,
                   [&](std::string& stamp) { stamp = buffer; });
}

// --- LayoutShuffleNoise -----------------------------------------------------

LayoutShuffleNoise::LayoutShuffleNoise(double probability, int variants)
    : probability_(probability), variants_(std::max(1, variants)) {}

void LayoutShuffleNoise::render(const RenderContext& context, Page& page) {
  util::Pcg32& rng = *context.fetchRng;
  if (!rng.chance(probability_)) return;
  std::vector<Block>& main = page.main;
  if (main.empty()) return;

  // A structurally distinctive promo block lands at the top of <main>...
  const int variant = static_cast<int>(
      rng.uniform(0, static_cast<std::uint32_t>(variants_ - 1)));
  Block promo;
  appendPromoBlock(promo.html, rng, variant);
  main.insert(main.begin(), std::move(promo));

  // ...and the remaining sections rotate left (order matters to STM).
  const std::size_t count = main.size();
  if (count > 2) {
    const std::size_t shift =
        1 + rng.uniform(0, static_cast<std::uint32_t>(count - 2));
    std::rotate(main.begin() + 1,
                main.begin() + 1 + static_cast<std::ptrdiff_t>(
                                       shift % (count - 1)),
                main.end());
  }
  // Occasionally a whole section disappears for this fetch.
  if (main.size() > 2 && rng.chance(0.5)) main.pop_back();
}

}  // namespace cookiepicker::server
