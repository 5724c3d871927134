// Composable per-site behaviors: cookie semantics and page dynamics.
//
// A WebSite owns a list of behaviors. For every request, each behavior may
// add response headers (onRequest — where cookies get set) and, for HTML
// container pages, edit the page model before it is emitted (render). The
// Table 1 / Table 2 rosters are assembled entirely from these pieces.
//
// A render draws from the RNG streams and calls taintFor() at the moment it
// runs, never later at emission: behaviors registered after it see, and may
// discard, what it drew, and label bits are numbered by first read.
#pragma once

#include <memory>
#include <string>

#include "net/http.h"
#include "server/page.h"
#include "server/render_context.h"

namespace cookiepicker::server {

class SiteBehavior {
 public:
  virtual ~SiteBehavior() = default;
  // Runs for every request (container pages and assets alike).
  virtual void onRequest(const RenderContext& context,
                         net::HttpResponse& response) {
    (void)context;
    (void)response;
  }
  // Runs for HTML container pages only; may edit the page model.
  virtual void render(const RenderContext& context, Page& page) {
    (void)context;
    (void)page;
  }
};

// --- cookie semantics ------------------------------------------------------

// A persistent cookie with no rendering effect: the classic tracker. If the
// request path starts with `setOnPathPrefix` and the cookie is missing, a
// Set-Cookie with Max-Age and Path=`cookiePath` goes out.
class TrackingCookieBehavior : public SiteBehavior {
 public:
  TrackingCookieBehavior(std::string cookieName,
                         std::int64_t maxAgeSeconds = 365LL * 86400,
                         std::string cookiePath = "/",
                         std::string setOnPathPrefix = "");
  void onRequest(const RenderContext& context,
                 net::HttpResponse& response) override;

 private:
  std::string cookieName_;
  std::int64_t maxAgeSeconds_;
  std::string cookiePath_;
  std::string setOnPathPrefix_;
};

// A session cookie maintaining a shopping-cart-style counter; exercises the
// first-party-session path CookiePicker must leave alone.
class SessionCartBehavior : public SiteBehavior {
 public:
  explicit SessionCartBehavior(std::string cookieName = "cart");
  void onRequest(const RenderContext& context,
                 net::HttpResponse& response) override;
  void render(const RenderContext& context, Page& page) override;

 private:
  std::string cookieName_;
};

// A *useful* persistent cookie: when present, the page is personalized
// (sidebar, recommendations, greeting). `intensity` scales how much of the
// page the personalization touches (1 = modest, 3 = page-dominating, for
// the P4-style very low similarity scores).
class PreferenceCookieBehavior : public SiteBehavior {
 public:
  PreferenceCookieBehavior(std::string cookieName, int intensity = 1,
                           std::int64_t maxAgeSeconds = 365LL * 86400,
                           std::string affectedPathPrefix = "");
  void onRequest(const RenderContext& context,
                 net::HttpResponse& response) override;
  void render(const RenderContext& context, Page& page) override;

 private:
  bool affectsPath(const std::string& path) const;
  std::string cookieName_;
  int intensity_;
  std::int64_t maxAgeSeconds_;
  std::string affectedPathPrefix_;
};

// A useful persistent cookie gating content behind a sign-up wall: without
// it, the whole page body is replaced by an account-creation form (the
// paper's P3/P5 "Sign Up" usage).
class SignUpWallBehavior : public SiteBehavior {
 public:
  explicit SignUpWallBehavior(std::string cookieName,
                              std::int64_t maxAgeSeconds = 365LL * 86400);
  void onRequest(const RenderContext& context,
                 net::HttpResponse& response) override;
  void render(const RenderContext& context, Page& page) override;

 private:
  std::string cookieName_;
  std::int64_t maxAgeSeconds_;
};

// The paper's P2 "Performance" usage: the cookie names a server-side cache
// of the user's recent query results. With the cookie the page embeds the
// cached result list; without it a "recomputing results" placeholder.
class QueryCacheBehavior : public SiteBehavior {
 public:
  explicit QueryCacheBehavior(std::string cookieName,
                              std::int64_t maxAgeSeconds = 365LL * 86400);
  void onRequest(const RenderContext& context,
                 net::HttpResponse& response) override;
  void render(const RenderContext& context, Page& page) override;

 private:
  std::string cookieName_;
  std::int64_t maxAgeSeconds_;
};

// --- page dynamics (noise) -------------------------------------------------

// Fills every ad slot with per-fetch rotating ad copy. With
// `structuralVariation` the filled markup shape also varies per fetch —
// harder noise, used by the noise ablation.
class AdRotationNoise : public SiteBehavior {
 public:
  explicit AdRotationNoise(bool structuralVariation = false);
  void render(const RenderContext& context, Page& page) override;

 private:
  bool structuralVariation_;
};

// Rewrites the text of every rotating headline per fetch —
// same-context text replacement, the case Formula 3's s term forgives.
class HeadlineRotationNoise : public SiteBehavior {
 public:
  void render(const RenderContext& context, Page& page) override;
};

// Writes the current simulated time into the timestamp hole ("14:52:07") —
// the date/time noise CVCE filters out.
class TimestampNoise : public SiteBehavior {
 public:
  void render(const RenderContext& context, Page& page) override;
};

// Upper-level layout dynamics: with probability `probability` per fetch,
// inserts a random structural promo variant at the top of <main> and
// rotates the order of its sections. This is the aggressive page dynamics
// that produced the paper's three false-useful sites (S1, S10, S27).
class LayoutShuffleNoise : public SiteBehavior {
 public:
  explicit LayoutShuffleNoise(double probability, int variants = 3);
  void render(const RenderContext& context, Page& page) override;

 private:
  double probability_;
  int variants_;
};

}  // namespace cookiepicker::server
