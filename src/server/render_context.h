// Per-request rendering context handed to site behaviors.
#pragma once

#include <string_view>
#include <vector>

#include "net/cookie_parse.h"
#include "net/http.h"
#include "provenance/taint.h"
#include "util/clock.h"
#include "util/rng.h"

namespace cookiepicker::server {

struct RenderContext {
  const net::HttpRequest* request = nullptr;
  // The request path, e.g. "/page3"; a view into `request`.
  std::string_view path;
  // Cookies the client sent, in header order: views into the request's
  // Cookie header. A name sent twice reads as its last value.
  std::vector<net::CookiePair> cookies;
  util::SimClock* clock = nullptr;
  // Fresh stream per fetch: noise sources draw from this, so two fetches of
  // the same page (e.g. the regular and the hidden copy) see different ads.
  util::Pcg32* fetchRng = nullptr;
  // Stable stream per (site, path): the page skeleton draws from this, so
  // the page's *structure* is identical across fetches unless a behavior
  // deliberately changes it.
  util::Pcg32* stableRng = nullptr;
  // Set only when the client asked for provenance: behaviors label the DOM
  // they emit with the taint of every cookie they *read* (present or absent
  // — the branch itself is the information flow). Null on ordinary requests,
  // so the baseline render path is untouched.
  provenance::TaintRecorder* taint = nullptr;

  // Taint label for a cookie read; 0 when no recorder is attached, so
  // behaviors can mark unconditionally.
  provenance::LabelSet taintFor(const std::string& name) const {
    return taint == nullptr ? 0 : taint->labelFor(name);
  }

  bool hasCookie(std::string_view name) const {
    return lastCookie(name) != nullptr;
  }
  std::string_view cookieValue(std::string_view name) const {
    const net::CookiePair* cookie = lastCookie(name);
    return cookie == nullptr ? std::string_view() : cookie->second;
  }
  // How many different names the client sent.
  std::size_t distinctCookieCount() const {
    std::size_t count = 0;
    for (std::size_t i = 0; i < cookies.size(); ++i) {
      if (lastCookie(cookies[i].first) == &cookies[i]) ++count;
    }
    return count;
  }

 private:
  const net::CookiePair* lastCookie(std::string_view name) const {
    for (auto it = cookies.rbegin(); it != cookies.rend(); ++it) {
      if (it->first == name) return &*it;
    }
    return nullptr;
  }
};

}  // namespace cookiepicker::server
