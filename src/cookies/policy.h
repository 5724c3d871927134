// Browser cookie acceptance policy.
//
// Section 2 of the paper: disabling third-party cookies and enabling
// first-party session cookies are solved problems; the hard case CookiePicker
// addresses is first-party *persistent* cookies. The policy type captures
// those browser privacy options; CookiePicker's per-cookie decisions layer on
// top via the jar's `useful` marks.
#pragma once

#include <string>

#include "net/url.h"

namespace cookiepicker::cookies {

struct CookiePolicy {
  bool acceptFirstPartySession = true;
  bool acceptFirstPartyPersistent = true;
  bool acceptThirdParty = false;   // both session and persistent

  // The paper's recommended baseline: block third-party, allow first-party,
  // let CookiePicker manage first-party persistent usage.
  static CookiePolicy recommended() { return CookiePolicy{}; }
  static CookiePolicy acceptAll() {
    return CookiePolicy{true, true, true};
  }
  static CookiePolicy blockAll() {
    return CookiePolicy{false, false, false};
  }

  bool shouldAccept(bool firstParty, bool persistent) const {
    if (!firstParty) return acceptThirdParty;
    return persistent ? acceptFirstPartyPersistent : acceptFirstPartySession;
  }
};

// A request is first-party when its host shares a registrable domain with
// the top-level document the user is visiting. The domains are compared as
// views of the hosts; the same host needs no comparison at all.
inline bool isFirstParty(const net::Url& requestUrl,
                         const net::Url& documentUrl) {
  return requestUrl.host() == documentUrl.host() ||
         net::registrableDomain(requestUrl.host()) ==
             net::registrableDomain(documentUrl.host());
}

}  // namespace cookiepicker::cookies
