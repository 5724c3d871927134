// A rendered page view: what the regular browsing window holds after a page
// load, and what CookiePicker's step one records (container URI + headers).
#pragma once

#include <memory>
#include <vector>

#include "dom/snapshot.h"
#include "net/http.h"
#include "provenance/taint.h"
#include "util/clock.h"

namespace cookiepicker::browser {

struct FetchTiming {
  double containerLatencyMs = 0.0;     // container request round trip
  double subresourceLatencyMs = 0.0;   // wall time of the object fetch phase
  int subresourceCount = 0;
  int redirectCount = 0;
  double totalLoadMs = 0.0;            // container + subresources
};

struct PageView {
  // Final URL after following redirects — the "real initial container
  // document page" of Section 3.2, step one.
  net::Url url;
  // The container request exactly as sent (URI and header information saved
  // for replay as the hidden request).
  net::HttpRequest containerRequest;
  // Flattened detection view of the container page, built at parse time
  // (shared so reports and copies of the view alias one snapshot). Null
  // when the visit expected no comparison; Browser::snapshotOf then builds
  // it from `containerHtml`.
  std::shared_ptr<const dom::TreeSnapshot> snapshot;
  // Raw container HTML (kept for on-demand snapshots, audit evidence and
  // baselines that diff serialized text).
  std::string containerHtml;
  // Byte-range → cookie-label map for `containerHtml`, decoded from the
  // origin's X-Cookie-Provenance header. Null unless the browser asked for
  // provenance and the origin answered with a well-formed map.
  std::shared_ptr<const provenance::ProvenanceMap> provenance;
  std::vector<net::Url> subresources;
  FetchTiming timing;
  util::SimTimeMs loadedAtMs = 0;
  int status = 0;
};

}  // namespace cookiepicker::browser
