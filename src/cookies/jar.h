// The browser cookie jar.
//
// Stores cookies keyed by (name, domain, path), applies domain/path matching
// when assembling Cookie request headers, and exposes the query and marking
// operations CookiePicker's FORCUM process needs: enumerate the persistent
// cookies a request would carry, mark a set of cookies useful, and purge the
// still-useless ones once a site's cookie set stabilizes.
//
// Thread safety: every public method locks an internal mutex, so concurrent
// store/mark/remove/serialize calls (the fleet's stress scenarios) never
// corrupt the map. The pointer-returning queries (`find`, `all`,
// `cookiesFor`, ...) hand out pointers to map nodes, which std::map keeps
// stable under unrelated inserts/erases — but a caller that holds such a
// pointer across a concurrent erase of *that* cookie must synchronize
// externally (one session per jar, or the CookiePicker-level lock).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "cookies/record.h"
#include "net/cookie_parse.h"
#include "net/url.h"
#include "store/state_sink.h"
#include "util/clock.h"

namespace cookiepicker::cookies {

// Filters applied when assembling a Cookie header.
struct SendOptions {
  bool includeSession = true;
  bool includePersistent = true;
  // When set, persistent cookies for which the predicate returns true are
  // *excluded*. This is how the hidden request strips the cookie group under
  // test, and how the final "blocked" state suppresses useless cookies.
  std::function<bool(const CookieRecord&)> excludePersistentIf;
};

enum class SetCookieOutcome { Stored, Updated, Deleted, Rejected };

// Capacity limits in the spirit of RFC 2109 §6.3 and Firefox 1.5's jar
// (per-domain and global caps, least-recently-accessed eviction). Useful
// cookies are evicted last: CookiePicker's marks double as an eviction
// shield for the cookies that matter.
struct JarLimits {
  std::size_t maxPerDomain = 50;
  std::size_t maxTotal = 1000;
};

class CookieJar {
 public:
  CookieJar() = default;
  // Copyable (deep copy of the records; each jar gets its own mutex) so the
  // fleet can merge per-session jars and loadState can replace a live jar.
  CookieJar(const CookieJar& other);
  CookieJar& operator=(const CookieJar& other);

  // Applies one Set-Cookie header received from `requestUrl`. `firstParty`
  // reflects whether the request was same-site with the top-level document.
  // Rejections: domain attribute that does not cover the request host, or
  // secure cookie over http is still stored (2007 semantics) — only the
  // domain rule rejects. A cookie already in the jar is updated in place,
  // keeping its creation time and useful mark. Lifetimes saturate: a
  // Max-Age or Expires too large for the millisecond clock stores the
  // latest representable expiry.
  SetCookieOutcome store(const net::SetCookie& parsed,
                         const net::Url& requestUrl, bool firstParty,
                         util::SimTimeMs nowMs);

  // Cookies that would be sent with a request to `url`, in RFC 6265 order
  // (longest path first, then earliest creation). Expired cookies are
  // purged in the same pass over the jar.
  std::vector<const CookieRecord*> cookiesFor(const net::Url& url,
                                              util::SimTimeMs nowMs,
                                              const SendOptions& options = {});

  // Formats the Cookie header for `url` (empty string if nothing matches),
  // writing each "name=value" straight from the matched records.
  std::string cookieHeaderFor(const net::Url& url, util::SimTimeMs nowMs,
                              const SendOptions& options = {});

  // --- inspection ---
  std::size_t size() const {
    std::lock_guard lock(mutex_);
    return cookies_.size();
  }
  const CookieRecord* find(const CookieKey& key) const;
  std::vector<const CookieRecord*> all() const;
  // Persistent cookies whose domain matches `host` (the per-site view used
  // by FORCUM).
  std::vector<const CookieRecord*> persistentCookiesForHost(
      const std::string& host) const;

  // --- mutation ---
  // Marks a cookie useful; returns false if the key is unknown. The mark is
  // monotone: marking an already-useful cookie is a no-op returning true.
  bool markUseful(const CookieKey& key);
  // Removes cookies matching the predicate; returns how many were removed.
  std::size_t removeIf(
      const std::function<bool(const CookieRecord&)>& predicate);
  // Drops all session cookies (simulates a browser restart).
  void endSession();
  // Drops expired persistent cookies.
  void purgeExpired(util::SimTimeMs nowMs);
  void clear() {
    std::lock_guard lock(mutex_);
    cookies_.clear();
  }

  // --- capacity ---
  void setLimits(JarLimits limits) {
    std::lock_guard lock(mutex_);
    limits_ = limits;
  }
  JarLimits limits() const {
    std::lock_guard lock(mutex_);
    return limits_;
  }
  // How many evictions the limits have forced so far.
  std::size_t evictionCount() const {
    std::lock_guard lock(mutex_);
    return evictions_;
  }

  // --- persistence (text format, one cookie per line) ---
  std::string serialize() const;
  // Skips malformed lines: a wrong field count, or an expiry or creation
  // time that is not a whole decimal integer.
  static CookieJar deserialize(const std::string& text);

  // --- durability ---
  // Installs the sink every subsequent jar mutation is described to: each
  // store/update emits a JarUpsert carrying the cookie's full serialized
  // line, each mark a CookieMarked, each removal (explicit, expiry, or
  // capacity eviction) a JarRemove. Null (the default) emits nothing and
  // costs one pointer test per mutation. The sink is per session and is
  // deliberately NOT copied with the jar: a fleet merge or a loadState
  // replacement must not silently re-route another session's durability.
  void setStateSink(store::StateSink* sink) {
    std::lock_guard lock(mutex_);
    sink_ = sink;
  }

 private:
  // Orders keys and (name, domain, path) views alike, so store() finds a
  // cookie without building a CookieKey first.
  struct KeyLess {
    using is_transparent = void;
    using Parts = std::tuple<std::string_view, std::string_view,
                             std::string_view>;
    static Parts parts(const CookieKey& key) {
      return {key.name, key.domain, key.path};
    }
    static const Parts& parts(const Parts& key) { return key; }
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      return parts(a) < parts(b);
    }
  };

  // Evicts until the per-domain count of `domain` and the total count are
  // within limits. Eviction order: unmarked before useful, then least
  // recently accessed. Caller holds mutex_.
  void enforceLimits(std::string_view domain);
  // Purges expired cookies and fills matches_ with the ones a request to
  // `url` carries, sorted, in one pass over the jar. Caller holds mutex_.
  void collectMatchesLocked(const net::Url& url, util::SimTimeMs nowMs,
                            const SendOptions& options);
  std::size_t removeIfLocked(
      const std::function<bool(const CookieRecord&)>& predicate);
  // Durability emitters; no-ops when no sink is installed. Caller holds
  // mutex_. `type` is JarUpsert or CookieMarked (both carry key + line).
  void emitUpsertLocked(const CookieKey& key, const CookieRecord& record,
                        store::RecordType type);
  void emitRemoveLocked(const CookieKey& key);

  mutable std::mutex mutex_;
  std::map<CookieKey, CookieRecord, KeyLess> cookies_;
  // collectMatchesLocked's output; kept, so its capacity is reused.
  std::vector<CookieRecord*> matches_;
  JarLimits limits_;
  std::size_t evictions_ = 0;
  store::StateSink* sink_ = nullptr;
};

// Default path when a Set-Cookie has no Path attribute: the request path up
// to (excluding) its last '/' segment, per RFC 6265 §5.1.4. A view of
// url.path(), or "/".
std::string_view defaultCookiePath(const net::Url& url);

// RFC 6265 §5.1.4 path matching.
bool pathMatches(const std::string& requestPath,
                 const std::string& cookiePath);

}  // namespace cookiepicker::cookies
