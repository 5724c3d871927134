#include "cookies/jar.h"

#include <algorithm>
#include <charconv>
#include <limits>

#include "obs/recorder.h"
#include "util/strings.h"

namespace cookiepicker::cookies {

namespace {

// One serialized jar line (no trailing newline). Shared by serialize() and
// the durability emitters, so a line replayed from the WAL is byte-identical
// to the same cookie's line in a serialize() blob.
void appendCookieLine(std::string& out, const CookieKey& key,
                      const CookieRecord& record) {
  util::appendParts(
      out, {key.name, "\t", record.value, "\t", key.domain, "\t", key.path,
            "\t", record.hostOnly ? "1" : "0", "\t",
            record.secure ? "1" : "0", "\t", record.httpOnly ? "1" : "0",
            "\t", record.persistent ? "1" : "0", "\t",
            std::to_string(record.expiryMs), "\t",
            std::to_string(record.creationMs), "\t",
            record.firstParty ? "1" : "0", "\t",
            record.useful ? "1" : "0"});
}

// a * b and a + b, clamped to the SimTimeMs range instead of overflowing:
// a lifetime too long for the millisecond clock ends at its last tick.
util::SimTimeMs saturatingMul(std::int64_t a, std::int64_t b) {
  util::SimTimeMs product = 0;
  if (!__builtin_mul_overflow(a, b, &product)) return product;
  return (a < 0) != (b < 0) ? std::numeric_limits<util::SimTimeMs>::min()
                            : std::numeric_limits<util::SimTimeMs>::max();
}

util::SimTimeMs saturatingAdd(std::int64_t a, std::int64_t b) {
  util::SimTimeMs sum = 0;
  if (!__builtin_add_overflow(a, b, &sum)) return sum;
  return b < 0 ? std::numeric_limits<util::SimTimeMs>::min()
               : std::numeric_limits<util::SimTimeMs>::max();
}

// A whole field as a decimal integer, as FORCUM's parseCount reads counts:
// no sign but '-', no trailing bytes.
bool parseWholeInt64(std::string_view field, std::int64_t& value) {
  const char* end = field.data() + field.size();
  const auto [last, error] = std::from_chars(field.data(), end, value);
  return error == std::errc() && last == end;
}

// Escaped "name|domain|path" — the WAL's jar record key, matching the
// FORCUM state format's cookie-key rendering.
std::string cookieStateKey(const CookieKey& key) {
  std::string out;
  util::appendEscapedStateField(out, key.name);
  out += '|';
  util::appendEscapedStateField(out, key.domain);
  out += '|';
  util::appendEscapedStateField(out, key.path);
  return out;
}

}  // namespace

std::string_view defaultCookiePath(const net::Url& url) {
  const std::string_view path = url.path();
  const std::size_t lastSlash = path.rfind('/');
  if (lastSlash == std::string_view::npos || lastSlash == 0) return "/";
  return path.substr(0, lastSlash);
}

bool pathMatches(const std::string& requestPath,
                 const std::string& cookiePath) {
  if (requestPath == cookiePath) return true;
  if (requestPath.size() > cookiePath.size() &&
      requestPath.compare(0, cookiePath.size(), cookiePath) == 0) {
    if (cookiePath.back() == '/') return true;
    return requestPath[cookiePath.size()] == '/';
  }
  return false;
}

CookieJar::CookieJar(const CookieJar& other) {
  std::lock_guard lock(other.mutex_);
  cookies_ = other.cookies_;
  limits_ = other.limits_;
  evictions_ = other.evictions_;
  // sink_ stays null: a copy is a new session's jar, not the emitter.
}

CookieJar& CookieJar::operator=(const CookieJar& other) {
  if (this == &other) return *this;
  std::scoped_lock lock(mutex_, other.mutex_);
  cookies_ = other.cookies_;
  limits_ = other.limits_;
  evictions_ = other.evictions_;
  // sink_ deliberately kept: loadState replaces a live jar's contents via
  // assignment, and the session's durability wiring must survive that.
  return *this;
}

void CookieJar::emitUpsertLocked(const CookieKey& key,
                                 const CookieRecord& record,
                                 store::RecordType type) {
  if (sink_ == nullptr) return;
  std::string body = cookieStateKey(key);
  body.push_back('\t');
  appendCookieLine(body, key, record);
  sink_->append(type, body);
}

void CookieJar::emitRemoveLocked(const CookieKey& key) {
  if (sink_ == nullptr) return;
  sink_->append(store::RecordType::JarRemove, cookieStateKey(key));
}

SetCookieOutcome CookieJar::store(const net::SetCookie& parsed,
                                  const net::Url& requestUrl, bool firstParty,
                                  util::SimTimeMs nowMs) {
  std::string_view domain = requestUrl.host();
  const bool hostOnly = !parsed.domain.has_value();
  if (!hostOnly) {
    // The declared domain must cover the request host, otherwise the cookie
    // is rejected (same rule browsers enforce).
    if (!net::hostMatchesDomain(requestUrl.host(), *parsed.domain)) {
      return SetCookieOutcome::Rejected;
    }
    domain = *parsed.domain;
  }
  const std::string_view path =
      parsed.path.has_value() ? *parsed.path : defaultCookiePath(requestUrl);

  // Max-Age takes precedence over Expires; either makes it persistent.
  bool persistent = false;
  util::SimTimeMs expiryMs = 0;
  if (parsed.maxAgeSeconds.has_value()) {
    persistent = true;
    expiryMs =
        saturatingAdd(nowMs, saturatingMul(*parsed.maxAgeSeconds, 1000));
  } else if (parsed.expiresEpochSeconds.has_value()) {
    persistent = true;
    expiryMs = saturatingMul(*parsed.expiresEpochSeconds, 1000);
  }

  std::lock_guard lock(mutex_);
  const auto existing =
      cookies_.find(KeyLess::Parts{parsed.name, domain, path});
  // An already-expired cookie (Max-Age <= 0 or past Expires) is a deletion
  // request.
  if (persistent && expiryMs <= nowMs) {
    if (existing != cookies_.end()) {
      emitRemoveLocked(existing->first);
      cookies_.erase(existing);
      obs::gaugeSet(obs::Gauge::JarCookies,
                    static_cast<std::int64_t>(cookies_.size()));
      return SetCookieOutcome::Deleted;
    }
    return SetCookieOutcome::Rejected;
  }

  if (existing != cookies_.end()) {
    // Updated in place. Creation time and — critically for FORCUM — the
    // useful mark are kept.
    CookieRecord& record = existing->second;
    record.value.assign(parsed.value);
    record.hostOnly = hostOnly;
    record.secure = parsed.secure;
    record.httpOnly = parsed.httpOnly;
    record.persistent = persistent;
    record.expiryMs = expiryMs;
    record.lastAccessMs = nowMs;
    record.firstParty = firstParty;
    emitUpsertLocked(record.key, record, store::RecordType::JarUpsert);
    return SetCookieOutcome::Updated;
  }
  CookieRecord record;
  record.key = {std::string(parsed.name), std::string(domain),
                std::string(path)};
  record.value = parsed.value;
  record.hostOnly = hostOnly;
  record.secure = parsed.secure;
  record.httpOnly = parsed.httpOnly;
  record.persistent = persistent;
  record.expiryMs = expiryMs;
  record.creationMs = nowMs;
  record.lastAccessMs = nowMs;
  record.firstParty = firstParty;
  const auto inserted = cookies_.emplace(record.key, std::move(record)).first;
  emitUpsertLocked(inserted->first, inserted->second,
                   store::RecordType::JarUpsert);
  // `domain` views the header or the URL, so it outlives an eviction of the
  // new cookie itself.
  enforceLimits(domain);
  obs::gaugeSet(obs::Gauge::JarCookies,
                static_cast<std::int64_t>(cookies_.size()));
  return SetCookieOutcome::Stored;
}

void CookieJar::enforceLimits(std::string_view domain) {
  // Eviction preference: unmarked cookies before useful ones, then least
  // recently accessed — so the jar pressure a tracker-happy site creates
  // cannot push out the cookies CookiePicker decided to keep.
  auto evictFrom = [this](const std::function<bool(const CookieRecord&)>&
                              inScope) {
    const CookieRecord* victim = nullptr;
    for (const auto& [key, record] : cookies_) {
      if (!inScope(record)) continue;
      if (victim == nullptr ||
          (record.useful == victim->useful
               ? record.lastAccessMs < victim->lastAccessMs
               : !record.useful && victim->useful)) {
        victim = &record;
      }
    }
    if (victim != nullptr) {
      const CookieKey evictedKey = victim->key;
      cookies_.erase(evictedKey);
      emitRemoveLocked(evictedKey);
      ++evictions_;
      obs::count(obs::Counter::JarEvictions);
    }
  };

  auto domainCount = [this, &domain]() {
    std::size_t count = 0;
    for (const auto& [key, record] : cookies_) {
      if (key.domain == domain) ++count;
    }
    return count;
  };
  while (domainCount() > limits_.maxPerDomain) {
    evictFrom([&domain](const CookieRecord& record) {
      return record.key.domain == domain;
    });
  }
  while (cookies_.size() > limits_.maxTotal) {
    evictFrom([](const CookieRecord&) { return true; });
  }
}

void CookieJar::collectMatchesLocked(const net::Url& url,
                                     util::SimTimeMs nowMs,
                                     const SendOptions& options) {
  matches_.clear();
  std::size_t removed = 0;
  for (auto it = cookies_.begin(); it != cookies_.end();) {
    const CookieKey& key = it->first;
    CookieRecord& record = it->second;
    if (record.isExpired(nowMs)) {
      emitRemoveLocked(key);
      it = cookies_.erase(it);
      ++removed;
      continue;
    }
    ++it;
    const bool domainOk =
        record.hostOnly
            ? util::equalsIgnoreCase(url.host(), key.domain)
            : net::hostMatchesDomain(url.host(), key.domain);
    if (!domainOk) continue;
    if (!pathMatches(url.path(), key.path)) continue;
    if (record.secure && !url.isSecure()) continue;
    if (record.persistent) {
      if (!options.includePersistent) continue;
      if (options.excludePersistentIf && options.excludePersistentIf(record)) {
        continue;
      }
    } else {
      if (!options.includeSession) continue;
    }
    record.lastAccessMs = nowMs;
    matches_.push_back(&record);
  }
  if (removed > 0) {
    obs::gaugeSet(obs::Gauge::JarCookies,
                  static_cast<std::int64_t>(cookies_.size()));
  }
  std::sort(matches_.begin(), matches_.end(),
            [](const CookieRecord* a, const CookieRecord* b) {
              if (a->key.path.size() != b->key.path.size()) {
                return a->key.path.size() > b->key.path.size();
              }
              if (a->creationMs != b->creationMs) {
                return a->creationMs < b->creationMs;
              }
              return a->key < b->key;
            });
}

std::vector<const CookieRecord*> CookieJar::cookiesFor(
    const net::Url& url, util::SimTimeMs nowMs, const SendOptions& options) {
  std::lock_guard lock(mutex_);
  collectMatchesLocked(url, nowMs, options);
  return {matches_.begin(), matches_.end()};
}

std::string CookieJar::cookieHeaderFor(const net::Url& url,
                                       util::SimTimeMs nowMs,
                                       const SendOptions& options) {
  std::lock_guard lock(mutex_);
  collectMatchesLocked(url, nowMs, options);
  std::size_t size = 0;
  for (const CookieRecord* record : matches_) {
    size += record->key.name.size() + 1 + record->value.size() + 2;
  }
  std::string header;
  if (size == 0) return header;
  header.reserve(size - 2);
  for (const CookieRecord* record : matches_) {
    if (!header.empty()) header += "; ";
    header += record->key.name;
    header += '=';
    header += record->value;
  }
  return header;
}

const CookieRecord* CookieJar::find(const CookieKey& key) const {
  std::lock_guard lock(mutex_);
  const auto it = cookies_.find(key);
  return it == cookies_.end() ? nullptr : &it->second;
}

std::vector<const CookieRecord*> CookieJar::all() const {
  std::lock_guard lock(mutex_);
  std::vector<const CookieRecord*> records;
  records.reserve(cookies_.size());
  for (const auto& [key, record] : cookies_) records.push_back(&record);
  return records;
}

std::vector<const CookieRecord*> CookieJar::persistentCookiesForHost(
    const std::string& host) const {
  std::lock_guard lock(mutex_);
  std::vector<const CookieRecord*> records;
  for (const auto& [key, record] : cookies_) {
    if (!record.persistent) continue;
    const bool domainOk = record.hostOnly
                              ? util::equalsIgnoreCase(host, key.domain)
                              : net::hostMatchesDomain(host, key.domain);
    if (domainOk) records.push_back(&record);
  }
  return records;
}

bool CookieJar::markUseful(const CookieKey& key) {
  std::lock_guard lock(mutex_);
  const auto it = cookies_.find(key);
  if (it == cookies_.end()) return false;
  it->second.useful = true;
  emitUpsertLocked(key, it->second, store::RecordType::CookieMarked);
  return true;
}

std::size_t CookieJar::removeIfLocked(
    const std::function<bool(const CookieRecord&)>& predicate) {
  std::size_t removed = 0;
  for (auto it = cookies_.begin(); it != cookies_.end();) {
    if (predicate(it->second)) {
      emitRemoveLocked(it->first);
      it = cookies_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  if (removed > 0) {
    obs::gaugeSet(obs::Gauge::JarCookies,
                  static_cast<std::int64_t>(cookies_.size()));
  }
  return removed;
}

std::size_t CookieJar::removeIf(
    const std::function<bool(const CookieRecord&)>& predicate) {
  std::lock_guard lock(mutex_);
  return removeIfLocked(predicate);
}

void CookieJar::endSession() {
  removeIf([](const CookieRecord& record) { return !record.persistent; });
}

void CookieJar::purgeExpired(util::SimTimeMs nowMs) {
  removeIf([nowMs](const CookieRecord& record) {
    return record.isExpired(nowMs);
  });
}

std::string CookieJar::serialize() const {
  // Tab-separated, one cookie per line:
  // name value domain path hostOnly secure httpOnly persistent expiry
  // creation firstParty useful
  std::lock_guard lock(mutex_);
  std::string out;
  for (const auto& [key, record] : cookies_) {
    appendCookieLine(out, key, record);
    out.push_back('\n');
  }
  return out;
}

CookieJar CookieJar::deserialize(const std::string& text) {
  CookieJar jar;
  for (const std::string& line : util::split(text, '\n')) {
    if (line.empty()) continue;
    const std::vector<std::string> fields = util::split(line, '\t');
    if (fields.size() != 12) continue;  // skip malformed lines
    CookieRecord record;
    record.key.name = fields[0];
    record.value = fields[1];
    record.key.domain = fields[2];
    record.key.path = fields[3];
    record.hostOnly = fields[4] == "1";
    record.secure = fields[5] == "1";
    record.httpOnly = fields[6] == "1";
    record.persistent = fields[7] == "1";
    if (!parseWholeInt64(fields[8], record.expiryMs) ||
        !parseWholeInt64(fields[9], record.creationMs)) {
      continue;  // a time that is not a whole integer: malformed too
    }
    record.firstParty = fields[10] == "1";
    record.useful = fields[11] == "1";
    jar.cookies_.emplace(record.key, record);
  }
  return jar;
}

}  // namespace cookiepicker::cookies
