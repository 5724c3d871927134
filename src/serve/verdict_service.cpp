#include "serve/verdict_service.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <optional>
#include <string_view>
#include <vector>

#include "cookies/jar.h"
#include "util/strings.h"

namespace cookiepicker::serve {

namespace {

int hexValue(char ch) {
  if (ch >= '0' && ch <= '9') return ch - '0';
  if (ch >= 'a' && ch <= 'f') return ch - 'a' + 10;
  if (ch >= 'A' && ch <= 'F') return ch - 'A' + 10;
  return -1;
}

// Percent-decodes one query component ('+' stays literal). Fails on a
// malformed escape ("%zz", a truncated "%4") and on any decoded control
// byte, so "%00" cannot smuggle a NUL into a host name.
std::optional<std::string> percentDecode(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    char ch = text[i];
    if (ch == '%') {
      if (i + 2 >= text.size()) return std::nullopt;
      const int high = hexValue(text[i + 1]);
      const int low = hexValue(text[i + 2]);
      if (high < 0 || low < 0) return std::nullopt;
      ch = static_cast<char>(high * 16 + low);
      i += 2;
    }
    const auto byte = static_cast<unsigned char>(ch);
    if (byte < 0x20 || byte == 0x7f) return std::nullopt;
    out.push_back(ch);
  }
  return out;
}

using QueryParams = std::vector<std::pair<std::string, std::string>>;

// Splits "a=1&b=2" into decoded (key, value) pairs; pairs without '=' are
// ignored. nullopt when any key or value fails to decode.
std::optional<QueryParams> parseQuery(std::string_view query) {
  QueryParams params;
  std::size_t pos = 0;
  while (pos <= query.size()) {
    std::size_t amp = query.find('&', pos);
    if (amp == std::string_view::npos) amp = query.size();
    const std::string_view pair = query.substr(pos, amp - pos);
    pos = amp + 1;
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos) continue;
    auto key = percentDecode(pair.substr(0, eq));
    auto value = percentDecode(pair.substr(eq + 1));
    if (!key || !value) return std::nullopt;
    params.emplace_back(std::move(*key), std::move(*value));
  }
  return params;
}

// The first value for `key`, or empty.
std::string queryParam(const QueryParams& params, std::string_view key) {
  for (const auto& [name, value] : params) {
    if (name == key) return value;
  }
  return std::string();
}

std::string jsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void appendNameArray(std::string& json, const char* field,
                     const std::vector<std::string>& names) {
  json += "\"";
  json += field;
  json += "\":[";
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) json += ',';
    json += '"';
    json += jsonEscape(names[i]);
    json += '"';
  }
  json += "]";
}

// The verdict's "knowledge" field, indexed by core::KnowledgeOutcome.
constexpr const char* kKnowledgeOutcomes[] = {"unconsulted", "warm", "cold",
                                              "demoted"};

net::HttpResponse jsonResponse(int status, std::string body) {
  net::HttpResponse response;
  response.status = status;
  response.statusText = status == 200 ? "OK" : "Bad Request";
  response.headers.set("Content-Type", "application/json");
  response.body = std::move(body);
  return response;
}

}  // namespace

VerdictService::VerdictService(net::Transport& transport,
                               VerdictServiceConfig config)
    : transport_(transport), config_(std::move(config)) {}

void VerdictService::addHost(const std::string& host, int pageCount) {
  std::lock_guard<std::mutex> lock(mutex_);
  hostPages_[util::toLowerAscii(host)] = std::max(1, pageCount);
}

std::uint64_t VerdictService::sessionsRun() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sessionsRun_;
}

std::string VerdictService::runVerdict(const std::string& requestedHost,
                                       int views, std::string* jarText) {
  std::string name = util::toLowerAscii(requestedHost);
  int pages = 1;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = hostPages_.find(name);
    if (it == hostPages_.end()) return std::string();
    pages = it->second;
    ++sessionsRun_;
  }

  // The deterministic half of the verdict is a pure function of (seed,
  // host, views) — whatever transport carries the bytes.
  core::Session session(transport_, std::move(name), config_);
  const std::string& host = session.host();
  const int viewCount = std::max(1, views);
  session.run(viewCount, pages);
  const core::CookiePicker& picker = session.picker();
  const core::HostReport report = picker.report(host);
  const browser::Browser& browser = session.browser();
  if (jarText != nullptr) *jarText = browser.jar().serialize();

  std::vector<std::string> useful;
  std::vector<std::string> blocked;
  for (const cookies::CookieRecord* record :
       browser.jar().persistentCookiesForHost(host)) {
    (record->useful ? useful : blocked).push_back(record->key.name);
  }
  // Enforcement may have purged blocked cookies from the jar already; the
  // report's counts stay authoritative, the name lists are best-effort.
  std::sort(useful.begin(), useful.end());
  std::sort(blocked.begin(), blocked.end());

  std::string json = "{";
  json += "\"host\":\"" + jsonEscape(host) + "\",";
  json += "\"views\":" + std::to_string(viewCount) + ",";
  json += "\"persistentCookies\":" + std::to_string(report.persistentCookies) +
          ",";
  json += "\"markedUseful\":" + std::to_string(report.markedUseful) + ",";
  json += "\"pageViews\":" + std::to_string(report.pageViews) + ",";
  json += "\"hiddenRequests\":" + std::to_string(report.hiddenRequests) + ",";
  // What this session put on the wire; hiddenRequests above is FORCUM's
  // per-host counter, which a warm session imports from the crowd.
  json += "\"hiddenRequestsSent\":" +
          std::to_string(browser.hiddenRequestsSent()) + ",";
  json += std::string("\"trainingActive\":") +
          (report.trainingActive ? "true" : "false") + ",";
  json += std::string("\"enforced\":") + (report.enforced ? "true" : "false") +
          ",";
  appendNameArray(json, "usefulCookies", useful);
  json += ",";
  appendNameArray(json, "blockedCookies", blocked);
  // Only present when a shared base is attached, so knowledge-free
  // deployments keep their historical verdict bytes.
  if (config_.knowledge != nullptr) {
    json += ",\"knowledge\":\"";
    json += kKnowledgeOutcomes[static_cast<int>(picker.knowledgeOutcome(host))];
    json += '"';
  }
  json += "}";
  return json;
}

net::HttpResponse VerdictService::handle(const net::HttpRequest& request) {
  const std::string& path = request.url.path();
  if (path == "/healthz") {
    net::HttpResponse response;
    response.headers.set("Content-Type", "text/plain");
    response.body = "ok";
    return response;
  }
  if (path == "/stats") {
    return jsonResponse(
        200, "{\"sessionsRun\":" + std::to_string(sessionsRun()) + "}");
  }
  if (path == "/verdict") {
    const std::optional<QueryParams> params =
        parseQuery(request.url.query());
    if (!params) {
      return jsonResponse(400, "{\"error\":\"malformed query string\"}");
    }
    const std::string host = queryParam(*params, "host");
    if (host.empty()) {
      return jsonResponse(400, "{\"error\":\"missing host parameter\"}");
    }
    const std::string viewsText = queryParam(*params, "views");
    int views = config_.defaultViews;
    if (!viewsText.empty()) {
      const char* end = viewsText.data() + viewsText.size();
      const auto [last, error] = std::from_chars(viewsText.data(), end, views);
      if (error != std::errc() || last != end || views <= 0 ||
          views > kMaxVerdictViews) {
        return jsonResponse(
            400, "{\"error\":\"views must be an integer in 1.." +
                     std::to_string(kMaxVerdictViews) + "\"}");
      }
    }
    std::string verdict = runVerdict(host, views);
    if (verdict.empty()) {
      return jsonResponse(400, "{\"error\":\"unknown host\"}");
    }
    return jsonResponse(200, std::move(verdict));
  }
  return net::HttpResponse::notFound(path);
}

}  // namespace cookiepicker::serve
