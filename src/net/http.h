// HTTP message types: case-insensitive header map, request, response.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/url.h"

namespace cookiepicker::net {

// Ordered, case-insensitive multimap, as HTTP headers are. Multiple values
// per name are kept in insertion order (needed for Set-Cookie).
class HeaderMap {
 public:
  struct Entry {
    std::string name;   // original case preserved for serialization
    std::string value;
  };

  // Appends a header line; the value moves in when passed as an rvalue.
  void add(std::string_view name, std::string value);
  // Replaces all existing values for `name` with a single value.
  void set(std::string_view name, std::string_view value);
  void remove(std::string_view name);
  void reserve(std::size_t lines) { entries_.reserve(lines); }

  // First value for `name`, if any.
  std::optional<std::string> get(std::string_view name) const;
  // The same value in place, or null: valid until the map changes.
  const std::string* find(std::string_view name) const;
  std::vector<std::string> getAll(std::string_view name) const;
  bool has(std::string_view name) const { return find(name) != nullptr; }

  const std::vector<Entry>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }

 private:
  std::vector<Entry> entries_;
};

// What role a request plays in the page-load pipeline. Not wire data — the
// browser tags requests so the network's fault-injection schedules can be
// scoped per request kind (a plan that drops hidden refetches must not
// touch the container the user is looking at).
enum class RequestKind : std::uint8_t {
  Container,    // container page (and redirect follows)
  Subresource,  // embedded object fetch
  Hidden,       // FORCUM hidden refetch / consistency re-probe
};

struct HttpRequest {
  std::string method = "GET";
  Url url;
  HeaderMap headers;
  std::string body;
  RequestKind kind = RequestKind::Container;
  // Retry ordinal: 0 = first try. Retries share the first attempt's logical
  // fault-schedule index (see faults::HostFaultState).
  int attempt = 0;

  // The Cookie request header, or empty if absent, read in place (valid
  // until the headers change). Convenience used throughout the server code.
  const std::string& cookieHeader() const;
};

struct HttpResponse {
  int status = 200;
  std::string statusText = "OK";
  HeaderMap headers;
  std::string body;
  // Simulated server-side processing time, added to the network latency by
  // dispatch(). Lets handlers model expensive work — e.g. the paper's P2
  // site recomputing query results when the cache cookie is absent.
  double serverProcessingMs = 0.0;

  bool isRedirect() const {
    return status == 301 || status == 302 || status == 303 || status == 307 ||
           status == 308;
  }
  std::vector<std::string> setCookieHeaders() const {
    return headers.getAll("Set-Cookie");
  }

  static HttpResponse ok(std::string body,
                         std::string contentType = "text/html");
  static HttpResponse notFound(const std::string& path);
  // A bare "<h1>NNN statusText</h1>" HTML page under that status line.
  static HttpResponse error(int status, std::string statusText);
  static HttpResponse redirect(const std::string& location, int status = 302);
};

// Serialize to wire-format text (header bytes count toward transfer size).
std::string toWireFormat(const HttpRequest& request);
std::string toWireFormat(const HttpResponse& response);

// toWireFormat(x).size(), computed from the parts without building the
// string — what the transports' byte accounting charges per exchange.
std::size_t wireSize(const HttpRequest& request);
std::size_t wireSize(const HttpResponse& response);

}  // namespace cookiepicker::net
