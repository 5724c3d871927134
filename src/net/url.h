// URL parsing and resolution (http/https subset).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace cookiepicker::net {

class Url {
 public:
  Url() = default;

  // Parses an absolute URL ("http://host[:port]/path[?query]").
  // Returns nullopt if there is no scheme/host.
  static std::optional<Url> parse(std::string_view text);

  // Resolves `reference` against this base URL: absolute URLs pass through;
  // "//host/p", "/abs", "relative" and "?query" forms are supported.
  Url resolve(std::string_view reference) const;

  const std::string& scheme() const { return scheme_; }
  const std::string& host() const { return host_; }
  std::uint16_t port() const { return port_; }
  const std::string& path() const { return path_; }     // always begins '/'
  const std::string& query() const { return query_; }   // without '?'

  bool isSecure() const { return scheme_ == "https"; }
  bool hasDefaultPort() const {
    return (scheme_ == "http" && port_ == 80) ||
           (scheme_ == "https" && port_ == 443);
  }

  // "http://host[:port]" — the origin for same-origin checks.
  std::string origin() const;
  // Path plus "?query" — what goes on the HTTP request line.
  std::string pathWithQuery() const;
  std::string toString() const;

  bool operator==(const Url& other) const = default;

 private:
  std::string scheme_ = "http";
  std::string host_;
  std::uint16_t port_ = 80;
  std::string path_ = "/";
  std::string query_;
};

// Registrable-domain approximation: the last two labels of the host
// ("shop.example.com" → "example.com"), as a view of `host`. Good enough for
// the synthetic web, whose sites all use two-label registrable domains; real
// deployments need a public-suffix list.
std::string_view registrableDomain(std::string_view host);

// True if `host` is `domain` or a subdomain of it ("a.b.com" matches "b.com").
bool hostMatchesDomain(std::string_view host, std::string_view domain);

}  // namespace cookiepicker::net
