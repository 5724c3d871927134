#include "net/url.h"

#include <charconv>

#include "util/strings.h"

namespace cookiepicker::net {

using util::toLowerAscii;

std::optional<Url> Url::parse(std::string_view text) {
  const std::size_t schemeEnd = text.find("://");
  if (schemeEnd == std::string_view::npos || schemeEnd == 0) {
    return std::nullopt;
  }
  Url url;
  url.scheme_ = toLowerAscii(text.substr(0, schemeEnd));
  if (url.scheme_ != "http" && url.scheme_ != "https") return std::nullopt;
  url.port_ = url.scheme_ == "https" ? 443 : 80;

  std::string_view rest = text.substr(schemeEnd + 3);
  const std::size_t authorityEnd = rest.find_first_of("/?#");
  std::string_view authority = rest.substr(0, authorityEnd);
  if (authority.empty()) return std::nullopt;

  const std::size_t colon = authority.rfind(':');
  if (colon != std::string_view::npos) {
    const std::string_view portText = authority.substr(colon + 1);
    unsigned int port = 0;
    const auto [ptr, ec] = std::from_chars(
        portText.data(), portText.data() + portText.size(), port);
    if (ec == std::errc() && ptr == portText.data() + portText.size() &&
        port > 0 && port <= 65535) {
      url.port_ = static_cast<std::uint16_t>(port);
      authority = authority.substr(0, colon);
    }
  }
  url.host_ = toLowerAscii(authority);
  if (url.host_.empty()) return std::nullopt;

  if (authorityEnd == std::string_view::npos) {
    return url;
  }
  rest = rest.substr(authorityEnd);
  const std::size_t fragment = rest.find('#');
  if (fragment != std::string_view::npos) rest = rest.substr(0, fragment);

  const std::size_t queryStart = rest.find('?');
  if (queryStart == std::string_view::npos) {
    url.path_ = rest.empty() ? "/" : std::string(rest);
  } else {
    const std::string_view pathPart = rest.substr(0, queryStart);
    url.path_ = pathPart.empty() ? "/" : std::string(pathPart);
    url.query_ = std::string(rest.substr(queryStart + 1));
  }
  if (url.path_.empty() || url.path_[0] != '/') {
    url.path_ = "/" + url.path_;
  }
  return url;
}

Url Url::resolve(std::string_view reference) const {
  if (auto absolute = Url::parse(reference)) {
    return *absolute;
  }
  Url resolved = *this;
  resolved.query_.clear();
  if (reference.empty()) return resolved;

  if (reference.size() >= 2 && reference[0] == '/' && reference[1] == '/') {
    // Protocol-relative: "//host/path".
    if (auto absolute = Url::parse(std::string(scheme_) + ":" +
                                   std::string(reference))) {
      return *absolute;
    }
    return resolved;
  }
  const std::size_t fragment = reference.find('#');
  if (fragment != std::string_view::npos) {
    reference = reference.substr(0, fragment);
  }
  std::string_view queryPart;
  const std::size_t queryStart = reference.find('?');
  if (queryStart != std::string_view::npos) {
    queryPart = reference.substr(queryStart + 1);
    reference = reference.substr(0, queryStart);
  }
  if (reference.empty()) {
    // Pure-query reference keeps the base path.
    resolved.query_ = std::string(queryPart);
    return resolved;
  }
  if (reference[0] == '/') {
    resolved.path_ = std::string(reference);
  } else {
    // Relative to the base path's directory.
    const std::size_t lastSlash = path_.rfind('/');
    resolved.path_ = path_.substr(0, lastSlash + 1) + std::string(reference);
  }
  resolved.query_ = std::string(queryPart);
  return resolved;
}

std::string Url::origin() const {
  std::string result;
  util::appendParts(result, {scheme_, "://", host_});
  if (!hasDefaultPort()) {
    util::appendParts(result, {":", std::to_string(port_)});
  }
  return result;
}

std::string Url::pathWithQuery() const {
  return query_.empty() ? path_ : path_ + "?" + query_;
}

std::string Url::toString() const { return origin() + pathWithQuery(); }

std::string_view registrableDomain(std::string_view host) {
  const std::size_t lastDot = host.rfind('.');
  if (lastDot == std::string_view::npos || lastDot == 0) return host;
  const std::size_t secondLastDot = host.rfind('.', lastDot - 1);
  if (secondLastDot == std::string_view::npos) return host;
  return host.substr(secondLastDot + 1);
}

bool hostMatchesDomain(std::string_view host, std::string_view domain) {
  if (domain.empty()) return false;
  // Leading dot in cookie Domain attributes is ignored (RFC 6265 behaviour).
  if (domain[0] == '.') domain = domain.substr(1);
  if (util::equalsIgnoreCase(host, domain)) return true;
  if (host.size() <= domain.size()) return false;
  const std::string_view suffix = host.substr(host.size() - domain.size());
  return util::equalsIgnoreCase(suffix, domain) &&
         host[host.size() - domain.size() - 1] == '.';
}

}  // namespace cookiepicker::net
