// Set-Cookie / Cookie header parsing and formatting.
//
// Follows the RFC 2109 / Netscape-draft semantics the paper's era browsers
// implemented, with the RFC 6265 clarifications that match Firefox
// behaviour (Max-Age wins over Expires, leading-dot domains tolerated).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cookiepicker::net {

// One parsed Set-Cookie header. The name, value and path are views into
// the parsed header and valid only while it lives; the domain is an owned,
// lower-cased copy (it becomes a jar key, and keys are lower case).
struct SetCookie {
  std::string_view name;
  std::string_view value;
  std::optional<std::string> domain;       // lowercase, leading dot dropped
  std::optional<std::string_view> path;
  std::optional<std::int64_t> maxAgeSeconds;
  std::optional<std::int64_t> expiresEpochSeconds;  // from Expires attribute
  bool secure = false;
  bool httpOnly = false;
};

// Parses a single Set-Cookie header value. Returns nullopt when there is no
// name=value pair at all (empty or attribute-only headers).
std::optional<SetCookie> parseSetCookie(std::string_view header);

// One name=value pair of a Cookie request header.
using CookiePair = std::pair<std::string_view, std::string_view>;

// Parses a Cookie request header ("a=1; b=2") into name/value pairs, in
// header order, as views into `header`: valid only while it lives. A name
// may repeat.
std::vector<CookiePair> parseCookieHeader(std::string_view header);

// Formats name/value pairs into a Cookie header.
std::string formatCookieHeader(const std::vector<CookiePair>& cookies);

// Parses the RFC 1123 / RFC 850 / asctime date formats used by Expires
// ("Sun, 06 Nov 1994 08:49:37 GMT"). Returns seconds since the Unix epoch,
// or nullopt if unparseable. The simulation treats its epoch as the Unix
// epoch, so these values are directly comparable to SimClock time. A date
// too late for its seconds to fit in 64 bits saturates to the int64 maximum.
std::optional<std::int64_t> parseHttpDate(std::string_view text);

// Formats seconds-since-epoch as an RFC 1123 date.
std::string formatHttpDate(std::int64_t epochSeconds);

}  // namespace cookiepicker::net
