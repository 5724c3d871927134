#include "net/transport.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace cookiepicker::net {

bool bodyTruncated(const HttpResponse& response) {
  const auto contentLength = response.headers.get("Content-Length");
  if (!contentLength.has_value()) return false;
  char* end = nullptr;
  const unsigned long long declared =
      std::strtoull(contentLength->c_str(), &end, 10);
  if (end == contentLength->c_str()) return false;
  return declared > response.body.size();
}

double backoffMs(const RetrySpec& spec, int attempt, util::Pcg32& rng) {
  double backoff = std::min(
      spec.initialBackoffMs *
          std::pow(spec.backoffMultiplier, static_cast<double>(attempt)),
      spec.maxBackoffMs);
  backoff += backoff * spec.jitterFraction * (2.0 * rng.uniform01() - 1.0);
  return backoff;
}

std::string fetchFailureReason(const HttpResponse& response) {
  if (response.status == 0) {
    // Transport failure: the injected fault names itself via statusText.
    return response.statusText.empty() ? std::string("transport-error")
                                       : response.statusText;
  }
  if (response.status >= 500) {
    return "http-" + std::to_string(response.status);
  }
  if (bodyTruncated(response)) return "truncated-body";
  return {};
}

faults::Scope faultScope(RequestKind kind) {
  switch (kind) {
    case RequestKind::Container: return faults::Scope::Container;
    case RequestKind::Subresource: return faults::Scope::Subresource;
    case RequestKind::Hidden: return faults::Scope::Hidden;
  }
  return faults::Scope::Container;
}

bool shortCircuits(faults::Action action) {
  return action == faults::Action::ServerError ||
         action == faults::Action::ConnectionDrop ||
         action == faults::Action::Timeout;
}

util::Pcg32 hostStream(std::uint64_t seed, std::string_view host) {
  return util::Pcg32(seed, /*sequence=*/0x6e657477UL).fork(host);
}

HttpResponse serverErrorPage(int status) {
  return HttpResponse::error(
      status, status == 503 ? "Service Unavailable" : "Server Error");
}

bool corruptSetCookies(HttpResponse& response, util::Pcg32& rng) {
  std::vector<std::string> values = response.setCookieHeaders();
  if (values.empty()) return false;
  response.headers.remove("Set-Cookie");
  for (std::string& value : values) {
    // A handful of bytes become arbitrary printable characters: the name,
    // the value, an '=' or a ';', so downstream parsers see every flavour
    // of garbage, a pure function of the host's stream.
    if (value.empty()) {
      value.assign(1, '\x01');
    } else {
      const std::uint32_t mutations = 1 + rng.uniform(
          0, static_cast<std::uint32_t>(value.size() > 4 ? 3 : 1));
      for (std::uint32_t m = 0; m < mutations; ++m) {
        const std::uint32_t pos =
            rng.uniform(0, static_cast<std::uint32_t>(value.size() - 1));
        value[pos] = static_cast<char>(rng.uniform(33, 126));
      }
    }
    response.headers.add("Set-Cookie", std::move(value));
  }
  return true;
}

}  // namespace cookiepicker::net
