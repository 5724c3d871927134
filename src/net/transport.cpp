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

}  // namespace cookiepicker::net
