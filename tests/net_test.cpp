#include <gtest/gtest.h>

#include <algorithm>

#include "net/cookie_parse.h"
#include "net/http.h"
#include "net/network.h"
#include "net/transport.h"
#include "net/url.h"
#include "util/rng.h"

namespace cookiepicker::net {
namespace {

// --- Url ----------------------------------------------------------------

TEST(Url, ParsesBasicHttp) {
  const auto url = Url::parse("http://www.example.com/path?q=1");
  ASSERT_TRUE(url.has_value());
  EXPECT_EQ(url->scheme(), "http");
  EXPECT_EQ(url->host(), "www.example.com");
  EXPECT_EQ(url->port(), 80);
  EXPECT_EQ(url->path(), "/path");
  EXPECT_EQ(url->query(), "q=1");
}

TEST(Url, DefaultPortsByScheme) {
  EXPECT_EQ(Url::parse("http://a.com/")->port(), 80);
  EXPECT_EQ(Url::parse("https://a.com/")->port(), 443);
  EXPECT_TRUE(Url::parse("https://a.com/")->isSecure());
}

TEST(Url, ExplicitPort) {
  const auto url = Url::parse("http://a.com:8080/x");
  ASSERT_TRUE(url.has_value());
  EXPECT_EQ(url->port(), 8080);
  EXPECT_FALSE(url->hasDefaultPort());
  EXPECT_EQ(url->origin(), "http://a.com:8080");
}

TEST(Url, HostLowercased) {
  EXPECT_EQ(Url::parse("http://WWW.Example.COM/")->host(),
            "www.example.com");
}

TEST(Url, MissingPathBecomesSlash) {
  const auto url = Url::parse("http://a.com");
  ASSERT_TRUE(url.has_value());
  EXPECT_EQ(url->path(), "/");
}

TEST(Url, FragmentStripped) {
  const auto url = Url::parse("http://a.com/x?q=1#frag");
  ASSERT_TRUE(url.has_value());
  EXPECT_EQ(url->query(), "q=1");
  EXPECT_EQ(url->toString(), "http://a.com/x?q=1");
}

TEST(Url, RejectsGarbage) {
  EXPECT_FALSE(Url::parse("not a url").has_value());
  EXPECT_FALSE(Url::parse("ftp://a.com/").has_value());
  EXPECT_FALSE(Url::parse("http://").has_value());
  EXPECT_FALSE(Url::parse("").has_value());
}

TEST(Url, ResolveAbsolute) {
  const Url base = *Url::parse("http://a.com/dir/page");
  EXPECT_EQ(base.resolve("http://b.com/z").toString(), "http://b.com/z");
}

TEST(Url, ResolveRootRelative) {
  const Url base = *Url::parse("http://a.com/dir/page?q=1");
  EXPECT_EQ(base.resolve("/img/x.png").toString(),
            "http://a.com/img/x.png");
}

TEST(Url, ResolvePathRelative) {
  const Url base = *Url::parse("http://a.com/dir/page");
  EXPECT_EQ(base.resolve("x.png").toString(), "http://a.com/dir/x.png");
}

TEST(Url, ResolveQueryOnly) {
  const Url base = *Url::parse("http://a.com/dir/page?old=1");
  EXPECT_EQ(base.resolve("?new=2").toString(),
            "http://a.com/dir/page?new=2");
}

TEST(Url, ResolveProtocolRelative) {
  const Url base = *Url::parse("https://a.com/x");
  EXPECT_EQ(base.resolve("//cdn.com/y").toString(), "https://cdn.com/y");
}

TEST(Url, RegistrableDomain) {
  EXPECT_EQ(registrableDomain("shop.example.com"), "example.com");
  EXPECT_EQ(registrableDomain("example.com"), "example.com");
  EXPECT_EQ(registrableDomain("localhost"), "localhost");
  EXPECT_EQ(registrableDomain("a.b.c.d.com"), "d.com");
}

TEST(Url, HostMatchesDomain) {
  EXPECT_TRUE(hostMatchesDomain("a.example.com", "example.com"));
  EXPECT_TRUE(hostMatchesDomain("example.com", "example.com"));
  EXPECT_TRUE(hostMatchesDomain("a.example.com", ".example.com"));
  EXPECT_FALSE(hostMatchesDomain("badexample.com", "example.com"));
  EXPECT_FALSE(hostMatchesDomain("example.com", "a.example.com"));
  EXPECT_FALSE(hostMatchesDomain("example.com", ""));
}

// --- HeaderMap ----------------------------------------------------------

TEST(HeaderMap, CaseInsensitiveGet) {
  HeaderMap headers;
  headers.add("Content-Type", "text/html");
  EXPECT_EQ(headers.get("content-type").value_or(""), "text/html");
  EXPECT_TRUE(headers.has("CONTENT-TYPE"));
}

TEST(HeaderMap, MultipleValuesPreserved) {
  HeaderMap headers;
  headers.add("Set-Cookie", "a=1");
  headers.add("Set-Cookie", "b=2");
  const auto values = headers.getAll("set-cookie");
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0], "a=1");
  EXPECT_EQ(values[1], "b=2");
  EXPECT_EQ(headers.get("Set-Cookie").value_or(""), "a=1");  // first
}

TEST(HeaderMap, SetReplacesAll) {
  HeaderMap headers;
  headers.add("X", "1");
  headers.add("X", "2");
  headers.set("x", "3");
  EXPECT_EQ(headers.getAll("X").size(), 1u);
  EXPECT_EQ(headers.get("X").value_or(""), "3");
}

TEST(HeaderMap, RemoveDeletesAllValues) {
  HeaderMap headers;
  headers.add("X", "1");
  headers.add("X", "2");
  headers.remove("x");
  EXPECT_FALSE(headers.has("X"));
}

TEST(HttpResponse, Redirect) {
  const HttpResponse response = HttpResponse::redirect("/home");
  EXPECT_TRUE(response.isRedirect());
  EXPECT_EQ(response.headers.get("Location").value_or(""), "/home");
  EXPECT_FALSE(HttpResponse::ok("x").isRedirect());
}

TEST(WireFormat, RequestContainsMethodPathHost) {
  HttpRequest request;
  request.url = *Url::parse("http://a.com/x?q=1");
  request.headers.set("Cookie", "a=1");
  const std::string wire = toWireFormat(request);
  EXPECT_NE(wire.find("GET /x?q=1 HTTP/1.1"), std::string::npos);
  EXPECT_NE(wire.find("Host: a.com"), std::string::npos);
  EXPECT_NE(wire.find("Cookie: a=1"), std::string::npos);
}

// wireSize is the byte bill both transports charge; it must equal the
// serialized length for every shape of message, without serializing.
TEST(WireFormat, WireSizeEqualsSerializedLength) {
  util::Pcg32 rng(7, 3);
  const char* targets[] = {"http://a.com/", "http://a.com/x?q=1",
                           "http://a.com/p/q?", "http://a.com?only=query",
                           "http://Host.Example:8080/a%20b?x=1&y=%00"};
  const char* statusTexts[] = {"OK", "", "connection dropped",
                               "Service Unavailable"};
  const int statuses[] = {200, 0, 302, 404, 503, 1000, -1, 99999};
  for (int trial = 0; trial < 400; ++trial) {
    HttpRequest request;
    request.method = trial % 7 == 0 ? "POST" : "GET";
    request.url = *Url::parse(targets[rng.uniform(0, 4)]);
    for (std::uint32_t h = rng.uniform(0, 3); h > 0; --h) {
      request.headers.add("X-H" + std::to_string(h),
                          std::string(rng.uniform(0, 40), 'v'));
    }
    if (rng.uniform(0, 1) == 0) request.headers.set("Cookie", "a=1; b=2");
    const std::uint32_t bodySize =
        rng.uniform(0, 3) == 0 ? rng.uniform(0, 500) : 0;
    request.body = std::string(bodySize, 'b');
    EXPECT_EQ(wireSize(request), toWireFormat(request).size()) << trial;

    HttpResponse response;
    response.status = statuses[rng.uniform(0, 7)];
    response.statusText = statusTexts[rng.uniform(0, 3)];
    for (std::uint32_t c = rng.uniform(0, 4); c > 0; --c) {
      response.headers.add("Set-Cookie", "c" + std::to_string(c) +
                                             "=v; Max-Age=3600; Path=/");
    }
    if (rng.uniform(0, 1) == 0) {
      response.headers.set("Content-Type", "text/html");
    }
    // Empty, single-digit, and every decimal length boundary up to 10^5.
    const std::size_t sizes[] = {0, 9, 10, 99, 100, 999, 1000, 99999, 100000};
    response.body = std::string(sizes[rng.uniform(0, 8)], 'x');
    EXPECT_EQ(wireSize(response), toWireFormat(response).size()) << trial;
  }
}

// The one backoff formula: exponential, capped, jittered by exactly one
// uniform draw — so both retry loops consume the session RNG identically.
TEST(Retry, BackoffDrawsExactlyOneUniform) {
  RetrySpec spec;
  spec.initialBackoffMs = 400.0;
  spec.backoffMultiplier = 2.0;
  spec.maxBackoffMs = 6400.0;
  spec.jitterFraction = 0.25;
  for (int attempt = 0; attempt < 8; ++attempt) {
    util::Pcg32 drawn(9, 1);
    util::Pcg32 mirror(9, 1);
    const double backoff = backoffMs(spec, attempt, drawn);
    const double base = std::min(400.0 * (1 << attempt), 6400.0);
    const double u = mirror.uniform01();
    EXPECT_DOUBLE_EQ(backoff, base + base * 0.25 * (2.0 * u - 1.0)) << attempt;
    EXPECT_GE(backoff, base * 0.75);
    EXPECT_LE(backoff, base * 1.25);
    EXPECT_EQ(drawn.next(), mirror.next()) << attempt;
  }
}

// --- Set-Cookie parsing ------------------------------------------------------

TEST(SetCookieParse, NameValueOnly) {
  const auto cookie = parseSetCookie("sid=abc123");
  ASSERT_TRUE(cookie.has_value());
  EXPECT_EQ(cookie->name, "sid");
  EXPECT_EQ(cookie->value, "abc123");
  EXPECT_FALSE(cookie->domain.has_value());
  EXPECT_FALSE(cookie->maxAgeSeconds.has_value());
  EXPECT_FALSE(cookie->secure);
}

TEST(SetCookieParse, AllAttributes) {
  const auto cookie = parseSetCookie(
      "uid=x; Domain=.Example.COM; Path=/shop; Max-Age=3600; Secure; "
      "HttpOnly");
  ASSERT_TRUE(cookie.has_value());
  EXPECT_EQ(cookie->domain.value_or(""), "example.com");  // dot stripped
  EXPECT_EQ(cookie->path.value_or(""), "/shop");
  EXPECT_EQ(cookie->maxAgeSeconds.value_or(0), 3600);
  EXPECT_TRUE(cookie->secure);
  EXPECT_TRUE(cookie->httpOnly);
}

TEST(SetCookieParse, ExpiresRfc1123) {
  const auto cookie =
      parseSetCookie("a=1; Expires=Sun, 06 Nov 1994 08:49:37 GMT");
  ASSERT_TRUE(cookie.has_value());
  ASSERT_TRUE(cookie->expiresEpochSeconds.has_value());
  EXPECT_EQ(*cookie->expiresEpochSeconds, 784111777);
}

TEST(SetCookieParse, NegativeMaxAge) {
  const auto cookie = parseSetCookie("a=1; Max-Age=-1");
  ASSERT_TRUE(cookie.has_value());
  EXPECT_EQ(cookie->maxAgeSeconds.value_or(0), -1);
}

TEST(SetCookieParse, RejectsHeadersWithoutNameValue) {
  EXPECT_FALSE(parseSetCookie("").has_value());
  EXPECT_FALSE(parseSetCookie("; Path=/").has_value());
  EXPECT_FALSE(parseSetCookie("=value").has_value());
}

TEST(SetCookieParse, ValueMayBeEmpty) {
  const auto cookie = parseSetCookie("flag=; Path=/");
  ASSERT_TRUE(cookie.has_value());
  EXPECT_EQ(cookie->value, "");
}

TEST(SetCookieParse, UnknownAttributesIgnored) {
  const auto cookie = parseSetCookie("a=1; SameSite=Lax; Version=1");
  ASSERT_TRUE(cookie.has_value());
  EXPECT_EQ(cookie->name, "a");
}

TEST(SetCookieParse, PathMustStartWithSlash) {
  const auto cookie = parseSetCookie("a=1; Path=relative");
  ASSERT_TRUE(cookie.has_value());
  EXPECT_FALSE(cookie->path.has_value());
}

TEST(CookieHeaderParse, MultiplePairs) {
  const auto cookies = parseCookieHeader("a=1; b=2;c = 3 ");
  ASSERT_EQ(cookies.size(), 3u);
  EXPECT_EQ(cookies[0].first, "a");
  EXPECT_EQ(cookies[2].first, "c");
  EXPECT_EQ(cookies[2].second, "3");
}

TEST(CookieHeaderParse, EmptyAndMalformedSkipped) {
  EXPECT_TRUE(parseCookieHeader("").empty());
  EXPECT_TRUE(parseCookieHeader(";;;").empty());
  EXPECT_EQ(parseCookieHeader("a=1; novalue; b=2").size(), 2u);
}

TEST(CookieHeaderFormat, RoundTrips) {
  const std::string header =
      formatCookieHeader({{"a", "1"}, {"b", "x y"}});
  EXPECT_EQ(header, "a=1; b=x y");
  const auto parsed = parseCookieHeader(header);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[1].second, "x y");
}

// --- HTTP dates -----------------------------------------------------------

TEST(HttpDate, Rfc1123) {
  EXPECT_EQ(parseHttpDate("Sun, 06 Nov 1994 08:49:37 GMT").value_or(0),
            784111777);
}

TEST(HttpDate, Rfc850TwoDigitYear) {
  EXPECT_EQ(parseHttpDate("Sunday, 06-Nov-94 08:49:37 GMT").value_or(0),
            784111777);
}

TEST(HttpDate, Asctime) {
  EXPECT_EQ(parseHttpDate("Sun Nov 6 08:49:37 1994").value_or(0),
            784111777);
}

TEST(HttpDate, EpochStart) {
  EXPECT_EQ(parseHttpDate("Thu, 01 Jan 1970 00:00:00 GMT").value_or(-1), 0);
}

TEST(HttpDate, UnparseableReturnsNullopt) {
  EXPECT_FALSE(parseHttpDate("tomorrow").has_value());
  EXPECT_FALSE(parseHttpDate("").has_value());
  EXPECT_FALSE(parseHttpDate("12:00:00").has_value());  // no day/month/year
}

TEST(HttpDate, FormatRoundTrips) {
  const std::int64_t epoch = 784111777;
  const std::string formatted = formatHttpDate(epoch);
  EXPECT_EQ(formatted, "Sun, 06 Nov 1994 08:49:37 GMT");
  EXPECT_EQ(parseHttpDate(formatted).value_or(0), epoch);
}

TEST(HttpDate, FormatParsePropertySweep) {
  for (std::int64_t t = 0; t < 4'000'000'000LL; t += 123'456'789LL) {
    EXPECT_EQ(parseHttpDate(formatHttpDate(t)).value_or(-1), t)
        << "t=" << t << " formatted=" << formatHttpDate(t);
  }
}

// --- Network / latency -------------------------------------------------------

class EchoHandler : public HttpHandler {
 public:
  HttpResponse handle(const HttpRequest& request) override {
    return HttpResponse::ok("echo:" + request.url.pathWithQuery());
  }
};

TEST(Network, DispatchesToRegisteredHost) {
  Network network(1);
  network.registerHost("a.com", std::make_shared<EchoHandler>());
  HttpRequest request;
  request.url = *Url::parse("http://a.com/x");
  const Exchange exchange = network.dispatch(request);
  EXPECT_EQ(exchange.response.status, 200);
  EXPECT_EQ(exchange.response.body, "echo:/x");
  EXPECT_GT(exchange.latencyMs, 0.0);
}

TEST(Network, UnknownHostGets404) {
  Network network(1);
  HttpRequest request;
  request.url = *Url::parse("http://nowhere.com/");
  const Exchange exchange = network.dispatch(request);
  EXPECT_EQ(exchange.response.status, 404);
}

// The Transport seam's batching contract: a batch through the sim is the
// same draws and side effects as a caller-side sequential loop, and the
// sim leaves retry timing to the browser's virtual-clock loop.
TEST(Network, DispatchBatchEqualsSequentialDispatch) {
  Network batched(7);
  Network sequential(7);
  batched.registerHost("a.com", std::make_shared<EchoHandler>());
  sequential.registerHost("a.com", std::make_shared<EchoHandler>());

  std::vector<HttpRequest> requests;
  for (int i = 0; i < 6; ++i) {
    HttpRequest request;
    request.url = *Url::parse("http://a.com/x" + std::to_string(i));
    requests.push_back(request);
  }

  Transport& transport = batched;
  EXPECT_FALSE(transport.ownsRetryTiming());
  const std::vector<Exchange> batch = transport.dispatchBatch(requests);
  ASSERT_EQ(batch.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Exchange reference = sequential.dispatch(requests[i]);
    EXPECT_EQ(batch[i].response.status, reference.response.status);
    EXPECT_EQ(batch[i].response.body, reference.response.body);
    EXPECT_EQ(batch[i].latencyMs, reference.latencyMs);
    EXPECT_EQ(batch[i].responseBytes, reference.responseBytes);
  }
  EXPECT_EQ(batched.totalRequests(), sequential.totalRequests());
}

TEST(Network, CountsRequestsAndBytes) {
  Network network(1);
  network.registerHost("a.com", std::make_shared<EchoHandler>());
  HttpRequest request;
  request.url = *Url::parse("http://a.com/x");
  network.dispatch(request);
  network.dispatch(request);
  EXPECT_EQ(network.totalRequests(), 2u);
  EXPECT_GT(network.totalBytesTransferred(), 0u);
  network.resetCounters();
  EXPECT_EQ(network.totalRequests(), 0u);
}

TEST(LatencyProfile, SlowIsSlowerThanFast) {
  util::Pcg32 rng(3);
  double fastTotal = 0.0;
  double slowTotal = 0.0;
  for (int i = 0; i < 200; ++i) {
    fastTotal += LatencyProfile::fast().sampleMs(rng, 10'000);
    slowTotal += LatencyProfile::slow().sampleMs(rng, 10'000);
  }
  EXPECT_GT(slowTotal / 200.0, 4.0 * (fastTotal / 200.0));
}

TEST(LatencyProfile, LargerResponsesTakeLonger) {
  LatencyProfile profile = LatencyProfile::typical();
  profile.jitterSigma = 0.0;
  profile.jitterMu = 0.0;
  util::Pcg32 rng(3);
  const double small = profile.sampleMs(rng, 1'000);
  const double large = profile.sampleMs(rng, 1'000'000);
  EXPECT_GT(large, small + 1000.0);
}

TEST(LatencyProfile, SlowProfileHasStalls) {
  util::Pcg32 rng(3);
  const LatencyProfile slow = LatencyProfile::slow();
  int stalls = 0;
  for (int i = 0; i < 300; ++i) {
    if (slow.sampleMs(rng, 20'000) > 6000.0) ++stalls;
  }
  EXPECT_GT(stalls, 60);   // stallProbability 0.45 ± noise
  EXPECT_LT(stalls, 250);
}

}  // namespace
}  // namespace cookiepicker::net
