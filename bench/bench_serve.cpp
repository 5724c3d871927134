// Service-tier throughput benchmark: closed-loop hidden-fetch QPS over real
// loopback sockets. The AsyncHttpClient drives a multi-threaded epoll
// OriginTier with keep-alive connection pools and pipelined HTTP/1.1,
// keeping a fixed number of hidden fetches in flight and issuing the next
// the moment one completes.
//
// Two rounds, both reported in the JSON (argv[1], default
// BENCH_serve.json):
//   * "qps" — origins answer from a minimal cookie-bearing handler, so the
//     number measures the socket tier itself (event loop, framing, pools,
//     pipelining). This is what the MIN_SERVE_QPS / MAX_SERVE_P99_MS /
//     MIN_SERVE_REUSE gates in tools/bench.sh read.
//   * "generator_qps" — origins run the real site-generator WebSites, whose
//     per-request HTML rendering costs ~100 us alone; informational, shows
//     what an end-to-end verdict session sees.
//
// Build Release; single-core containers are the sizing target, so the gate
// rides on per-request CPU, not thread fan-out.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "net/http.h"
#include "net/transport.h"
#include "serve/async_client.h"
#include "serve/event_loop.h"
#include "serve/origin_tier.h"
#include "server/generator.h"
#include "util/clock.h"
#include "util/strings.h"

namespace {

using namespace cookiepicker;

constexpr std::uint64_t kSeed = 2007;
constexpr int kHosts = 8;
constexpr int kPages = 30;
constexpr int kWarmupRequests = 2000;
constexpr int kTierRequests = 40000;
constexpr int kGeneratorRequests = 8000;
// Closed-loop window: how many hidden fetches ride the wire at once. Sized
// to keep every pipeline slot busy (hosts * conns * depth = 128) without
// inflating per-request queueing latency past what the p99 gate allows.
constexpr int kConcurrency = 128;
constexpr int kConnectionsPerHost = 4;
constexpr int kPipelineDepth = 4;
constexpr int kOriginThreads = 2;

// The tier round's origin: a page with one persistent cookie and a tracker
// pixel, a few hundred bytes. Cheap enough (~1 us) that the measured cost
// is the socket tier, not page rendering.
class MinimalOrigin : public net::HttpHandler {
 public:
  explicit MinimalOrigin(std::string host) : host_(std::move(host)) {}

  net::HttpResponse handle(const net::HttpRequest& request) override {
    net::HttpResponse response;
    response.headers.add("Content-Type", "text/html");
    response.headers.add("Set-Cookie",
                         "sid=" + host_ + "; Max-Age=86400; Path=/");
    response.body = "<html><head><title>" + host_ +
                    "</title></head><body><p>page " + request.url.path() +
                    "</p><img src=\"/trk.gif\"></body></html>";
    return response;
  }

 private:
  std::string host_;
};

net::HttpRequest hiddenRequest(const std::string& domain, int page) {
  net::HttpRequest request;
  request.url = net::Url::parse("http://" + domain + "/page" +
                                std::to_string(page % kPages))
                    .value();
  request.kind = net::RequestKind::Hidden;
  return request;
}

struct RoundResult {
  double wallMs = 0.0;
  double qps = 0.0;
  double p50Ms = 0.0;
  double p99Ms = 0.0;
};

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

// One closed-loop round: `total` hidden fetches with kConcurrency in
// flight, each completion immediately launching the next. Completions run
// on the client's loop thread, and so does the first window, so the
// bookkeeping below needs no locks.
RoundResult runRound(serve::EventLoop& loop, serve::AsyncHttpClient& client,
                     const std::vector<std::string>& hosts, int total) {
  struct State {
    serve::AsyncHttpClient* client = nullptr;
    const std::vector<std::string>* hosts = nullptr;
    int issued = 0;
    int completed = 0;
    int total = 0;
    std::vector<double> latenciesMs;
    std::promise<void> done;
  };
  auto state = std::make_shared<State>();
  state->client = &client;
  state->hosts = &hosts;
  state->total = total;
  state->latenciesMs.reserve(total);

  // Round-robin across hosts and pages so every pool stays warm.
  auto issue = std::make_shared<std::function<void()>>();
  *issue = [state, issue]() {
    const int i = state->issued++;
    const auto& host = (*state->hosts)[i % state->hosts->size()];
    state->client->fetch(
        hiddenRequest(host, i / static_cast<int>(state->hosts->size())),
        [state, issue](net::Exchange exchange) {
          state->latenciesMs.push_back(exchange.latencyMs);
          if (++state->completed == state->total) {
            state->done.set_value();
            return;
          }
          if (state->issued < state->total) (*issue)();
        });
  };

  const auto start = std::chrono::steady_clock::now();
  const int initial = std::min(kConcurrency, total);
  loop.post([issue, initial]() {
    for (int i = 0; i < initial; ++i) (*issue)();
  });
  state->done.get_future().wait();
  const auto stop = std::chrono::steady_clock::now();

  RoundResult result;
  result.wallMs =
      std::chrono::duration<double, std::milli>(stop - start).count();
  result.qps = result.wallMs <= 0.0 ? 0.0 : total * 1000.0 / result.wallMs;
  std::sort(state->latenciesMs.begin(), state->latenciesMs.end());
  result.p50Ms = percentile(state->latenciesMs, 50.0);
  result.p99Ms = percentile(state->latenciesMs, 99.0);
  *issue = nullptr;  // break the issue->issue self-reference cycle
  return result;
}

struct TierRun {
  RoundResult round;
  serve::AsyncClientStats stats;
};

// Stands up a tier over `origins`, runs warmup + one measured round, and
// tears everything down in the order the lifetime contract wants (loop
// stops before the client dies).
TierRun runTier(
    const std::vector<std::pair<std::string,
                                std::shared_ptr<net::HttpHandler>>>& origins,
    int requests) {
  serve::OriginTierConfig tierConfig;
  tierConfig.seed = kSeed;
  tierConfig.threads = kOriginThreads;
  serve::OriginTier tier(tierConfig);
  std::vector<std::string> hosts;
  for (const auto& [host, handler] : origins) {
    tier.addHost(host, handler);
    hosts.push_back(host);
  }
  tier.start();

  TierRun run;
  {
    serve::LoopThread loopThread;
    serve::AsyncClientConfig clientConfig;
    clientConfig.resolve = tier.resolver();
    clientConfig.maxConnectionsPerHost = kConnectionsPerHost;
    clientConfig.maxPipelineDepth = kPipelineDepth;
    clientConfig.seed = kSeed;
    serve::AsyncHttpClient client(loopThread.loop(), clientConfig);

    runRound(loopThread.loop(), client, hosts, kWarmupRequests);
    run.round = runRound(loopThread.loop(), client, hosts, requests);
    run.stats = client.stats();
  }
  tier.stop();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string outputPath = argc > 1 ? argv[1] : "BENCH_serve.json";

  std::vector<std::pair<std::string, std::shared_ptr<net::HttpHandler>>>
      minimal;
  for (int i = 0; i < kHosts; ++i) {
    std::string host;
    util::appendParts(host, {"b", std::to_string(i), ".bench.example"});
    minimal.emplace_back(host, std::make_shared<MinimalOrigin>(host));
  }
  const TierRun tierRun = runTier(minimal, kTierRequests);

  util::SimClock siteClock;
  std::vector<std::pair<std::string, std::shared_ptr<net::HttpHandler>>>
      generated;
  for (int i = 0; i < kHosts; ++i) {
    const std::string index = std::to_string(i);
    std::string label;
    std::string domain;
    util::appendParts(label, {"bench", index});
    util::appendParts(domain, {"g", index, ".bench.example"});
    const auto spec = server::makeGenericSpec(label, domain, 42 + i);
    generated.emplace_back(spec.domain, server::buildSite(spec, siteClock));
  }
  const TierRun generatorRun = runTier(generated, kGeneratorRequests);

  const double reuse = tierRun.stats.reuseRatio();
  std::printf("serve tier: %d hidden fetches, %d in flight\n",
              kTierRequests, kConcurrency);
  std::printf("  %.0f req/s  p50 %.3f ms  p99 %.3f ms  reuse %.4f\n",
              tierRun.round.qps, tierRun.round.p50Ms, tierRun.round.p99Ms,
              reuse);
  std::printf("site-generator origins: %d fetches\n", kGeneratorRequests);
  std::printf("  %.0f req/s  p50 %.3f ms  p99 %.3f ms\n",
              generatorRun.round.qps, generatorRun.round.p50Ms,
              generatorRun.round.p99Ms);

  char buffer[1280];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\n"
      "  \"benchmark\": \"serve_throughput\",\n"
      "  \"hosts\": %d,\n"
      "  \"origin_threads\": %d,\n"
      "  \"connections_per_host\": %d,\n"
      "  \"pipeline_depth\": %d,\n"
      "  \"concurrency\": %d,\n"
      "  \"requests\": %d,\n"
      "  \"qps\": %.1f,\n"
      "  \"p50_ms\": %.3f,\n"
      "  \"p99_ms\": %.3f,\n"
      "  \"reuse_ratio\": %.4f,\n"
      "  \"connections_opened\": %llu,\n"
      "  \"drops\": %llu,\n"
      "  \"timeouts\": %llu,\n"
      "  \"generator_requests\": %d,\n"
      "  \"generator_qps\": %.1f,\n"
      "  \"generator_p99_ms\": %.3f\n"
      "}\n",
      kHosts, kOriginThreads, kConnectionsPerHost, kPipelineDepth,
      kConcurrency, kTierRequests, tierRun.round.qps, tierRun.round.p50Ms,
      tierRun.round.p99Ms, reuse,
      static_cast<unsigned long long>(tierRun.stats.connectionsOpened),
      static_cast<unsigned long long>(tierRun.stats.drops),
      static_cast<unsigned long long>(tierRun.stats.timeouts),
      kGeneratorRequests, generatorRun.round.qps,
      generatorRun.round.p99Ms);

  if (std::FILE* file = std::fopen(outputPath.c_str(), "wb")) {
    std::fwrite(buffer, 1, std::strlen(buffer), file);
    std::fclose(file);
    std::printf("wrote %s\n", outputPath.c_str());
    return 0;
  }
  std::fprintf(stderr, "cannot write %s\n", outputPath.c_str());
  return 1;
}
