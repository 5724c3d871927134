// Byte-identity and allocation pin for whole verdict sessions.
//
// Runs VerdictService sessions over the table1 + table2 roster (seed 1, 12
// views), cold and warm, the way the verdict benchmark builds them: a warm
// session runs after one pre-training pass has published every host to a
// shared knowledge base, against fresh origins. Three byte streams are
// folded into fnv1a64 hashes per mode: every request as it goes on the wire
// (net::toWireFormat), the session jar's serialize() after each verdict,
// and the verdict JSON. The goldens pin request assembly and Set-Cookie
// ingestion byte for byte; a wire-size total would only pin lengths.
//
// The same binary counts operator-new calls in two tallies: the origin's
// (the sites run under a marker), and the rest of the verdict, which is
// the browser, the jar, the picker and the transport (the pin's own
// hashing runs under a marker that pauses the count). The budgets bound
// the mean per verdict, 10% above the counts measured when they were set:
// 1 449 cold and 658 warm outside the origin, 774 and 613 in it, where a
// response should cost about what its bytes cost.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "knowledge/knowledge_base.h"
#include "net/network.h"
#include "serve/verdict_service.h"
#include "server/generator.h"
#include "util/clock.h"
#include "util/rng.h"

// --- allocation accounting ---------------------------------------------------

namespace {
std::atomic<bool> g_counting{false};
std::atomic<int> g_pausedDepth{0};
std::atomic<int> g_originDepth{0};
std::atomic<std::uint64_t> g_allocCalls{0};
std::atomic<std::uint64_t> g_originCalls{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    if (g_originDepth.load(std::memory_order_relaxed) > 0) {
      g_originCalls.fetch_add(1, std::memory_order_relaxed);
    } else if (g_pausedDepth.load(std::memory_order_relaxed) == 0) {
      g_allocCalls.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// Not inlined, as in obs_test: GCC 12 otherwise reports
// -Wmismatched-new-delete on the replaced malloc/free pair.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace cookiepicker {
namespace {

constexpr std::uint64_t kSeed = 1;
constexpr int kViews = 12;
constexpr double kColdAllocationBudget = 1594.0;
constexpr double kWarmAllocationBudget = 724.0;
constexpr double kColdOriginBudget = 852.0;
constexpr double kWarmOriginBudget = 674.0;

// While one is alive, allocations count toward `depth`'s tally: none for
// g_pausedDepth, the origin's for g_originDepth.
class CountScope {
 public:
  explicit CountScope(std::atomic<int>& depth) : depth_(depth) {
    depth_.fetch_add(1, std::memory_order_relaxed);
  }
  ~CountScope() { depth_.fetch_sub(1, std::memory_order_relaxed); }
  CountScope(const CountScope&) = delete;
  CountScope& operator=(const CountScope&) = delete;

 private:
  std::atomic<int>& depth_;
};

// Allocations made while one is alive are not counted.
class Uncounted : public CountScope {
 public:
  Uncounted() : CountScope(g_pausedDepth) {}
};

void fold(std::uint64_t& hash, std::string_view bytes) {
  hash = (hash ^ util::fnv1a64(bytes)) * 0x100000001b3ull;
}

// A roster site whose request handling is origin time.
class OriginMark : public net::HttpHandler {
 public:
  explicit OriginMark(std::shared_ptr<net::HttpHandler> site)
      : site_(std::move(site)) {}
  net::HttpResponse handle(const net::HttpRequest& request) override {
    const CountScope origin(g_originDepth);
    return site_->handle(request);
  }

 private:
  std::shared_ptr<net::HttpHandler> site_;
};

// Folds every request's wire bytes, then forwards it.
class WireFolder : public net::Transport {
 public:
  void setInner(net::Transport* inner) { inner_ = inner; }
  net::Exchange dispatch(const net::HttpRequest& request) override {
    {
      const Uncounted pin;
      fold(wire, net::toWireFormat(request));
      ++requests;
    }
    return inner_->dispatch(request);
  }

  std::uint64_t wire = 0xcbf29ce484222325ull;
  std::uint64_t requests = 0;

 private:
  net::Transport* inner_ = nullptr;
};

// Fresh origins for one pass, as the benchmark makes them.
struct World {
  explicit World(const std::vector<server::SiteSpec>& roster)
      : network(kSeed) {
    for (const server::SiteSpec& spec : roster) {
      network.registerHost(
          spec.domain,
          std::make_shared<OriginMark>(server::buildSite(spec, siteClock)),
          spec.latencyProfile());
    }
  }
  util::SimClock siteClock;
  net::Network network;
};

std::vector<server::SiteSpec> roster() {
  std::vector<server::SiteSpec> sites = server::table1Roster();
  for (server::SiteSpec& spec : server::table2Roster()) {
    sites.push_back(std::move(spec));
  }
  for (server::SiteSpec& spec : sites) {
    spec.seed = spec.seed * 1000003ULL + kSeed;
  }
  return sites;
}

struct SessionPin {
  std::uint64_t wire = 0;
  std::uint64_t jar = 0xcbf29ce484222325ull;
  std::uint64_t verdicts = 0xcbf29ce484222325ull;
  std::uint64_t requests = 0;
  std::uint64_t allocations = 0;
  std::uint64_t originAllocations = 0;
  int sessions = 0;

  double allocationsPerVerdict() const {
    return static_cast<double>(allocations) / sessions;
  }
  double originAllocationsPerVerdict() const {
    return static_cast<double>(originAllocations) / sessions;
  }
};

// One measured pass: every host of `sites` through `service`, each verdict
// folded and its allocations counted.
SessionPin measuredPass(serve::VerdictService& service, WireFolder& folder,
                        const std::vector<server::SiteSpec>& sites,
                        bool warm) {
  SessionPin pin;
  folder.wire = 0xcbf29ce484222325ull;
  folder.requests = 0;
  for (const server::SiteSpec& spec : sites) {
    std::string jarText;
    const std::uint64_t before = g_allocCalls.load();
    const std::uint64_t originBefore = g_originCalls.load();
    g_counting.store(true);
    const std::string verdict =
        service.runVerdict(spec.domain, kViews, &jarText);
    g_counting.store(false);
    pin.allocations += g_allocCalls.load() - before;
    pin.originAllocations += g_originCalls.load() - originBefore;
    ++pin.sessions;
    EXPECT_FALSE(verdict.empty()) << spec.domain;
    if (warm) {
      EXPECT_NE(verdict.find("\"knowledge\":\"warm\""), std::string::npos)
          << spec.domain << " did not answer warm";
    }
    fold(pin.jar, jarText);
    fold(pin.verdicts, verdict);
  }
  pin.wire = folder.wire;
  pin.requests = folder.requests;
  return pin;
}

SessionPin coldSessions() {
  const std::vector<server::SiteSpec> sites = roster();
  WireFolder folder;
  serve::VerdictServiceConfig config;
  config.defaultViews = kViews;
  config.seed = kSeed;
  serve::VerdictService service(folder, config);
  for (const server::SiteSpec& spec : sites) {
    service.addHost(spec.domain, spec.pageCount);
  }
  World world(sites);
  folder.setInner(&world.network);
  return measuredPass(service, folder, sites, /*warm=*/false);
}

SessionPin warmSessions() {
  const std::vector<server::SiteSpec> sites = roster();
  knowledge::KnowledgeBase knowledge;
  WireFolder folder;
  serve::VerdictServiceConfig config;
  config.defaultViews = kViews;
  config.seed = kSeed;
  config.knowledge = &knowledge;
  serve::VerdictService service(folder, config);
  for (const server::SiteSpec& spec : sites) {
    service.addHost(spec.domain, spec.pageCount);
  }
  {
    // Pre-training: one cold pass publishes every host to the crowd.
    World world(sites);
    folder.setInner(&world.network);
    for (const server::SiteSpec& spec : sites) {
      service.runVerdict(spec.domain, kViews);
    }
  }
  // Hosts with heavy layout noise do not settle within 12 views, so the
  // crowd holds no stable entry for them; the warm pass skips them.
  std::vector<server::SiteSpec> settled;
  for (const server::SiteSpec& spec : sites) {
    if (spec.layoutNoiseProbability == 0.0) settled.push_back(spec);
  }
  World world(sites);
  folder.setInner(&world.network);
  return measuredPass(service, folder, settled, /*warm=*/true);
}

void report(const char* mode, const SessionPin& pin) {
  std::printf("%s: wire 0x%016llx jar 0x%016llx verdicts 0x%016llx, "
              "%llu requests, %.1f allocations per verdict over %d "
              "(origin: %.1f more)\n",
              mode, static_cast<unsigned long long>(pin.wire),
              static_cast<unsigned long long>(pin.jar),
              static_cast<unsigned long long>(pin.verdicts),
              static_cast<unsigned long long>(pin.requests),
              pin.allocationsPerVerdict(), pin.sessions,
              pin.originAllocationsPerVerdict());
}

TEST(SessionPin, ColdSessionBytes) {
  const SessionPin pin = coldSessions();
  report("cold", pin);
  EXPECT_EQ(pin.sessions, 36);
  EXPECT_EQ(pin.wire, 0x45f5ebce7cb23324ull);
  EXPECT_EQ(pin.jar, 0x7be442fbdcda50dbull);
  EXPECT_EQ(pin.verdicts, 0x760c83ab1026d267ull);
  EXPECT_EQ(pin.requests, 2881ull);
  EXPECT_LE(pin.allocationsPerVerdict(), kColdAllocationBudget);
}

TEST(SessionPin, WarmSessionBytes) {
  const SessionPin pin = warmSessions();
  report("warm", pin);
  EXPECT_EQ(pin.sessions, 33);
  EXPECT_EQ(pin.wire, 0xa61403655c2ba9adull);
  EXPECT_EQ(pin.jar, 0xe8c863054d2018afull);
  EXPECT_EQ(pin.verdicts, 0xee3becf1676d7d2full);
  EXPECT_EQ(pin.requests, 2328ull);
  EXPECT_LE(pin.allocationsPerVerdict(), kWarmAllocationBudget);
}

TEST(SessionPin, OriginAllocationBudget) {
  const SessionPin cold = coldSessions();
  report("cold", cold);
  EXPECT_LE(cold.originAllocationsPerVerdict(), kColdOriginBudget);
  const SessionPin warm = warmSessions();
  report("warm", warm);
  EXPECT_LE(warm.originAllocationsPerVerdict(), kWarmOriginBudget);
}

}  // namespace
}  // namespace cookiepicker
