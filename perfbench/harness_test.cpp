// Self-test of the verdict benchmark's harness:
//   python3 perfbench/run.py --test
// Exits 0 when every check passes.
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"
#include "knowledge/knowledge_base.h"
#include "serve/verdict_service.h"

namespace {

using namespace perfbench;
namespace knowledge = cookiepicker::knowledge;
namespace serve = cookiepicker::serve;

int g_failures = 0;

#define CHECK(cond)                                                     \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,      \
                   __LINE__, #cond);                                    \
      ++g_failures;                                                     \
    }                                                                   \
  } while (0)

std::vector<double> oneTo(int n) {
  std::vector<double> samples;
  for (int i = n; i >= 1; --i) samples.push_back(i);  // unsorted on purpose
  return samples;
}

void percentileIsNearestRankAndRefusesThinTails() {
  CHECK(nearestRank(oneTo(20), 50.0) == 10.0);
  CHECK(!nearestRank(oneTo(19), 50.0).has_value());  // 9 beyond rank 10
  CHECK(nearestRank(oneTo(1000), 99.0) == 990.0);
  CHECK(!nearestRank(oneTo(999), 99.0).has_value());  // 9 beyond rank 990
  CHECK(!nearestRank(oneTo(100), 99.0).has_value());
  CHECK(nearestRank(oneTo(100), 99.0, 1) == 99.0);
  CHECK(nearestRank(oneTo(2000), 99.0) == 1980.0);
  CHECK(!nearestRank({}, 50.0).has_value());
  CHECK(!nearestRank(oneTo(100), 0.0).has_value());
  CHECK(median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(median({4.0, 1.0, 2.0, 3.0}) == 2.5);
}

// Calm items are chosen by their probes alone, topped up to the weight
// asked for with the next calmest.
void calmItemsFollowTheProbes() {
  const std::vector<double> probes = {100.0, 300.0, 110.0, 120.0, 500.0};
  const std::vector<double> weights = {10.0, 10.0, 10.0, 10.0, 10.0};
  CHECK(calmItems(probes, weights, 130.0, 20.0) ==
        (std::vector<std::size_t>{0, 2, 3}));
  CHECK(calmItems(probes, weights, 130.0, 40.0) ==
        (std::vector<std::size_t>{0, 1, 2, 3}));
  CHECK(calmItems(probes, weights, 50.0, 15.0) ==
        (std::vector<std::size_t>{0, 2}));
  CHECK(calmItems(probes, weights, 50.0, 1000.0).size() == 5);
  CHECK(calmItems({}, {}, 50.0, 10.0).empty());
}

// Sessions are split at each change of host, and finish() closes the
// last one.
void sessionCpuSplitsAtHostChanges() {
  SessionCpu sessions;
  for (const char* host : {"a.example", "a.example", "b.example",
                           "c.example", "c.example"}) {
    sessions.onRequest(host);
  }
  const std::vector<double> closed = sessions.finish();
  CHECK(closed.size() == 3);
  for (const double ms : closed) CHECK(ms >= 0.0);
  CHECK(sessions.finish().empty());
}

void verdictCheckNeedsEveryUsefulCookie() {
  server::SiteSpec spec;
  spec.domain = "p.example";
  spec.preferenceCookies = 1;  // "prefstyle"
  spec.signUpWall = true;      // "acctid"
  spec.containerTrackers = 2;
  const std::string both =
      "{\"host\":\"p.example\",\"usefulCookies\":[\"acctid\",\"prefstyle\","
      "\"trk0\"],\"blockedCookies\":[\"trk1\"]}";
  const VerdictCheck ok = checkVerdictJson(both, spec);
  CHECK(ok.ok);
  CHECK(ok.falseUseful == 1);
  CHECK(ok.trackers == 2);
  CHECK(usefulCookiesOf(both) ==
        (std::vector<std::string>{"acctid", "prefstyle", "trk0"}));
  const std::string missing =
      "{\"host\":\"p.example\",\"usefulCookies\":[\"prefstyle\"],"
      "\"blockedCookies\":[\"acctid\"]}";
  CHECK(!checkVerdictJson(missing, spec).ok);
  CHECK(!checkVerdictJson("", spec).ok);
  const std::string otherHost =
      "{\"host\":\"q.example\",\"usefulCookies\":[\"acctid\",\"prefstyle\"]}";
  CHECK(!checkVerdictJson(otherHost, spec).ok);
}

// One pass of verdicts over the roster, as the sim workloads run it.
struct Pass {
  std::vector<std::string> verdicts;
  TallySnapshot counts;
};

Pass wrappedPass(std::uint64_t seed, bool tracing, bool warm) {
  const std::vector<server::SiteSpec> roster = benchRoster(seed);
  Tally tally;
  tally.setTracing(tracing);
  CountingTransport transport(tally);
  knowledge::KnowledgeBase base;
  serve::VerdictServiceConfig config;
  config.seed = seed;
  if (warm) config.knowledge = &base;
  serve::VerdictService service(transport, config);
  for (const server::SiteSpec& spec : roster) {
    service.addHost(spec.domain, spec.pageCount);
  }
  // Warm, as warm_sim runs it: a training pass over every host, then a
  // pass over the hosts without layout noise.
  std::vector<std::size_t> order = hostOrder(roster.size(), seed);
  Pass pass;
  for (int round = 0; round < (warm ? 2 : 1); ++round) {
    SimWorld world(roster, seed, tally);
    transport.setInner(&world.network);
    const TallySnapshot before = tally.snapshot();
    pass.verdicts.clear();
    for (const std::size_t i : order) {
      pass.verdicts.push_back(service.runVerdict(roster[i].domain, 12));
    }
    pass.counts = tally.snapshot().since(before);
    std::erase_if(order, [&](std::size_t i) {
      return roster[i].layoutNoiseProbability > 0.0;
    });
  }
  if (warm) {
    for (const std::string& verdict : pass.verdicts) {
      CHECK(verdict.find("\"knowledge\":\"warm\"") != std::string::npos);
    }
  }
  return pass;
}

std::vector<std::string> unwrappedPass(std::uint64_t seed) {
  const std::vector<server::SiteSpec> roster = benchRoster(seed);
  util::SimClock siteClock;
  net::Network network(seed);
  server::registerRoster(network, siteClock, roster);
  serve::VerdictServiceConfig config;
  config.seed = seed;
  serve::VerdictService service(network, config);
  for (const server::SiteSpec& spec : roster) {
    service.addHost(spec.domain, spec.pageCount);
  }
  std::vector<std::string> verdicts;
  for (const std::size_t i : hostOrder(roster.size(), seed)) {
    verdicts.push_back(service.runVerdict(roster[i].domain, 12));
  }
  return verdicts;
}

void wrappersPassVerdictsThroughUnchanged() {
  const std::vector<std::string> plain = unwrappedPass(3);
  CHECK(plain.size() == 36);
  CHECK(wrappedPass(3, false, false).verdicts == plain);
  CHECK(wrappedPass(3, true, false).verdicts == plain);
  for (const std::string& verdict : plain) CHECK(!verdict.empty());
}

void countsRepeatForOneSeedAndMoveWithAnother() {
  for (const bool warm : {false, true}) {
    const Pass first = wrappedPass(5, false, warm);
    const Pass again = wrappedPass(5, true, warm);
    const Pass other = wrappedPass(6, false, warm);
    for (const Field field : {Field::ResponseBytes,
                              Field::Dispatches, Field::HiddenDispatches,
                              Field::WireBytes}) {
      CHECK(first.counts[field] == again.counts[field]);
    }
    CHECK(first.counts[Field::Dispatches] > 0);
    CHECK(first.counts[Field::WireBytes] != other.counts[Field::WireBytes]);
    CHECK(first.counts[Field::ResponseBytes] !=
          other.counts[Field::ResponseBytes]);
    // Warm verdicts send no hidden request at all; cold ones do.
    CHECK((first.counts[Field::HiddenDispatches] == 0) == warm);
  }
}

}  // namespace

int main() {
  percentileIsNearestRankAndRefusesThinTails();
  calmItemsFollowTheProbes();
  sessionCpuSplitsAtHostChanges();
  verdictCheckNeedsEveryUsefulCookie();
  wrappersPassVerdictsThroughUnchanged();
  countsRepeatForOneSeedAndMoveWithAnother();
  if (g_failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench self-test: all checks passed\n");
  return 0;
}
