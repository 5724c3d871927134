// The shared-knowledge tier's property suite.
//
// Four layers of guarantees, bottom up:
//   1. SiteKnowledge::merge is a join: commutative, associative, idempotent
//      over fuzzed lattice values, including across epoch boundaries
//      (COOKIEPICKER_FUZZ scales the trial count for soak runs).
//   2. A KnowledgeBase built from a fixed set of contributions serializes to
//      the same bytes for ANY application order, duplication, or partition
//      into gossiped sub-bases — the property that makes crowd gossip safe.
//   3. Bootstrap differential: a fresh user warmed from shared knowledge
//      reaches the same verdict partition as a user trained from scratch,
//      with zero hidden requests of its own; degraded (faulted) training
//      never poisons the shared state.
//   4. Re-probation: a site that changes its cookie set is demoted (epoch
//      bump) instead of being served a stale enforce, stale-epoch
//      contributions are discarded, and the epoch guard holds under
//      concurrent demote/merge/lookup (the TSan tier drives this file).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/cookie_picker.h"
#include "faults/fault_plan.h"
#include "fleet/aggregate.h"
#include "knowledge/knowledge_base.h"
#include "knowledge/knowledge_store.h"
#include "knowledge/site_knowledge.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "server/generator.h"
#include "test_support.h"

namespace cookiepicker {
namespace {

namespace fs = std::filesystem;
using knowledge::KnowledgeBase;
using knowledge::SiteKnowledge;
using testsupport::KnowledgeRunOptions;
using testsupport::SimWorld;

int fuzzScale() {
  const char* env = std::getenv("COOKIEPICKER_FUZZ");
  if (env == nullptr) return 1;
  const int value = std::atoi(env);
  return value > 0 ? value : 1;
}

std::shared_ptr<const faults::FaultPlan> planOf(const std::string& text) {
  const auto parsed = faults::FaultPlan::parse(text);
  EXPECT_TRUE(parsed.has_value()) << "unparseable plan:\n" << text;
  if (!parsed.has_value()) return nullptr;
  return std::make_shared<const faults::FaultPlan>(*parsed);
}

// --- fuzzed lattice values ---------------------------------------------------

cookies::CookieKey keyFromPool(std::mt19937_64& rng) {
  static constexpr const char* kNames[] = {"prefstyle", "trk0", "trk1",
                                           "acctid", "px0", "qdir"};
  static constexpr const char* kDomains[] = {"shop.example", "news.example"};
  static constexpr const char* kPaths[] = {"/", "/metrics/0"};
  return {kNames[rng() % std::size(kNames)],
          kDomains[rng() % std::size(kDomains)],
          kPaths[rng() % std::size(kPaths)]};
}

SiteKnowledge randomKnowledge(std::mt19937_64& rng) {
  SiteKnowledge entry;
  entry.epoch = rng() % 3;
  entry.stable = (rng() % 2) == 0;
  entry.totalViews = static_cast<int>(rng() % 12);
  entry.hiddenRequests = static_cast<int>(rng() % 8);
  entry.quietViews = static_cast<int>(rng() % 6);
  const std::size_t count = rng() % 5;
  for (std::size_t i = 0; i < count; ++i) {
    entry.cookies[keyFromPool(rng)] = (rng() % 2) == 0;
  }
  return entry;
}

SiteKnowledge joined(SiteKnowledge a, const SiteKnowledge& b) {
  a.merge(b);
  return a;
}

// --- 1. lattice laws ---------------------------------------------------------

TEST(KnowledgeLattice, MergeLawsOverFuzzedStates) {
  const int trials = 400 * fuzzScale();
  for (int trial = 0; trial < trials; ++trial) {
    std::mt19937_64 rng(0x6b6e6f77u + trial);
    const SiteKnowledge a = randomKnowledge(rng);
    const SiteKnowledge b = randomKnowledge(rng);
    const SiteKnowledge c = randomKnowledge(rng);

    EXPECT_EQ(joined(a, b), joined(b, a)) << "not commutative, trial "
                                          << trial;
    EXPECT_EQ(joined(joined(a, b), c), joined(a, joined(b, c)))
        << "not associative, trial " << trial;
    EXPECT_EQ(joined(a, a), a) << "not idempotent, trial " << trial;
    // Joining is an inflation: a ⊔ b absorbs both inputs.
    EXPECT_EQ(joined(joined(a, b), a), joined(a, b)) << "trial " << trial;
    EXPECT_EQ(joined(joined(a, b), b), joined(a, b)) << "trial " << trial;
    // Equal lattice values serialize to equal bytes (the anchor every
    // byte-compare below rests on).
    EXPECT_EQ(joined(a, b).serializeLine("h.example"),
              joined(b, a).serializeLine("h.example"))
        << "trial " << trial;
  }
}

TEST(KnowledgeLattice, SerializeLineRoundTrips) {
  const int trials = 200 * fuzzScale();
  for (int trial = 0; trial < trials; ++trial) {
    std::mt19937_64 rng(0x726f756eu + trial);
    const SiteKnowledge entry = randomKnowledge(rng);
    const std::string line = entry.serializeLine("site.example");
    std::string host;
    const auto parsed = SiteKnowledge::parseLine(line, &host);
    ASSERT_TRUE(parsed.has_value()) << line;
    EXPECT_EQ(host, "site.example");
    EXPECT_EQ(*parsed, entry) << line;
    EXPECT_EQ(parsed->serializeLine(host), line);
  }
  // Escaping keeps hostile field bytes inside their slots.
  SiteKnowledge tricky;
  tricky.cookies[{"na|me", "dom\tain", "pa;th\n"}] = true;
  const std::string line = tricky.serializeLine("host\twith\ttabs");
  std::string host;
  const auto parsed = SiteKnowledge::parseLine(line, &host);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(host, "host\twith\ttabs");
  EXPECT_EQ(*parsed, tricky);
}

TEST(KnowledgeLattice, ParseLineRejectsMalformed) {
  std::string host;
  EXPECT_FALSE(SiteKnowledge::parseLine("", &host).has_value());
  EXPECT_FALSE(SiteKnowledge::parseLine("h\t1\t1\t2\t3", &host).has_value());
  EXPECT_FALSE(
      SiteKnowledge::parseLine("h\tx\t1\t2\t3\t4\t", &host).has_value());
  EXPECT_FALSE(
      SiteKnowledge::parseLine("h\t1\t1\t2\t3\t4\tn|d|p", &host).has_value());
  EXPECT_FALSE(SiteKnowledge::parseLine("h\t1\t1\t2\t3\t4\tn|d|p|1|extra",
                                        &host)
                   .has_value());
  // The empty cookie set is legal.
  EXPECT_TRUE(SiteKnowledge::parseLine("h\t1\t1\t2\t3\t4\t", &host)
                  .has_value());
}

TEST(KnowledgeLattice, EpochGuardDiscardsStaleContributions) {
  SiteKnowledge fresh;
  fresh.epoch = 2;
  fresh.cookies[{"newname", "s.example", "/"}] = false;

  SiteKnowledge stale;
  stale.epoch = 1;
  stale.stable = true;
  stale.totalViews = 40;
  stale.cookies[{"oldname", "s.example", "/"}] = true;

  // The stale contribution loses wholesale in either merge direction.
  EXPECT_EQ(joined(fresh, stale), fresh);
  EXPECT_EQ(joined(stale, fresh), fresh);
}

// --- 2. partition-order byte-identity ---------------------------------------

struct Contribution {
  std::string host;
  SiteKnowledge delta;
};

std::vector<Contribution> fuzzedContributions(std::uint64_t seed,
                                              std::size_t count) {
  static constexpr const char* kHosts[] = {"a.example", "b.example",
                                           "c.example", "d.example"};
  std::mt19937_64 rng(seed);
  std::vector<Contribution> out;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(
        {kHosts[rng() % std::size(kHosts)], randomKnowledge(rng)});
  }
  return out;
}

TEST(KnowledgePartitionOrder, AnyOrderDuplicationOrGroupingIsByteIdentical) {
  const int trials = 30 * fuzzScale();
  for (int trial = 0; trial < trials; ++trial) {
    const auto contributions = fuzzedContributions(0x70617274u + trial, 12);

    KnowledgeBase reference;
    for (const auto& c : contributions) {
      reference.mergeSite(c.host, c.delta);
    }
    const std::string want = reference.serialize();

    std::mt19937_64 rng(0x73687566u + trial);

    // Shuffled application order, with random duplication.
    {
      auto shuffled = contributions;
      std::shuffle(shuffled.begin(), shuffled.end(), rng);
      KnowledgeBase base;
      for (const auto& c : shuffled) {
        base.mergeSite(c.host, c.delta);
        if (rng() % 3 == 0) base.mergeSite(c.host, c.delta);  // re-delivery
      }
      EXPECT_EQ(base.serialize(), want) << "shuffle trial " << trial;
    }

    // Random partition into replicas, gossiped together in random order —
    // the shape an N-fleet exchange actually has.
    {
      constexpr std::size_t kReplicas = 3;
      KnowledgeBase replicas[kReplicas];
      for (const auto& c : contributions) {
        replicas[rng() % kReplicas].mergeSite(c.host, c.delta);
      }
      KnowledgeBase base;
      std::vector<std::size_t> order = {0, 1, 2, 0, 1};  // re-gossip twice
      std::shuffle(order.begin(), order.end(), rng);
      for (std::size_t index : order) base.mergeFrom(replicas[index]);
      for (std::size_t index = 0; index < kReplicas; ++index) {
        base.mergeFrom(replicas[index]);  // make sure every replica landed
      }
      EXPECT_EQ(base.serialize(), want) << "partition trial " << trial;
    }

    // serialize → deserialize into a non-empty base is still a join.
    {
      std::set<std::string> hosts;
      for (const auto& c : contributions) hosts.insert(c.host);
      KnowledgeBase base;
      for (std::size_t i = 0; i < contributions.size() / 2; ++i) {
        base.mergeSite(contributions[i].host, contributions[i].delta);
      }
      EXPECT_EQ(base.deserialize(want), hosts.size());  // one line per host
      EXPECT_EQ(base.serialize(), want) << "deserialize trial " << trial;
    }
  }
}

// --- 2b. gossip schedules over real fleets -----------------------------------

TEST(KnowledgeFleet, SingleRoundMergeIdenticalAcrossTopologies) {
  const auto roster = server::measurementRoster(6, 21);
  // One round: every fleet trains cold, so the contribution set is fixed
  // and the full join cannot depend on which gossip schedule delivered it.
  std::vector<std::string> merged;
  for (const auto topology :
       {fleet::GossipTopology::None, fleet::GossipTopology::Ring,
        fleet::GossipTopology::Star, fleet::GossipTopology::AllToAll}) {
    KnowledgeRunOptions options;
    options.fleets = 3;
    options.rounds = 1;
    options.topology = topology;
    const auto report = testsupport::runKnowledgeFleets(roster, options);
    merged.push_back(report.mergedKnowledge);
    EXPECT_FALSE(report.mergedKnowledge.empty());
    if (topology == fleet::GossipTopology::AllToAll) {
      // Full exchange: every replica already equals the join.
      for (const auto& replica : report.replicaKnowledge) {
        EXPECT_EQ(replica, report.mergedKnowledge);
      }
    }
  }
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i], merged[0]) << "topology index " << i;
  }
}

TEST(KnowledgeFleet, RepeatedRunsAreByteIdentical) {
  const auto roster = server::measurementRoster(5, 9);
  KnowledgeRunOptions options;
  options.fleets = 3;
  options.rounds = 2;
  const auto first = testsupport::runKnowledgeFleets(roster, options);
  const auto second = testsupport::runKnowledgeFleets(roster, options);
  EXPECT_EQ(first.mergedKnowledge, second.mergedKnowledge);
  ASSERT_EQ(first.replicaKnowledge.size(), second.replicaKnowledge.size());
  for (std::size_t i = 0; i < first.replicaKnowledge.size(); ++i) {
    EXPECT_EQ(first.replicaKnowledge[i], second.replicaKnowledge[i]) << i;
  }
  ASSERT_EQ(first.rounds.size(), second.rounds.size());
  for (std::size_t i = 0; i < first.rounds.size(); ++i) {
    EXPECT_EQ(first.rounds[i].hiddenRequests, second.rounds[i].hiddenRequests);
    EXPECT_EQ(first.rounds[i].knowledgeHits, second.rounds[i].knowledgeHits);
  }
}

TEST(KnowledgeFleet, GossipCutsHiddenRequestsInLaterRounds) {
  const auto roster = server::measurementRoster(6, 33);
  KnowledgeRunOptions options;
  options.fleets = 3;
  options.rounds = 2;
  options.topology = fleet::GossipTopology::AllToAll;
  const auto report = testsupport::runKnowledgeFleets(roster, options);

  std::uint64_t hiddenByRound[2] = {0, 0};
  std::uint64_t hitsByRound[2] = {0, 0};
  for (const auto& stats : report.rounds) {
    ASSERT_LT(stats.round, 2);
    hiddenByRound[stats.round] += stats.hiddenRequests;
    hitsByRound[stats.round] += stats.knowledgeHits;
  }
  // Round 1 populations are warm from round 0's full exchange: they consult
  // instead of training, so the hidden-request bill collapses.
  EXPECT_GT(hiddenByRound[0], 0u);
  EXPECT_LT(hiddenByRound[1], hiddenByRound[0]);
  EXPECT_EQ(hitsByRound[0], 0u);
  EXPECT_GT(hitsByRound[1], 0u);
}

// --- 3. bootstrap differential ----------------------------------------------

struct JarVerdict {
  std::vector<std::pair<std::string, bool>> cookies;  // (name, useful)
  bool operator==(const JarVerdict&) const = default;
};

JarVerdict jarVerdict(browser::Browser& browser, const std::string& host) {
  JarVerdict verdict;
  for (const cookies::CookieRecord* record :
       browser.jar().persistentCookiesForHost(host)) {
    verdict.cookies.emplace_back(record->key.name, record->useful);
  }
  std::sort(verdict.cookies.begin(), verdict.cookies.end());
  return verdict;
}

core::CookiePickerConfig fastTrainingConfig() {
  core::CookiePickerConfig config;
  config.forcum.stableViewThreshold = 3;
  return config;
}

constexpr char kDiffHost[] = "shop.example";
constexpr int kDiffViews = 9;

// Trains one user from scratch over `spec` and returns the picker's world.
struct TrainedUser {
  std::unique_ptr<SimWorld> world;
  std::unique_ptr<core::CookiePicker> picker;
};

TrainedUser trainUser(const server::SiteSpec& spec,
                      KnowledgeBase* shared,
                      std::shared_ptr<const faults::FaultPlan> plan = nullptr,
                      std::uint64_t networkSeed = 42) {
  TrainedUser user;
  user.world = std::make_unique<SimWorld>(networkSeed);
  user.world->addSite(spec);
  if (plan != nullptr) user.world->network.setFaultPlan(plan);
  core::CookiePickerConfig config = fastTrainingConfig();
  config.sharedKnowledge = shared;
  user.picker =
      std::make_unique<core::CookiePicker>(user.world->browser, config);
  for (int view = 0; view < kDiffViews; ++view) {
    user.picker->browse("http://" + spec.domain + "/page" +
                        std::to_string(view % spec.pageCount));
  }
  user.picker->enforceStableHosts();
  return user;
}

TEST(KnowledgeDifferential, WarmUserMatchesScratchVerdictsWithZeroHidden) {
  const auto spec = server::makeGenericSpec("T", kDiffHost, 7);

  const TrainedUser scratch = trainUser(spec, nullptr);
  ASSERT_FALSE(scratch.picker->report(kDiffHost).trainingActive)
      << "scratch training must finish for the differential to mean anything";
  ASSERT_TRUE(scratch.picker->isEnforced(kDiffHost));

  KnowledgeBase shared;
  shared.mergeSite(kDiffHost, scratch.picker->exportKnowledge(kDiffHost));
  ASSERT_EQ(shared.warmSiteCount(), 1u);

  obs::MetricsRegistry metrics;
  JarVerdict warmVerdict;
  core::KnowledgeOutcome outcome = core::KnowledgeOutcome::Unconsulted;
  SiteKnowledge warmExport;
  {
    obs::ScopedObsSession scope(&metrics, nullptr);
    const TrainedUser warm = trainUser(spec, &shared);
    warmVerdict = jarVerdict(warm.world->browser, kDiffHost);
    outcome = warm.picker->knowledgeOutcome(kDiffHost);
    warmExport = warm.picker->exportKnowledge(kDiffHost);
    EXPECT_TRUE(warm.picker->isEnforced(kDiffHost));
  }

  EXPECT_EQ(outcome, core::KnowledgeOutcome::Warm);
  // The crowd spared the warm user the entire training bill.
  EXPECT_EQ(metrics.snapshot().counter(obs::Counter::HiddenFetches), 0u);
  EXPECT_EQ(metrics.snapshot().counter(obs::Counter::KnowledgeHits), 1u);
  EXPECT_GT(metrics.snapshot().counter(obs::Counter::KnowledgeMarksImported),
            0u);

  // Same verdict partition as honest training, byte for byte.
  EXPECT_EQ(warmVerdict, jarVerdict(scratch.world->browser, kDiffHost));
  // Re-publishing adds no new verdict information: epoch, stability, and
  // every mark are already absorbed by the scratch export. (View counters
  // may inflate — a warm user's passive views still count as views.)
  const auto before = shared.lookup(kDiffHost);
  ASSERT_TRUE(before.has_value());
  shared.mergeSite(kDiffHost, warmExport);
  const auto after = shared.lookup(kDiffHost);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->epoch, before->epoch);
  EXPECT_EQ(after->stable, before->stable);
  EXPECT_EQ(after->cookies, before->cookies);
  EXPECT_EQ(after->hiddenRequests, before->hiddenRequests)
      << "a warm user never adds hidden requests";
}

TEST(KnowledgeDifferential, WarmBootstrapIsByteDeterministic) {
  const auto spec = server::makeGenericSpec("T", kDiffHost, 7);
  const TrainedUser scratch = trainUser(spec, nullptr);
  KnowledgeBase shared;
  shared.mergeSite(kDiffHost, scratch.picker->exportKnowledge(kDiffHost));

  const TrainedUser first = trainUser(spec, &shared);
  const TrainedUser second = trainUser(spec, &shared);
  EXPECT_EQ(first.picker->saveState(), second.picker->saveState());
  EXPECT_EQ(first.picker->exportKnowledge(kDiffHost).serializeLine(kDiffHost),
            second.picker->exportKnowledge(kDiffHost)
                .serializeLine(kDiffHost));
}

TEST(KnowledgeDifferential, RecoveredFaultsProduceIdenticalKnowledge) {
  const auto spec = server::makeGenericSpec("T", kDiffHost, 7);
  const TrainedUser clean = trainUser(spec, nullptr);
  // Every hidden fetch drops twice, then succeeds on the retry: training is
  // slower on the wire but decision-identical, so the exported knowledge
  // must be byte-identical — degraded-but-recovered steps cannot skew what
  // the crowd learns.
  const TrainedUser flaky = trainUser(
      spec, nullptr,
      planOf("rule scope=hidden action=connection-drop fail=2 recover=1"));

  EXPECT_EQ(flaky.picker->exportKnowledge(kDiffHost).serializeLine(kDiffHost),
            clean.picker->exportKnowledge(kDiffHost).serializeLine(kDiffHost));
}

TEST(KnowledgeDifferential, DegradedStepsNeverPoisonSharedKnowledge) {
  const auto spec = server::makeGenericSpec("T", kDiffHost, 7);
  const TrainedUser clean = trainUser(spec, nullptr);
  const SiteKnowledge cleanExport = clean.picker->exportKnowledge(kDiffHost);

  // A blackhole: every hidden fetch fails outright, so every FORCUM step is
  // degraded. Degraded steps mark nothing and are quiet-neutral.
  const TrainedUser dark = trainUser(
      spec, nullptr,
      planOf("rule scope=hidden action=connection-drop fail=1000000"));
  const SiteKnowledge darkExport = dark.picker->exportKnowledge(kDiffHost);

  // No evidence, no verdict: the export never claims stability and never
  // marks a cookie useful that clean training left unmarked.
  EXPECT_FALSE(darkExport.stable);
  for (const auto& [key, useful] : darkExport.cookies) {
    if (!useful) continue;
    const auto it = cleanExport.cookies.find(key);
    ASSERT_NE(it, cleanExport.cookies.end()) << key.name;
    EXPECT_TRUE(it->second) << key.name;
  }

  // Consumers see a probation entry, not a poisoned verdict: a user
  // consulting it falls back to the honest paper path and trains.
  KnowledgeBase shared;
  shared.mergeSite(kDiffHost, darkExport);
  EXPECT_EQ(shared.warmSiteCount(), 0u);
  const TrainedUser follower = trainUser(spec, &shared);
  EXPECT_EQ(follower.picker->knowledgeOutcome(kDiffHost),
            core::KnowledgeOutcome::Cold);
  EXPECT_EQ(jarVerdict(follower.world->browser, kDiffHost),
            jarVerdict(clean.world->browser, kDiffHost));
}

// --- 4. re-probation & the epoch guard ---------------------------------------

TEST(KnowledgeReprobation, NovelCookieDemotesInsteadOfServingStale) {
  auto oldSpec = server::makeGenericSpec("T", kDiffHost, 7);
  const TrainedUser veteran = trainUser(oldSpec, nullptr);
  KnowledgeBase shared;
  shared.mergeSite(kDiffHost, veteran.picker->exportKnowledge(kDiffHost));
  ASSERT_EQ(shared.warmSiteCount(), 1u);

  // The site changes: a sign-up wall appears, with a cookie ("acctid") the
  // crowd has never seen.
  auto newSpec = oldSpec;
  newSpec.signUpWall = true;

  obs::MetricsRegistry metrics;
  {
    obs::ScopedObsSession scope(&metrics, nullptr);
    const TrainedUser visitor = trainUser(newSpec, &shared);
    // Stale enforce would have blocked acctid; demotion retrains instead.
    EXPECT_EQ(visitor.picker->knowledgeOutcome(kDiffHost),
              core::KnowledgeOutcome::Demoted);
    const auto verdict = jarVerdict(visitor.world->browser, kDiffHost);
    const auto acct = std::find_if(
        verdict.cookies.begin(), verdict.cookies.end(),
        [](const auto& entry) { return entry.first == "acctid"; });
    ASSERT_NE(acct, verdict.cookies.end());
    EXPECT_TRUE(acct->second) << "acctid must survive as useful";
    // The visitor trained honestly and re-published against the new epoch.
    visitor.picker->publishKnowledge();
  }
  EXPECT_EQ(metrics.snapshot().counter(obs::Counter::KnowledgeDemotions), 1u);
  EXPECT_GT(metrics.snapshot().counter(obs::Counter::HiddenFetches), 0u);

  const auto entry = shared.lookup(kDiffHost);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->epoch, 1u);
  EXPECT_TRUE(entry->stable) << "the retrained epoch carries a verdict again";

  // A stale-epoch contribution (trained against the old site) arriving
  // late is discarded by the guard.
  shared.mergeSite(kDiffHost, veteran.picker->exportKnowledge(kDiffHost));
  const auto after = shared.lookup(kDiffHost);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(*after, *entry);

  // And the new epoch warms the next visitor of the changed site.
  obs::MetricsRegistry warmMetrics;
  {
    obs::ScopedObsSession scope(&warmMetrics, nullptr);
    const TrainedUser next = trainUser(newSpec, &shared);
    EXPECT_EQ(next.picker->knowledgeOutcome(kDiffHost),
              core::KnowledgeOutcome::Warm);
  }
  EXPECT_EQ(warmMetrics.snapshot().counter(obs::Counter::HiddenFetches), 0u);
}

// A warm session whose training resumes mid-session. The crowd's entry
// warms the visitor on its first view, so the views after it expect no
// comparison and only scan their pages, until the site starts setting a
// cookie the crowd never saw: that view resumes training and its step
// decides on a snapshot built on demand. Jar, state, audit and metrics
// bytes equal an eager twin of the same session that builds every view's
// snapshot at visit time.
TEST(KnowledgeReprobation, ResumedTrainingDecidesOnAnOnDemandSnapshot) {
  const auto oldSpec = server::makeGenericSpec("T", kDiffHost, 7);
  const TrainedUser veteran = trainUser(oldSpec, nullptr);
  KnowledgeBase shared;
  shared.mergeSite(kDiffHost, veteran.picker->exportKnowledge(kDiffHost));
  ASSERT_EQ(shared.warmSiteCount(), 1u);
  auto newSpec = oldSpec;
  newSpec.signUpWall = true;  // a cookie ("acctid") the crowd never saw
  constexpr int kChangeAtView = 4;

  struct Session {
    std::string jar;
    std::string state;
    std::string audit;
    core::KnowledgeOutcome outcome = core::KnowledgeOutcome::Unconsulted;
    int onDemandDecisions = 0;  // decided on a view visited without snapshot
    obs::MetricsSnapshot metrics;
  };
  const auto run = [&](bool eagerSnapshots) {
    SimWorld world;
    world.addSite(oldSpec);
    core::CookiePickerConfig config = fastTrainingConfig();
    config.sharedKnowledge = &shared;
    core::CookiePicker picker(world.browser, config);
    obs::MetricsRegistry metrics;
    obs::AuditTrail audit;
    Session session;
    {
      obs::ScopedObsSession scope(&metrics, &audit);
      for (int view = 0; view < kDiffViews; ++view) {
        if (view == kChangeAtView) world.addSite(newSpec);
        const bool eager = picker.forcum().mayCompare(kDiffHost);
        const std::string url = "http://" + std::string(kDiffHost) + "/page" +
                                std::to_string(view % oldSpec.pageCount);
        core::ForcumStepReport report;
        if (eagerSnapshots) {
          report = picker.onPageLoaded(world.browser.visit(url));
          world.browser.think();
        } else {
          report = picker.browse(url);
        }
        if (!eager && report.hiddenRequestSent && !report.skipped) {
          ++session.onDemandDecisions;
        }
      }
    }
    session.jar = world.browser.jar().serialize();
    session.state = picker.saveState();
    session.audit = audit.jsonl();
    session.outcome = picker.knowledgeOutcome(kDiffHost);
    session.metrics = metrics.snapshot();
    return session;
  };

  const Session onDemand = run(false);
  const Session eager = run(true);
  EXPECT_EQ(onDemand.outcome, core::KnowledgeOutcome::Warm);
  EXPECT_EQ(onDemand.onDemandDecisions, 1);
  EXPECT_FALSE(onDemand.audit.empty());
  EXPECT_NE(onDemand.jar.find("acctid"), std::string::npos);
  // Every view runs one stream pass (a build or a scan) and every hidden
  // copy a build; the view that resumed training added exactly one more,
  // which the eager twin built at visit time.
  const auto extraPasses = [](const obs::MetricsSnapshot& metrics) {
    return metrics.timer(obs::Timer::StreamBuild).count -
           metrics.counter(obs::Counter::PagesVisited) -
           metrics.counter(obs::Counter::HiddenFetches);
  };
  EXPECT_EQ(extraPasses(onDemand.metrics), 1u);
  EXPECT_EQ(extraPasses(eager.metrics), 0u);
  EXPECT_EQ(eager.onDemandDecisions, 1);

  EXPECT_EQ(onDemand.outcome, eager.outcome);
  EXPECT_EQ(onDemand.jar, eager.jar);
  EXPECT_EQ(onDemand.state, eager.state);
  EXPECT_EQ(onDemand.audit, eager.audit);
  EXPECT_EQ(onDemand.metrics.deterministicJson(),
            eager.metrics.deterministicJson());
}

TEST(KnowledgeReprobation, EpochGuardHoldsUnderConcurrentDemoteAndMerge) {
  constexpr int kDemotions = 64;
  constexpr int kStaleMerges = 256;
  const std::string host = "racy.example";

  KnowledgeBase base;
  SiteKnowledge seedEntry;
  seedEntry.stable = true;
  seedEntry.cookies[{"oldname", host, "/"}] = true;
  base.mergeSite(host, seedEntry);

  const std::set<cookies::CookieKey> observed = {{"newname", host, "/"}};
  std::atomic<bool> go{false};

  std::thread demoter([&] {
    while (!go.load()) {
    }
    for (int i = 0; i < kDemotions; ++i) base.demote(host, observed);
  });
  std::thread publisher([&] {
    while (!go.load()) {
    }
    // Stale contributions, all epoch 0 — every one must lose to any epoch
    // the demoter has already opened.
    for (int i = 0; i < kStaleMerges; ++i) base.mergeSite(host, seedEntry);
  });
  std::thread reader([&] {
    while (!go.load()) {
    }
    std::uint64_t lastEpoch = 0;
    for (int i = 0; i < kStaleMerges; ++i) {
      const auto entry = base.lookup(host);
      ASSERT_TRUE(entry.has_value());
      // Epochs only ever inflate, and a lookup never observes a
      // half-merged entry: a demoted epoch cannot carry the stale verdict.
      EXPECT_GE(entry->epoch, lastEpoch);
      lastEpoch = entry->epoch;
      if (entry->epoch > 0) {
        EXPECT_FALSE(entry->stable);
        EXPECT_EQ(entry->cookies.count({"oldname", host, "/"}), 0u);
      }
    }
  });

  go.store(true);
  demoter.join();
  publisher.join();
  reader.join();

  const auto entry = base.lookup(host);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->epoch, static_cast<std::uint64_t>(kDemotions));
  EXPECT_FALSE(entry->stable);
  EXPECT_TRUE(entry->cookies.count({"newname", host, "/"}) > 0);
}

// --- persistence -------------------------------------------------------------

class KnowledgeStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("knowledge_store_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(KnowledgeStoreTest, PersistsAndReloadsAcrossReopen) {
  std::string want;
  {
    KnowledgeBase base;
    knowledge::KnowledgeStore store(dir_.string());
    store.attach(base);
    EXPECT_EQ(store.sitesLoaded(), 0u);
    std::mt19937_64 rng(0x73746f72u);
    base.mergeSite("a.example", randomKnowledge(rng));
    base.mergeSite("b.example", randomKnowledge(rng));
    base.mergeSite("a.example", randomKnowledge(rng));  // joins, re-persists
    want = base.serialize();
  }
  {
    KnowledgeBase base;
    knowledge::KnowledgeStore store(dir_.string());
    store.attach(base);
    EXPECT_EQ(store.sitesLoaded(), 2u);
    EXPECT_EQ(base.serialize(), want);
  }
}

TEST_F(KnowledgeStoreTest, DemotionSurvivesReload) {
  {
    KnowledgeBase base;
    knowledge::KnowledgeStore store(dir_.string());
    store.attach(base);
    SiteKnowledge entry;
    entry.stable = true;
    entry.cookies[{"oldname", "s.example", "/"}] = true;
    base.mergeSite("s.example", entry);
    base.demote("s.example", {{"newname", "s.example", "/"}});
  }
  {
    KnowledgeBase base;
    knowledge::KnowledgeStore store(dir_.string());
    store.attach(base);
    const auto entry = base.lookup("s.example");
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->epoch, 1u);
    EXPECT_FALSE(entry->stable);
    EXPECT_EQ(entry->cookies.count({"newname", "s.example", "/"}), 1u);
  }
}

TEST_F(KnowledgeStoreTest, LoadingMergesWithPrepopulatedBase) {
  SiteKnowledge diskEntry;
  diskEntry.totalViews = 5;
  diskEntry.cookies[{"trk0", "m.example", "/"}] = false;
  {
    KnowledgeBase base;
    knowledge::KnowledgeStore store(dir_.string());
    store.attach(base);
    base.mergeSite("m.example", diskEntry);
  }
  KnowledgeBase base;
  SiteKnowledge liveEntry;
  liveEntry.stable = true;
  liveEntry.cookies[{"prefstyle", "m.example", "/"}] = true;
  base.mergeSite("m.example", liveEntry);

  knowledge::KnowledgeStore store(dir_.string());
  store.attach(base);
  const auto entry = base.lookup("m.example");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(*entry, joined(diskEntry, liveEntry));
}

TEST_F(KnowledgeStoreTest, FleetGossipPersistsThroughSharedBase) {
  const auto roster = server::measurementRoster(4, 5);
  std::string merged;
  {
    KnowledgeBase base;
    knowledge::KnowledgeStore store(dir_.string());
    store.attach(base);
    KnowledgeRunOptions options;
    options.fleets = 2;
    options.rounds = 1;
    const auto report = testsupport::runKnowledgeFleets(roster, options, &base);
    merged = report.mergedKnowledge;
    EXPECT_EQ(base.serialize(), merged);
  }
  KnowledgeBase reloaded;
  knowledge::KnowledgeStore store(dir_.string());
  store.attach(reloaded);
  EXPECT_EQ(reloaded.serialize(), merged);
  EXPECT_EQ(store.sitesLoaded(), roster.size());
}

}  // namespace
}  // namespace cookiepicker
