// Extension-state persistence: FORCUM training state and full CookiePicker
// state (jar + training + enforcement) survive serialization round trips
// and browser restarts.
#include <filesystem>

#include <gtest/gtest.h>

#include "core/cookie_picker.h"
#include "server/generator.h"
#include "store/store.h"
#include "test_support.h"

namespace cookiepicker::core {
namespace {

using testsupport::SimWorld;

server::SiteSpec trackerSpec(const std::string& domain) {
  server::SiteSpec spec;
  spec.label = "T";
  spec.domain = domain;
  spec.category = "news";
  spec.seed = 77;
  spec.containerTrackers = 2;
  return spec;
}

TEST(ForcumPersistence, RoundTripPreservesSiteState) {
  SimWorld world;
  const auto spec = world.addSite(trackerSpec("t.example"));
  CookiePickerConfig config;
  config.forcum.stableViewThreshold = 4;
  CookiePicker picker(world.browser, config);
  for (int i = 0; i < 8; ++i) {
    picker.browse("http://t.example/page" + std::to_string(i % 5 + 1));
  }
  const ForcumEngine::SiteState* before =
      picker.forcum().siteState(spec.domain);
  ASSERT_NE(before, nullptr);
  const bool wasActive = before->trainingActive;
  const int views = before->totalViews;
  const std::size_t known = before->knownPersistent.size();

  const std::string serialized = picker.forcum().serializeState();
  picker.forcum().restoreState(serialized);

  const ForcumEngine::SiteState* after =
      picker.forcum().siteState(spec.domain);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->trainingActive, wasActive);
  EXPECT_EQ(after->totalViews, views);
  EXPECT_EQ(after->knownPersistent.size(), known);
}

TEST(ForcumPersistence, MalformedLinesSkipped) {
  SimWorld world;
  CookiePicker picker(world.browser);
  picker.forcum().restoreState("garbage\nmore\tfields\tbut\twrong\n");
  EXPECT_EQ(picker.forcum().siteState("garbage"), nullptr);
}

TEST(ForcumPersistence, EmptyStateRestores) {
  SimWorld world;
  CookiePicker picker(world.browser);
  picker.forcum().restoreState("");
  EXPECT_EQ(picker.forcum().siteState("any.example"), nullptr);
}

TEST(PickerPersistence, FullRestartKeepsDecisionsAndEnforcement) {
  SimWorld world;
  const auto spec = world.addSite(trackerSpec("t.example"));
  std::string saved;
  {
    CookiePickerConfig config;
    config.forcum.stableViewThreshold = 3;
    CookiePicker picker(world.browser, config);
    for (int i = 0; i < 7; ++i) {
      picker.browse("http://t.example/page" + std::to_string(i % 5 + 1));
    }
    picker.enforceForHost(spec.domain);
    ASSERT_TRUE(picker.isEnforced(spec.domain));
    saved = picker.saveState();
  }

  // Fresh browser process: new jar, new picker; restore.
  SimWorld world2;
  world2.addSite(trackerSpec("t.example"));
  CookiePicker restored(world2.browser);
  restored.loadState(saved);

  EXPECT_TRUE(restored.isEnforced(spec.domain));
  EXPECT_FALSE(restored.forcum().isTrainingActive(spec.domain));
  // The jar state (enforcement deleted the trackers) carried over.
  EXPECT_TRUE(
      world2.browser.jar().persistentCookiesForHost(spec.domain).empty());

  // New views neither retrain nor leak cookies: the site re-sets trackers,
  // the known-cookie set already contains them → training stays off.
  restored.browse("http://t.example/");
  EXPECT_FALSE(restored.forcum().isTrainingActive(spec.domain));
  const browser::PageView view = world2.browser.visit("http://t.example/");
  EXPECT_EQ(
      view.containerRequest.headers.get("Cookie").value_or("").find("trk"),
      std::string::npos);
}

TEST(PickerPersistence, UsefulMarksSurviveRestart) {
  SimWorld world;
  server::SiteSpec spec;
  spec.label = "P";
  spec.domain = "pref.example";
  spec.category = "arts";
  spec.seed = 88;
  spec.preferenceCookies = 1;
  spec.preferenceIntensity = 2;
  world.addSite(spec);
  std::string saved;
  {
    CookiePicker picker(world.browser);
    for (int i = 0; i < 5; ++i) {
      picker.browse("http://pref.example/page" + std::to_string(i + 1));
    }
    saved = picker.saveState();
  }
  SimWorld world2;
  world2.addSite(spec);
  CookiePicker restored(world2.browser);
  restored.loadState(saved);
  const cookies::CookieRecord* record =
      world2.browser.jar().find({"prefstyle", "pref.example", "/"});
  ASSERT_NE(record, nullptr);
  EXPECT_TRUE(record->useful);
}

TEST(PickerPersistence, LoadStateIsIdempotent) {
  SimWorld world;
  world.addSite(trackerSpec("t.example"));
  CookiePicker picker(world.browser);
  for (int i = 0; i < 4; ++i) {
    picker.browse("http://t.example/page" + std::to_string(i + 1));
  }
  const std::string once = picker.saveState();
  picker.loadState(once);
  EXPECT_EQ(picker.saveState(), once);
}

// A picker with some live state whose saveState() we can tamper with, to
// prove rejected loads leave that state untouched.
std::string trainedSave(CookiePicker& picker) {
  for (int i = 0; i < 4; ++i) {
    picker.browse("http://t.example/page" + std::to_string(i + 1));
  }
  picker.enforceForHost("t.example");
  return picker.saveState();
}

TEST(PickerPersistence, LoadStateRejectsMissingMarkers) {
  SimWorld world;
  world.addSite(trackerSpec("t.example"));
  CookiePicker picker(world.browser);
  const std::string good = trainedSave(picker);
  const std::string before = picker.saveState();

  const struct {
    const char* marker;
    const char* wantInError;
  } cases[] = {
      {"== jar ==\n", "missing '== jar =='"},
      {"== forcum ==\n", "missing '== forcum =='"},
      {"== enforced ==\n", "missing '== enforced =='"},
  };
  for (const auto& testCase : cases) {
    std::string mutated = good;
    const std::size_t at = mutated.find(testCase.marker);
    ASSERT_NE(at, std::string::npos) << testCase.marker;
    mutated.erase(at, std::string(testCase.marker).size());
    std::string error;
    EXPECT_FALSE(picker.loadState(mutated, &error)) << testCase.marker;
    EXPECT_NE(error.find(testCase.wantInError), std::string::npos) << error;
    // The failed load must not have half-applied anything.
    EXPECT_EQ(picker.saveState(), before) << testCase.marker;
  }
}

TEST(PickerPersistence, LoadStateRejectsDuplicatedMarkers) {
  SimWorld world;
  world.addSite(trackerSpec("t.example"));
  CookiePicker picker(world.browser);
  const std::string good = trainedSave(picker);
  const std::string before = picker.saveState();

  for (const char* marker :
       {"== jar ==\n", "== forcum ==\n", "== enforced ==\n"}) {
    // Splice a second copy of the marker at the end, where a truncated
    // write glued two blobs together would put it.
    std::string mutated = good + marker;
    std::string error;
    EXPECT_FALSE(picker.loadState(mutated, &error)) << marker;
    EXPECT_NE(error.find("duplicated"), std::string::npos)
        << marker << " -> " << error;
    EXPECT_EQ(picker.saveState(), before) << marker;
  }
}

TEST(PickerPersistence, LoadStateRejectsOutOfOrderMarkers) {
  SimWorld world;
  world.addSite(trackerSpec("t.example"));
  CookiePicker picker(world.browser);
  trainedSave(picker);
  const std::string before = picker.saveState();

  std::string error;
  EXPECT_FALSE(picker.loadState(
      "== forcum ==\n== jar ==\n== enforced ==\n", &error));
  EXPECT_NE(error.find("out of order"), std::string::npos) << error;
  EXPECT_FALSE(picker.loadState(
      "== jar ==\n== enforced ==\n== forcum ==\n", &error));
  EXPECT_NE(error.find("out of order"), std::string::npos) << error;
  EXPECT_EQ(picker.saveState(), before);
}

// A jar line with the right field count but an expiry that is not a whole
// integer is skipped like any other malformed line: no exception escapes
// loadState, and "12abc" is not read as 12.
TEST(PickerPersistence, LoadStateSkipsJarLinesWithBadTimes) {
  const std::string good =
      "kept\t1\tt.example\t/\t1\t0\t0\t1\t99000\t1000\t1\t0\n";
  for (const std::string expiry : {"soon", "12abc"}) {
    SimWorld world;
    CookiePicker picker(world.browser);
    const std::string bad = "bad\t1\tt.example\t/\t1\t0\t0\t1\t" + expiry +
                            "\t1000\t1\t0\n";
    std::string error;
    EXPECT_TRUE(picker.loadState("== jar ==\n" + good + bad +
                                     "== forcum ==\n== enforced ==\n",
                                 &error))
        << expiry << ": " << error;
    EXPECT_TRUE(error.empty()) << expiry;
    const cookies::CookieJar& jar = world.browser.jar();
    EXPECT_EQ(jar.size(), 1u) << expiry;
    ASSERT_NE(jar.find({"kept", "t.example", "/"}), nullptr) << expiry;
    EXPECT_EQ(jar.find({"kept", "t.example", "/"})->expiryMs, 99000);
    EXPECT_EQ(jar.find({"bad", "t.example", "/"}), nullptr) << expiry;
  }
}

TEST(PickerPersistence, LoadStateToleratesPreambleAndReportsSuccess) {
  SimWorld world;
  world.addSite(trackerSpec("t.example"));
  CookiePicker picker(world.browser);
  const std::string good = trainedSave(picker);
  std::string error;
  EXPECT_TRUE(picker.loadState("# comment preamble\n" + good, &error));
  EXPECT_TRUE(error.empty());
}

// Cross-check of the two restore paths: a picker seeded from a store
// shard's replayed records and one seeded from a saveState() blob must be
// indistinguishable — same state bytes, same verdicts on the same
// subsequent page stream.
TEST(PickerPersistence, StoreRecoveredAndLoadStateRestoredAgree) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "persistence_store_agree";
  fs::remove_all(dir);

  server::SiteSpec spec;
  spec.label = "P";
  spec.domain = "pref.example";
  spec.category = "arts";
  spec.seed = 88;
  spec.preferenceCookies = 1;
  spec.preferenceIntensity = 2;
  spec.containerTrackers = 1;

  // Session one: train while emitting through a store shard, and also keep
  // the classic saveState() blob.
  std::string saved;
  {
    SimWorld world;
    world.addSite(spec);
    store::StoreConfig storeConfig;
    storeConfig.directory = dir.string();
    store::StateStore stateStore(storeConfig);
    store::HostStore* shard = stateStore.openHost(spec.domain);
    shard->beginSession("agree-test");
    CookiePicker picker(world.browser);
    picker.attachStateSink(shard);
    for (int i = 0; i < 5; ++i) {
      picker.browse("http://pref.example/page" + std::to_string(i + 1));
    }
    picker.enforceForHost(spec.domain);
    saved = picker.saveState();
  }

  // Restore path A: replay the shard and seed a picker from the mirror's
  // synthesized blob.
  SimWorld worldA(7);
  worldA.addSite(spec);
  CookiePicker fromStore(worldA.browser);
  {
    store::StoreConfig storeConfig;
    storeConfig.directory = dir.string();
    store::StateStore stateStore(storeConfig);
    const store::ReplayedState& rec =
        stateStore.openHost(spec.domain)->recovered();
    std::string error;
    ASSERT_TRUE(fromStore.loadState(rec.synthesizeStateBlob(), &error))
        << error;
  }

  // Restore path B: the classic blob.
  SimWorld worldB(7);
  worldB.addSite(spec);
  CookiePicker fromBlob(worldB.browser);
  ASSERT_TRUE(fromBlob.loadState(saved));

  // Same state (loadState normalizes both), same verdicts from here on.
  EXPECT_EQ(fromStore.saveState(), fromBlob.saveState());
  for (int i = 0; i < 4; ++i) {
    const std::string url =
        "http://pref.example/page" + std::to_string(i % 5 + 1);
    const ForcumStepReport a = fromStore.browse(url);
    const ForcumStepReport b = fromBlob.browse(url);
    EXPECT_EQ(a.trainingActive, b.trainingActive) << url;
    EXPECT_EQ(a.hiddenRequestSent, b.hiddenRequestSent) << url;
    EXPECT_EQ(a.decision.causedByCookies, b.decision.causedByCookies) << url;
    EXPECT_EQ(a.newlyMarked.size(), b.newlyMarked.size()) << url;
  }
  EXPECT_EQ(fromStore.saveState(), fromBlob.saveState());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace cookiepicker::core
