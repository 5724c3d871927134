// Byte-identity pin for the streaming snapshot builder.
//
// Every container page the render pin fetches (pin_pages.h) goes
// through html::StreamingSnapshotBuilder the way the browser feeds it: the
// provenance-on responses with their decoded X-Cookie-Provenance map, so
// taint stamps are pinned too. Each scenario folds every snapshot array
// except the text hashes — symbol names, subtree extents, levels, flags,
// child spans, the comparison root and taint stamps — plus the
// StreamPageInfo (base href and subresource references) into fnv1a64
// hashes; the page info folded is the scan-only pass's
// (StreamingSnapshotBuilder::scanPageInfo), asserted equal to the build's.
// Text hashes are an in-memory identity (util/text_hash.h) and are
// deliberately left out; their equality is pinned by the differential
// suites instead. The goldens were computed by compiling this same test
// against the tokenizer that copied every token into owned strings and the
// builder that hashed text with FNV-1a.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dom/interner.h"
#include "dom/snapshot.h"
#include "html/stream_snapshot.h"
#include "pin_pages.h"
#include "util/rng.h"

namespace cookiepicker::html {
namespace {

struct SnapshotHashes {
  std::uint64_t rows = 0xcbf29ce484222325ull;
  std::uint64_t pageInfo = 0xcbf29ce484222325ull;
  int pages = 0;
  int taintedPages = 0;  // snapshots that carry taint stamps
};

void fold(std::uint64_t& hash, std::string_view bytes) {
  hash = (hash ^ util::fnv1a64(bytes)) * 0x100000001b3ull;
}

void foldNumber(std::uint64_t& hash, std::uint64_t value) {
  fold(hash, std::to_string(value));
}

class SnapshotFolder : public pin::PageVisitor {
 public:
  void response(const net::HttpResponse& response) override {
    std::optional<provenance::ProvenanceMap> map;
    if (const auto header =
            response.headers.get(provenance::kCookieProvenanceHeader)) {
      map = provenance::ProvenanceMap::decodeHeader(*header);
    }
    foldPage(response.body, map.has_value() ? &*map : nullptr);
  }
  void page(std::string_view html) override { foldPage(html, nullptr); }

  SnapshotHashes hashes;

 private:
  void foldPage(std::string_view html,
                const provenance::ProvenanceMap* provenance) {
    const StreamParseResult result = buildSnapshotStreaming(html, provenance);
    const dom::TreeSnapshot& snapshot = *result.snapshot;
    ++hashes.pages;
    if (snapshot.hasProvenance()) ++hashes.taintedPages;
    std::uint64_t& rows = hashes.rows;
    foldNumber(rows, snapshot.nodeCount());
    foldNumber(rows, snapshot.comparisonRootIndex());
    foldNumber(rows, snapshot.hasProvenance() ? 1 : 0);
    for (std::uint32_t i = 0; i < snapshot.nodeCount(); ++i) {
      fold(rows, dom::globalSymbolInterner().name(snapshot.symbol(i)));
      foldNumber(rows, snapshot.subtreeEnd(i));
      foldNumber(rows, static_cast<std::uint32_t>(snapshot.level(i)));
      foldNumber(rows, snapshot.rawFlags(i));
      foldNumber(rows, snapshot.taintSet(i));
      foldNumber(rows, snapshot.childCount(i));
      for (std::uint32_t k = 0; k < snapshot.childCount(i); ++k) {
        foldNumber(rows, snapshot.child(i, k));
      }
    }
    const StreamPageInfo scanned = scanner_.scanPageInfo(html);
    EXPECT_EQ(scanned.baseHref, result.page.baseHref);
    EXPECT_EQ(scanned.subresourceRefs, result.page.subresourceRefs);
    fold(hashes.pageInfo, scanned.baseHref);
    foldNumber(hashes.pageInfo, scanned.subresourceRefs.size());
    for (const std::string& reference : scanned.subresourceRefs) {
      fold(hashes.pageInfo, reference);
    }
  }

  StreamingSnapshotBuilder scanner_;
};

struct Golden {
  const char* scenario;
  std::uint64_t rows;
  std::uint64_t pageInfo;
};

// Expected hashes per pin::scenarios() entry, in the same order.
std::vector<Golden> goldens() {
  return {
      {"table1", 0xeb8ab64229ea073cull, 0x2ff855315ba309f2ull},
      {"table2", 0x3b9aa84dd1a3ea11ull, 0xef07fdf0ea796005ull},
      {"measurement", 0xe1175492d5c0f6f1ull, 0xb6046a0e5ac330f5ull},
      {"evasion", 0xfc0e1285adaaf836ull, 0xd5f9ff7dd8a89132ull},
      {"ad-structural", 0xe98b2f0ee852f55cull, 0x6c68dd5e8d82d22full},
      {"layout-shuffle", 0x28fdf87c710bc0fbull, 0x605f067faf7a7e6eull},
      {"noise-omitted", 0x956c757c7bfa99e8ull, 0xc46003f555c73b50ull},
      {"large-pages", 0x2225c06e9600674full, 0xe59bede678547aa5ull},
      {"hostile-input", 0x2ea5fef57fbbc3b3ull, 0x9d8c187c4eb8921full},
  };
}

TEST(SnapshotPin, StreamingSnapshotsMatchOwnedTokenBuilder) {
  const std::vector<pin::Scenario> scenarios = pin::scenarios();
  const std::vector<Golden> expected = goldens();
  ASSERT_EQ(scenarios.size(), expected.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Golden& golden = expected[i];
    ASSERT_STREQ(scenarios[i].name, golden.scenario);
    SnapshotFolder folder;
    scenarios[i].run(folder);
    const SnapshotHashes& actual = folder.hashes;
    EXPECT_GT(actual.pages, 0) << golden.scenario;
    // Every fetching scenario must stamp taint from a real map.
    if (std::string_view(golden.scenario) != "large-pages") {
      EXPECT_GT(actual.taintedPages, 0) << golden.scenario;
    }
    char line[96];
    std::snprintf(line, sizeof(line), "0x%016llxull, 0x%016llxull",
                  static_cast<unsigned long long>(actual.rows),
                  static_cast<unsigned long long>(actual.pageInfo));
    EXPECT_EQ(actual.rows, golden.rows)
        << golden.scenario << " snapshot rows; actual " << line;
    EXPECT_EQ(actual.pageInfo, golden.pageInfo)
        << golden.scenario << " page info; actual " << line;
  }
}

}  // namespace
}  // namespace cookiepicker::html
