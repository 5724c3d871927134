// Byte-identity pin for the origin's container pages.
//
// The fixed scenarios of pin_pages.h fetch container pages from every kind
// of site the repository builds; this pin folds what a client receives (the
// body, the Set-Cookie list and the X-Cookie-Provenance header) into
// fnv1a64 hashes, one set per scenario. The goldens were computed by
// compiling these same scenarios against the DOM-building renderer (build
// tree → select → serialize) that the direct emitter replaced. Any drift
// in the bytes, in the order of RNG draws or in taint-label numbering moves
// a hash and names the scenario.
#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "pin_pages.h"
#include "util/rng.h"

namespace cookiepicker::server {
namespace {

struct PinHashes {
  std::uint64_t body = 0xcbf29ce484222325ull;
  std::uint64_t setCookies = 0xcbf29ce484222325ull;
  std::uint64_t provenance = 0xcbf29ce484222325ull;
  int taintedPages = 0;  // responses whose provenance map has ranges
};

void fold(std::uint64_t& hash, std::string_view bytes) {
  hash = (hash ^ util::fnv1a64(bytes)) * 0x100000001b3ull;
}

class ResponseFolder : public pin::PageVisitor {
 public:
  void response(const net::HttpResponse& response) override {
    fold(hashes.body, response.body);
    std::string cookies;
    for (const std::string& value : response.setCookieHeaders()) {
      cookies += value;
      cookies += '\n';
    }
    fold(hashes.setCookies, cookies);
    const std::optional<std::string> header =
        response.headers.get(provenance::kCookieProvenanceHeader);
    fold(hashes.provenance, header.value_or("-"));
    if (header.has_value()) {
      const auto map = provenance::ProvenanceMap::decodeHeader(*header);
      if (map.has_value() && !map->empty()) ++hashes.taintedPages;
    }
  }
  void page(std::string_view html) override { fold(hashes.body, html); }

  PinHashes hashes;
};

// Expected hashes per pin::scenarios() entry, in the same order.
struct Golden {
  const char* scenario;
  PinHashes expected;
};

std::vector<Golden> goldens() {
  return {
      {"table1",
       {0xbe924d9917417a50ull, 0x581d46b5f94b393aull, 0x76ae7c3fa0a9105dull}},
      {"table2",
       {0x0ac9399502659358ull, 0xa719db78f896b029ull, 0x2c46a6f77e93f6e8ull}},
      {"measurement",
       {0xd309cae96aaead97ull, 0x2ba4b4292a3989cdull, 0xa8d3ab436f24870bull}},
      {"evasion",
       {0x125a90c90a09a8f4ull, 0xfde313816e1724eaull, 0x61be48c13b6df9b3ull}},
      {"ad-structural",
       {0x8a333d755ab11517ull, 0x41d6f8382a8b7611ull, 0xa973d3fb4b85feedull}},
      {"layout-shuffle",
       {0x75bd538eef430466ull, 0x5810a7f9c9ef41aaull, 0x7768021e6cccd953ull}},
      {"noise-omitted",
       {0x4e575e56cc09ca10ull, 0x5993c673e92208bbull, 0x1fd5a129a4eeb1cdull}},
      {"large-pages",
       {0xd8c01408bddfd6a4ull, 0xcbf29ce484222325ull, 0xcbf29ce484222325ull}},
      {"hostile-input",
       {0xdc2515297e9cc61aull, 0x3020e1a2e9ec7bdbull, 0x06c3e6c790e2bea4ull}},
  };
}

TEST(RenderPin, ContainerBytesMatchTreeRenderer) {
  const std::vector<pin::Scenario> scenarios = pin::scenarios();
  const std::vector<Golden> expected = goldens();
  ASSERT_EQ(scenarios.size(), expected.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Golden& golden = expected[i];
    ASSERT_STREQ(scenarios[i].name, golden.scenario);
    ResponseFolder folder;
    scenarios[i].run(folder);
    const PinHashes& actual = folder.hashes;
    // Every fetching scenario must exercise the provenance path for real.
    if (golden.expected.provenance != PinHashes{}.provenance) {
      EXPECT_GT(actual.taintedPages, 0) << golden.scenario;
    }
    char line[160];
    std::snprintf(line, sizeof(line),
                  "{0x%016llxull, 0x%016llxull, 0x%016llxull}",
                  static_cast<unsigned long long>(actual.body),
                  static_cast<unsigned long long>(actual.setCookies),
                  static_cast<unsigned long long>(actual.provenance));
    EXPECT_EQ(actual.body, golden.expected.body)
        << golden.scenario << " body; actual " << line;
    EXPECT_EQ(actual.setCookies, golden.expected.setCookies)
        << golden.scenario << " Set-Cookie; actual " << line;
    EXPECT_EQ(actual.provenance, golden.expected.provenance)
        << golden.scenario << " X-Cookie-Provenance; actual " << line;
  }
}

}  // namespace
}  // namespace cookiepicker::server
