// Detection-cost scaling (Section 4.1.3's claim): full STM is O(|T|·|T'|)
// and "will spend more than one second in difference detection for some
// large Web pages", while RSTM's level restriction keeps online detection
// in the low-millisecond range (Table 1 average: 14.6 ms).
//
// Sweeps synthetic page size (sections ≈ 60 DOM nodes each) and measures
// STM, RSTM(l=5), CVCE extraction+NTextSim, and the full decision pipeline.
// The general tree edit distance (Zhang–Shasha) is included at small sizes
// only — it is the "high time complexity" comparator of Section 4.1.1.
#include <benchmark/benchmark.h>

#include "baseline/tree_distance.h"
#include "core/cvce.h"
#include "core/decision.h"
#include "core/node_detection.h"
#include "core/rstm.h"
#include "core/stm.h"
#include "html/parser.h"
#include "server/generator.h"

namespace {

using namespace cookiepicker;

// Two page variants of the same size, differing modestly (different seed
// for the last section), parsed once per benchmark setup.
struct PagePair {
  std::unique_ptr<dom::Node> regular;
  std::unique_ptr<dom::Node> hidden;

  explicit PagePair(int sections) {
    regular = html::parseHtml(server::generateLargePageHtml(sections, 1));
    hidden = html::parseHtml(server::generateLargePageHtml(sections, 2));
  }
};

void BM_FullStm(benchmark::State& state) {
  const PagePair pages(static_cast<int>(state.range(0)));
  const dom::Node& rootA = core::comparisonRoot(*pages.regular);
  const dom::Node& rootB = core::comparisonRoot(*pages.hidden);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::simpleTreeMatching(rootA, rootB));
  }
  state.counters["nodes"] =
      static_cast<double>(pages.regular->subtreeSize());
}
BENCHMARK(BM_FullStm)->Arg(5)->Arg(20)->Arg(80)->Arg(200)->Arg(400)
    ->Unit(benchmark::kMillisecond);

void BM_Rstm5(benchmark::State& state) {
  const PagePair pages(static_cast<int>(state.range(0)));
  const dom::Node& rootA = core::comparisonRoot(*pages.regular);
  const dom::Node& rootB = core::comparisonRoot(*pages.hidden);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::nTreeSim(rootA, rootB, 5));
  }
  state.counters["nodes"] =
      static_cast<double>(pages.regular->subtreeSize());
}
BENCHMARK(BM_Rstm5)->Arg(5)->Arg(20)->Arg(80)->Arg(200)->Arg(400)
    ->Unit(benchmark::kMillisecond);

void BM_Cvce(benchmark::State& state) {
  const PagePair pages(static_cast<int>(state.range(0)));
  const dom::Node& rootA = core::comparisonRoot(*pages.regular);
  const dom::Node& rootB = core::comparisonRoot(*pages.hidden);
  for (auto _ : state) {
    const auto set1 = core::extractContextContent(rootA);
    const auto set2 = core::extractContextContent(rootB);
    benchmark::DoNotOptimize(core::nTextSim(set1, set2));
  }
}
BENCHMARK(BM_Cvce)->Arg(5)->Arg(20)->Arg(80)->Arg(200)->Arg(400)
    ->Unit(benchmark::kMillisecond);

// The complete online pipeline CookiePicker runs per hidden response:
// parse the hidden HTML + both detection algorithms + decision.
void BM_FullDecisionPipeline(benchmark::State& state) {
  const int sections = static_cast<int>(state.range(0));
  const std::string hiddenHtml = server::generateLargePageHtml(sections, 2);
  const auto regular =
      html::parseHtml(server::generateLargePageHtml(sections, 1));
  for (auto _ : state) {
    const auto hidden = html::parseHtml(hiddenHtml);
    benchmark::DoNotOptimize(core::decideCookieUsefulness(*regular, *hidden));
  }
  state.counters["html_kb"] = static_cast<double>(hiddenHtml.size()) / 1024.0;
}
BENCHMARK(BM_FullDecisionPipeline)->Arg(5)->Arg(20)->Arg(80)->Arg(200)
    ->Unit(benchmark::kMillisecond);

void BM_ZhangShasha(benchmark::State& state) {
  const PagePair pages(static_cast<int>(state.range(0)));
  const dom::Node& rootA = core::comparisonRoot(*pages.regular);
  const dom::Node& rootB = core::comparisonRoot(*pages.hidden);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        baseline::zhangShashaEditDistance(rootA, rootB));
  }
}
// Quadratic-squared blow-up: keep the sweep small.
BENCHMARK(BM_ZhangShasha)->Arg(2)->Arg(5)->Arg(10)
    ->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_SelkowDistance(benchmark::State& state) {
  const PagePair pages(static_cast<int>(state.range(0)));
  const dom::Node& rootA = core::comparisonRoot(*pages.regular);
  const dom::Node& rootB = core::comparisonRoot(*pages.hidden);
  for (auto _ : state) {
    benchmark::DoNotOptimize(baseline::selkowEditDistance(rootA, rootB));
  }
}
BENCHMARK(BM_SelkowDistance)->Arg(5)->Arg(20)->Arg(80)
    ->Unit(benchmark::kMillisecond);

void BM_BottomUpDistance(benchmark::State& state) {
  const PagePair pages(static_cast<int>(state.range(0)));
  const dom::Node& rootA = core::comparisonRoot(*pages.regular);
  const dom::Node& rootB = core::comparisonRoot(*pages.hidden);
  for (auto _ : state) {
    benchmark::DoNotOptimize(baseline::bottomUpMatching(rootA, rootB));
  }
}
BENCHMARK(BM_BottomUpDistance)->Arg(5)->Arg(20)->Arg(80)->Arg(200)
    ->Unit(benchmark::kMillisecond);

void BM_HtmlParse(benchmark::State& state) {
  const std::string html = server::generateLargePageHtml(
      static_cast<int>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(html::parseHtml(html));
  }
  state.counters["html_kb"] = static_cast<double>(html.size()) / 1024.0;
}
BENCHMARK(BM_HtmlParse)->Arg(5)->Arg(20)->Arg(80)->Arg(200)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
