// Figure 3 micro-benchmark: the paper's worked STM example (trees A and B,
// 14 and 8 nodes, maximum matching of 7 pairs), used here both as a
// correctness anchor printed at startup and as a micro-benchmark of the
// matching algorithms on the exact trees of the figure.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "baseline/tree_distance.h"
#include "core/node_detection.h"
#include "core/rstm.h"
#include "core/stm.h"
#include "dom/builder.h"

namespace {

using namespace cookiepicker;

void BM_StmFigure3(benchmark::State& state) {
  const auto treeA = dom::figure3TreeA();
  const auto treeB = dom::figure3TreeB();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::simpleTreeMatching(*treeA, *treeB));
  }
}
BENCHMARK(BM_StmFigure3);

void BM_StmFigure3WithMapping(benchmark::State& state) {
  const auto treeA = dom::figure3TreeA();
  const auto treeB = dom::figure3TreeB();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::simpleTreeMatchingWithMapping(*treeA, *treeB));
  }
}
BENCHMARK(BM_StmFigure3WithMapping);

void BM_RstmFigure3(benchmark::State& state) {
  const auto treeA = dom::figure3TreeA();
  const auto treeB = dom::figure3TreeB();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::restrictedSimpleTreeMatching(*treeA, *treeB, 5));
  }
}
BENCHMARK(BM_RstmFigure3);

void BM_SelkowFigure3(benchmark::State& state) {
  const auto treeA = dom::figure3TreeA();
  const auto treeB = dom::figure3TreeB();
  for (auto _ : state) {
    benchmark::DoNotOptimize(baseline::selkowEditDistance(*treeA, *treeB));
  }
}
BENCHMARK(BM_SelkowFigure3);

void BM_ZhangShashaFigure3(benchmark::State& state) {
  const auto treeA = dom::figure3TreeA();
  const auto treeB = dom::figure3TreeB();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        baseline::zhangShashaEditDistance(*treeA, *treeB));
  }
}
BENCHMARK(BM_ZhangShashaFigure3);

}  // namespace

int main(int argc, char** argv) {
  using namespace cookiepicker;
  const auto treeA = dom::figure3TreeA();
  const auto treeB = dom::figure3TreeB();
  std::printf("=== Figure 3 correctness anchor ===\n");
  std::printf("|A| = %zu nodes (paper: 14), |B| = %zu nodes (paper: 8)\n",
              treeA->subtreeSize(), treeB->subtreeSize());
  std::printf("STM(A, B) = %zu matching pairs (paper: 7)\n\n",
              core::simpleTreeMatching(*treeA, *treeB));

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
