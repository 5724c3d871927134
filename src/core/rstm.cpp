#include "core/rstm.h"

#include <algorithm>
#include <vector>

#include "obs/recorder.h"

namespace cookiepicker::core {

namespace {

// Figure 2. `level` is the level of A and B's *parents* per the paper's
// phrasing; the roots of the whole comparison are called with level 0 and
// occupy currentLevel 1. Two DP rows are carved from the caller's arena
// instead of a fresh (m+1)×(n+1) matrix per recursion. `arena.cells` may
// relocate while a child call grows it, so every row access re-indexes the
// vector.
std::size_t rstmSnapshot(const dom::TreeSnapshot& a, std::uint32_t nodeA,
                         const dom::TreeSnapshot& b, std::uint32_t nodeB,
                         int level, int maxLevel, RstmArena& arena) {
  if (a.symbol(nodeA) != b.symbol(nodeB)) return 0;
  const int currentLevel = level + 1;
  const std::uint32_t m = a.childCount(nodeA);
  const std::uint32_t n = b.childCount(nodeB);
  if (m == 0 || n == 0 || !a.visibleStructural(nodeA) ||
      !b.visibleStructural(nodeB) || currentLevel > maxLevel) {
    return 0;
  }
  const std::size_t rowSize = static_cast<std::size_t>(n) + 1;
  const std::size_t base = arena.acquire(2 * rowSize);
  std::size_t prev = base;
  std::size_t curr = base + rowSize;
  for (std::size_t j = 0; j < rowSize; ++j) arena.cells[prev + j] = 0;
  for (std::uint32_t i = 1; i <= m; ++i) {
    arena.cells[curr] = 0;
    const std::uint32_t childA = a.child(nodeA, i - 1);
    for (std::uint32_t j = 1; j <= n; ++j) {
      const std::size_t w =
          rstmSnapshot(a, childA, b, b.child(nodeB, j - 1), currentLevel,
                       maxLevel, arena);
      auto& cells = arena.cells;
      cells[curr + j] = std::max(
          {cells[curr + j - 1], cells[prev + j], cells[prev + j - 1] + w});
    }
    std::swap(prev, curr);
  }
  // After the final swap `prev` holds the last computed row.
  const std::size_t matched = arena.cells[prev + n];
  arena.release(base);
  return matched + 1;
}

}  // namespace

std::size_t restrictedSimpleTreeMatching(const dom::TreeSnapshot& a,
                                         std::uint32_t rootA,
                                         const dom::TreeSnapshot& b,
                                         std::uint32_t rootB,
                                         RstmArena& arena, int maxLevel) {
  return rstmSnapshot(a, rootA, b, rootB, /*level=*/0, maxLevel, arena);
}

std::size_t countRestrictedNodes(const dom::TreeSnapshot& snapshot,
                                 std::uint32_t root, int maxLevel) {
  // Preorder scan with subtree skips: a node counts when it is a non-leaf
  // visible node within the level restriction *and* every ancestor up to
  // the root counted (otherwise its whole subtree is skipped) — the
  // descent rule of a recursive count, without the call stack.
  std::size_t total = 0;
  const std::int32_t rootLevel = snapshot.level(root);
  const std::uint32_t end = snapshot.subtreeEnd(root);
  std::uint32_t i = root;
  while (i < end) {
    if (snapshot.childCount(i) == 0) {
      ++i;  // a leaf's subtree is just itself
      continue;
    }
    const int currentLevel =
        static_cast<int>(snapshot.level(i) - rootLevel) + 1;
    if (!snapshot.visibleStructural(i) || currentLevel > maxLevel) {
      i = snapshot.subtreeEnd(i);
      continue;
    }
    ++total;
    ++i;
  }
  return total;
}

double nTreeSim(const dom::TreeSnapshot& a, std::uint32_t rootA,
                const dom::TreeSnapshot& b, std::uint32_t rootB,
                RstmArena& arena, int maxLevel) {
  obs::ScopedTimer span(obs::Timer::RstmDp);
  obs::count(obs::Counter::RstmEvaluations);
  const auto matched = static_cast<double>(
      restrictedSimpleTreeMatching(a, rootA, b, rootB, arena, maxLevel));
  const auto countA =
      static_cast<double>(countRestrictedNodes(a, rootA, maxLevel));
  const auto countB =
      static_cast<double>(countRestrictedNodes(b, rootB, maxLevel));
  const double denominator = countA + countB - matched;
  return denominator <= 0.0 ? 1.0 : matched / denominator;
}

}  // namespace cookiepicker::core
