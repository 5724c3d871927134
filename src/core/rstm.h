// Restricted Simple Tree Matching (RSTM) and the normalized top-down
// distance metric NTreeSim — Section 4.1 / Figure 2 / Formula 2.
//
// Two restrictions over plain STM:
//  1. level: only the upper `maxLevel` levels of the trees are compared,
//     cutting cost and excluding leaf-level page dynamics (rotating ads);
//  2. visibility: a matched pair counts only if the nodes are non-leaf
//     nodes with visual effect — comments, scripts and other non-visual
//     elements are excluded, and text leaves are left to CVCE.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "dom/snapshot.h"

namespace cookiepicker::core {

inline constexpr int kDefaultMaxLevel = 5;  // the paper's l = 5

// Reusable scratch memory for the snapshot RSTM: a bump arena the rolling
// DP rows are carved from, so recursion performs no per-node heap
// allocation once the arena has grown to the working-set size. Owned by the
// caller (one per ForcumEngine / bench loop) and reused across steps; not
// thread-safe — give each thread its own.
struct RstmArena {
  std::vector<std::size_t> cells;
  std::size_t used = 0;

  // Reserves `count` cells and returns their base offset. Offsets stay
  // valid across nested acquires even when the vector reallocates, which is
  // why the DP below indexes `cells` instead of holding pointers.
  std::size_t acquire(std::size_t count) {
    const std::size_t base = used;
    used += count;
    if (cells.size() < used) cells.resize(std::max(used, cells.size() * 2));
    return base;
  }
  void release(std::size_t base) { used = base; }
};

// Figure 2 over dom::TreeSnapshot indices: RSTM(A, B, level) with level
// starting at 0 for the roots; pairs at depth >= maxLevel, leaf pairs, and
// non-visual pairs contribute nothing (and prune their subtrees). Interned
// symbol compares, and rolling DP rows carved from the caller's arena.
// tests/detection_fastpath_test.cpp proves these return bit-identical
// results to the node-tree reference in tests/oracle/ on seeded random
// tree pairs.
std::size_t restrictedSimpleTreeMatching(const dom::TreeSnapshot& a,
                                         std::uint32_t rootA,
                                         const dom::TreeSnapshot& b,
                                         std::uint32_t rootB,
                                         RstmArena& arena,
                                         int maxLevel = kDefaultMaxLevel);

// N(A, l): the number of rows RSTM(A, A, l) would count — non-leaf visible
// rows in the upper l levels, reachable through counted ancestors.
// Computed by a single preorder scan in O(n) (Section 4.1.4).
std::size_t countRestrictedNodes(const dom::TreeSnapshot& snapshot,
                                 std::uint32_t root,
                                 int maxLevel = kDefaultMaxLevel);

// Formula 2: NTreeSim(A, B, l) =
//   RSTM(A,B,l) / (N(A,l) + N(B,l) - RSTM(A,B,l)).
// Both-empty trees (no countable rows) are defined as similarity 1.
double nTreeSim(const dom::TreeSnapshot& a, std::uint32_t rootA,
                const dom::TreeSnapshot& b, std::uint32_t rootB,
                RstmArena& arena, int maxLevel = kDefaultMaxLevel);

}  // namespace cookiepicker::core
