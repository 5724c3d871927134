// Comparator tree-distance algorithms from the paper's Section 4.1.1.
//
// RSTM is one point in a design space of constrained tree edit distances;
// these are the alternatives the paper cites, implemented for the accuracy
// and cost comparisons in the ablation benchmarks:
//   * Selkow's top-down edit distance [15] — the measure STM approximates,
//     with unit insert/delete/relabel costs on whole subtrees;
//   * Zhang–Shasha's general tree edit distance (the unconstrained problem,
//     "high time complexity");
//   * a Valiente-style bottom-up distance [20] — O(|T|+|T'|), but "falls
//     short of being an accurate metric" for HTML trees whose differences
//     concentrate in leaves.
#pragma once

#include <cstddef>

#include "dom/node.h"

namespace cookiepicker::baseline {

// Selkow tree-to-tree edit distance: roots must be compared; children edits
// are insertions/deletions of whole subtrees (cost = subtree size) or
// recursive edits. Returns the edit cost.
std::size_t selkowEditDistance(const dom::Node& a, const dom::Node& b);

// Zhang–Shasha general tree edit distance with unit costs.
// O(n^2 · m^2) worst case — usable on small/medium trees only, which is the
// point of benchmarking it.
std::size_t zhangShashaEditDistance(const dom::Node& a, const dom::Node& b);

// Bottom-up matching: two nodes match iff their entire subtrees are
// identical (computed via canonical subtree fingerprints in linear time).
// Returns the number of nodes covered by matched subtrees.
std::size_t bottomUpMatching(const dom::Node& a, const dom::Node& b);

// Jaccard-normalized similarities for each measure, 1.0 = identical.
double selkowSimilarity(const dom::Node& a, const dom::Node& b);
double bottomUpSimilarity(const dom::Node& a, const dom::Node& b);

}  // namespace cookiepicker::baseline
