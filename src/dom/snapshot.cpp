#include "dom/snapshot.h"

namespace cookiepicker::dom {

void TreeSnapshot::finish() {
  // Child spans: one linear pass over the preorder arrays. Children of i
  // start at i + 1 and hop subtree to subtree; grouping the index lists in
  // node order keeps the offsets monotone.
  const auto n = static_cast<std::uint32_t>(symbols_.size());
  childOffset_.resize(n + 1, 0);
  childIndex_.reserve(n == 0 ? 0 : n - 1);
  for (std::uint32_t i = 0; i < n; ++i) {
    childOffset_[i] = static_cast<std::uint32_t>(childIndex_.size());
    for (std::uint32_t c = i + 1; c < subtreeEnd_[i]; c = subtreeEnd_[c]) {
      childIndex_.push_back(c);
    }
  }
  childOffset_[n] = static_cast<std::uint32_t>(childIndex_.size());

  // The paper's comparison root: the first preorder <body> element, the
  // snapshot root otherwise. Interned IDs never change once assigned, so
  // the lookup runs once per process.
  static const SymbolId bodySymbol = globalSymbolInterner().intern("body");
  for (std::uint32_t i = 0; i < n; ++i) {
    if (isElement(i) && symbols_[i] == bodySymbol) {
      comparisonRoot_ = i;
      break;
    }
  }
}

}  // namespace cookiepicker::dom
