// Row-by-row equality of two detection snapshots, shared by the suites that
// pin one snapshot producer to another: the streaming build against the
// reference parse, an on-demand build against an eager one, provenance on
// and off.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>

#include "dom/snapshot.h"

namespace cookiepicker::testsupport {

// Every snapshot array (symbols, subtree extents, levels, flags, text
// hashes, taint stamps and child spans) and the comparison root. Stops at
// the first diverging row; callers that loop check HasFailure().
inline void expectSnapshotsIdentical(const dom::TreeSnapshot& a,
                                     const dom::TreeSnapshot& b) {
  ASSERT_EQ(a.nodeCount(), b.nodeCount());
  ASSERT_EQ(a.hasProvenance(), b.hasProvenance());
  for (std::uint32_t i = 0; i < a.nodeCount(); ++i) {
    ASSERT_EQ(a.symbol(i), b.symbol(i)) << "row " << i;
    ASSERT_EQ(a.subtreeEnd(i), b.subtreeEnd(i)) << "row " << i;
    ASSERT_EQ(a.level(i), b.level(i)) << "row " << i;
    ASSERT_EQ(a.rawFlags(i), b.rawFlags(i)) << "row " << i;
    ASSERT_EQ(a.textHash(i), b.textHash(i)) << "row " << i;
    ASSERT_EQ(a.taintSet(i), b.taintSet(i)) << "row " << i;
    ASSERT_EQ(a.childCount(i), b.childCount(i)) << "row " << i;
    for (std::uint32_t k = 0; k < a.childCount(i); ++k) {
      ASSERT_EQ(a.child(i, k), b.child(i, k)) << "row " << i << " child " << k;
    }
  }
  ASSERT_EQ(a.comparisonRootIndex(), b.comparisonRootIndex());
}

}  // namespace cookiepicker::testsupport
