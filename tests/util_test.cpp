#include <gtest/gtest.h>

#include <set>

#include "util/clock.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"

namespace cookiepicker::util {
namespace {

// --- Pcg32 -------------------------------------------------------------

TEST(Pcg32, SameSeedSameSequence) {
  Pcg32 a(123, 7);
  Pcg32 b(123, 7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Pcg32, DifferentSeedsDiverge) {
  Pcg32 a(123, 7);
  Pcg32 b(124, 7);
  int differing = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() != b.next()) ++differing;
  }
  EXPECT_GT(differing, 90);
}

TEST(Pcg32, DifferentStreamsDiverge) {
  Pcg32 a(123, 7);
  Pcg32 b(123, 8);
  int differing = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() != b.next()) ++differing;
  }
  EXPECT_GT(differing, 90);
}

TEST(Pcg32, UniformRespectsBounds) {
  Pcg32 rng(5);
  for (int i = 0; i < 1000; ++i) {
    const std::uint32_t value = rng.uniform(3, 9);
    EXPECT_GE(value, 3u);
    EXPECT_LE(value, 9u);
  }
}

TEST(Pcg32, UniformCoversRange) {
  Pcg32 rng(5);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(rng.uniform(0, 4));
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Pcg32, UniformSingletonRange) {
  Pcg32 rng(5);
  EXPECT_EQ(rng.uniform(7, 7), 7u);
}

TEST(Pcg32, Uniform01InRange) {
  Pcg32 rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double value = rng.uniform01();
    EXPECT_GE(value, 0.0);
    EXPECT_LT(value, 1.0);
  }
}

TEST(Pcg32, NormalHasRoughlyRightMoments) {
  Pcg32 rng(11);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    stats.add(rng.normal(5.0, 2.0));
  }
  EXPECT_NEAR(stats.mean(), 5.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(Pcg32, ChanceExtremes) {
  Pcg32 rng(13);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
  EXPECT_FALSE(rng.chance(-0.5));
  EXPECT_TRUE(rng.chance(1.5));
}

TEST(Pcg32, ChanceApproximatesProbability) {
  Pcg32 rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Pcg32, ForkIsDeterministicPerTag) {
  Pcg32 parent1(55, 1);
  Pcg32 parent2(55, 1);
  Pcg32 fork1 = parent1.fork("site-a");
  Pcg32 fork2 = parent2.fork("site-a");
  EXPECT_EQ(fork1.next(), fork2.next());
}

TEST(Pcg32, ForksWithDifferentTagsDiffer) {
  Pcg32 parent(55, 1);
  Pcg32 forkA = parent.fork("site-a");
  Pcg32 forkB = parent.fork("site-b");
  int differing = 0;
  for (int i = 0; i < 50; ++i) {
    if (forkA.next() != forkB.next()) ++differing;
  }
  EXPECT_GT(differing, 45);
}

TEST(Fnv1a64, KnownValues) {
  // FNV-1a test vectors.
  EXPECT_EQ(fnv1a64(""), 14695981039346656037ULL);
  EXPECT_EQ(fnv1a64("a"), 12638187200555641996ULL);
  EXPECT_NE(fnv1a64("abc"), fnv1a64("acb"));
}

// --- SimClock ------------------------------------------------------------

TEST(SimClock, StartsAtGivenTime) {
  SimClock clock(500);
  EXPECT_EQ(clock.nowMs(), 500);
}

TEST(SimClock, AdvanceAccumulates) {
  SimClock clock(0);
  clock.advanceMs(100);
  clock.advanceSeconds(2.5);
  EXPECT_EQ(clock.nowMs(), 2600);
}

TEST(SimClock, AdvanceDays) {
  SimClock clock(0);
  clock.advanceDays(1.0);
  EXPECT_EQ(clock.nowMs(), 86400000);
}

TEST(SimClock, TimestampStringFormat) {
  SimClock clock(0);
  clock.advanceMs(90061001);  // 1 day, 1h 1m 1.001s
  EXPECT_EQ(clock.timestampString(), "day 1, 01:01:01.001");
}

// --- strings ---------------------------------------------------------------

TEST(Strings, ToLowerAscii) {
  EXPECT_EQ(toLowerAscii("AbC-123"), "abc-123");
  EXPECT_EQ(toLowerAscii(""), "");
}

TEST(Strings, EqualsIgnoreCase) {
  EXPECT_TRUE(equalsIgnoreCase("Set-Cookie", "set-cookie"));
  EXPECT_FALSE(equalsIgnoreCase("Set-Cookie", "set-cookie2"));
  EXPECT_TRUE(equalsIgnoreCase("", ""));
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hello \t\r\n"), "hello");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a;;b", ';');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Strings, SplitWhitespaceDropsEmpty) {
  const auto parts = splitWhitespace("  a \t b\nc  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ", "), "");
}

TEST(Strings, ContainsIgnoreCase) {
  EXPECT_TRUE(containsIgnoreCase("text/HTML; charset", "html"));
  EXPECT_FALSE(containsIgnoreCase("text/plain", "html"));
  EXPECT_TRUE(containsIgnoreCase("anything", ""));
}

TEST(Strings, HasAlphanumeric) {
  EXPECT_TRUE(hasAlphanumeric("hello"));
  EXPECT_TRUE(hasAlphanumeric("-- 7 --"));
  EXPECT_FALSE(hasAlphanumeric("--- !!! ***"));
  EXPECT_FALSE(hasAlphanumeric(""));
}

TEST(Strings, LooksLikeDateOrTime) {
  EXPECT_TRUE(looksLikeDateOrTime("12:30:05"));
  EXPECT_TRUE(looksLikeDateOrTime("2007-01-17"));
  EXPECT_TRUE(looksLikeDateOrTime("01/17/2007 12:30"));
  EXPECT_FALSE(looksLikeDateOrTime("updated at 12:30"));  // has letters
  EXPECT_FALSE(looksLikeDateOrTime("::--"));               // no digits
  EXPECT_FALSE(looksLikeDateOrTime(""));
}

// --- stats ----------------------------------------------------------------

TEST(RunningStats, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.stddev(), 0.0);
}

TEST(RunningStats, BasicMoments) {
  RunningStats stats;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.add(v);
  }
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_EQ(stats.min(), 2.0);
  EXPECT_EQ(stats.max(), 9.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-9);
}

TEST(SampleSet, Percentiles) {
  SampleSet samples;
  for (int i = 1; i <= 100; ++i) samples.add(i);
  EXPECT_EQ(samples.percentile(50), 50.0);
  EXPECT_EQ(samples.percentile(99), 99.0);
  EXPECT_EQ(samples.percentile(100), 100.0);
  EXPECT_EQ(samples.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(samples.mean(), 50.5);
}

TEST(SampleSet, EmptyPercentileIsZero) {
  SampleSet samples;
  EXPECT_EQ(samples.percentile(50), 0.0);
  EXPECT_EQ(samples.mean(), 0.0);
}

TEST(TextTable, RendersAlignedTable) {
  TextTable table({"Site", "Cookies"});
  table.addRow({"S1", "2"});
  table.addRow({"S16", "25"});
  const std::string rendered = table.render();
  EXPECT_NE(rendered.find("| Site |"), std::string::npos);
  EXPECT_NE(rendered.find("| S16  |"), std::string::npos);
  EXPECT_NE(rendered.find("25"), std::string::npos);
}

TEST(TextTable, FormatDouble) {
  EXPECT_EQ(TextTable::formatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::formatDouble(2683.333, 1), "2683.3");
}

}  // namespace
}  // namespace cookiepicker::util
