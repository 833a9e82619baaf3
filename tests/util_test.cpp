// Unit tests for src/util: RNG, string helpers, table formatter, time units,
// and the check macros.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "util/check.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/time.h"

namespace torpedo {
namespace {

// --- Rng ---------------------------------------------------------------------

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

class RngBelowTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngBelowTest, StaysBelowBound) {
  Rng rng(7);
  const std::uint64_t bound = GetParam();
  for (int i = 0; i < 2000; ++i) EXPECT_LT(rng.below(bound), bound);
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBelowTest,
                         ::testing::Values(1, 2, 3, 7, 10, 100, 1000,
                                           1ULL << 33, ~0ULL));

TEST(Rng, BelowZeroBoundThrows) {
  Rng rng(7);
  EXPECT_THROW(rng.below(0), CheckFailure);
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all 7 values hit
}

TEST(Rng, RangeSingleton) {
  Rng rng(7);
  EXPECT_EQ(rng.range(5, 5), 5);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(rng.chance(1, 1));
    EXPECT_TRUE(rng.chance(5, 3));
    EXPECT_FALSE(rng.chance(0, 10));
  }
}

TEST(Rng, ChanceRoughlyFair) {
  Rng rng(7);
  int hits = 0;
  for (int i = 0; i < 10000; ++i)
    if (rng.chance(1, 4)) ++hits;
  EXPECT_NEAR(hits, 2500, 250);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, WeightedRespectsWeights) {
  Rng rng(7);
  const double weights[] = {1.0, 0.0, 3.0};
  std::map<std::size_t, int> counts;
  for (int i = 0; i < 8000; ++i) counts[rng.weighted(weights)]++;
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.5);
}

TEST(Rng, WeightedAllZeroThrows) {
  Rng rng(7);
  const double weights[] = {0.0, 0.0};
  EXPECT_THROW(rng.weighted(weights), CheckFailure);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(7);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  auto resorted = v;
  std::sort(resorted.begin(), resorted.end());
  EXPECT_EQ(resorted, sorted);
}

TEST(Rng, ForkIndependentOfParentDraws) {
  Rng a(42);
  Rng child = a.fork();
  // Continuing the parent must not replay the child's stream.
  EXPECT_NE(child.next(), a.next());
}

TEST(Rng, PickFromVector) {
  Rng rng(7);
  const std::vector<int> v{10, 20, 30};
  for (int i = 0; i < 50; ++i) {
    const int p = rng.pick(v);
    EXPECT_TRUE(p == 10 || p == 20 || p == 30);
  }
}

// --- strings -------------------------------------------------------------------

TEST(Strings, SplitBasic) {
  auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, SplitEmpty) {
  auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Strings, SplitWsDropsEmpties) {
  auto parts = split_ws("  cpu0  12 \t 34\n");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "cpu0");
  EXPECT_EQ(parts[2], "34");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n "), "");
  EXPECT_EQ(trim("abc"), "abc");
}

struct ParseCase {
  const char* text;
  bool ok;
  std::uint64_t value;
};

// Print the input text rather than the raw bytes so test names are stable.
void PrintTo(const ParseCase& c, std::ostream* os) {
  *os << '"' << c.text << '"';
}

class ParseU64Test : public ::testing::TestWithParam<ParseCase> {};

TEST_P(ParseU64Test, Parses) {
  const ParseCase& c = GetParam();
  auto v = parse_u64(c.text);
  EXPECT_EQ(v.has_value(), c.ok) << c.text;
  if (c.ok && v) EXPECT_EQ(*v, c.value) << c.text;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParseU64Test,
    ::testing::Values(ParseCase{"0", true, 0}, ParseCase{"123", true, 123},
                      ParseCase{"0x10", true, 16},
                      ParseCase{"0xffffffffffffffff", true, ~0ULL},
                      ParseCase{"0XAb", true, 0xab},
                      ParseCase{"18446744073709551615", true, ~0ULL},
                      ParseCase{"18446744073709551616", false, 0},  // overflow
                      ParseCase{"", false, 0}, ParseCase{"-1", false, 0},
                      ParseCase{"0x", false, 0}, ParseCase{"12a", false, 0},
                      ParseCase{"0x1 ", false, 0},
                      ParseCase{"0x12345678123456789", false, 0}));

TEST(Strings, ParseI64) {
  EXPECT_EQ(parse_i64("-5"), -5);
  EXPECT_EQ(parse_i64("+7"), 7);
  EXPECT_EQ(parse_i64("0x10"), 16);
  EXPECT_EQ(parse_i64("-0x10"), -16);
  EXPECT_FALSE(parse_i64("--1").has_value());
  EXPECT_FALSE(parse_i64("9223372036854775808").has_value());
  EXPECT_EQ(parse_i64("-9223372036854775808"),
            std::numeric_limits<std::int64_t>::min());
}

class HexRoundTripTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HexRoundTripTest, RoundTrips) {
  EXPECT_EQ(parse_u64(hex(GetParam())), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Values, HexRoundTripTest,
                         ::testing::Values(0, 1, 0x10, 0x680002, 0xffffffff,
                                           ~0ULL, 0x7f0000000000ULL));

TEST(Strings, Format) {
  EXPECT_EQ(format("%d-%s", 4, "x"), "4-x");
  EXPECT_EQ(format("%.2f", 1.005), "1.00");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("kworker/u:3", "kworker"));
  EXPECT_FALSE(starts_with("kw", "kworker"));
}

// --- table ---------------------------------------------------------------------

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"A", "LONG"});
  t.add_row({"xx", "1"});
  t.add_row({"y", "22"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("A   LONG"), std::string::npos);
  EXPECT_NE(out.find("xx  1"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TextTable, RowWidthMismatchThrows) {
  TextTable t({"A", "B"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckFailure);
}

TEST(TextTable, EmptyHeaderThrows) {
  EXPECT_THROW(TextTable({}), CheckFailure);
}

// --- time ---------------------------------------------------------------------

TEST(Time, JiffyConversions) {
  EXPECT_EQ(nanos_to_jiffies(kSecond), 100);
  EXPECT_EQ(nanos_to_jiffies(kJiffy - 1), 0);
  EXPECT_EQ(jiffies_to_nanos(100), kSecond);
  EXPECT_EQ(seconds(2.5), 2 * kSecond + kSecond / 2);
}

// --- check ---------------------------------------------------------------------

TEST(Check, ThrowsWithLocation) {
  try {
    TORPEDO_CHECK_MSG(false, "custom detail");
    FAIL() << "should have thrown";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("custom detail"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("util_test.cpp"), std::string::npos);
  }
}

TEST(Check, PassesSilently) { TORPEDO_CHECK(1 + 1 == 2); }

// --- log ---------------------------------------------------------------------

TEST(Log, LevelGate) {
  const LogLevel old = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  set_log_level(old);
}

}  // namespace
}  // namespace torpedo
