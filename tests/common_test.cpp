// Unit tests for src/common: RNG, ring arithmetic, bit/prefix helpers,
// statistics, table printing.
#include <gtest/gtest.h>

#include <set>

#include "common/bits.hpp"
#include "common/ring_math.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace lmk {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, ForkedStreamsDiffer) {
  Rng a(7);
  Rng child = a.fork();
  Rng child2 = a.fork();
  EXPECT_NE(child.next(), child2.next());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BelowIsBoundedAndCoversRange) {
  Rng rng(2);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    std::uint64_t v = rng.below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, BelowOneAlwaysZero) {
  Rng rng(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(4);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    std::int64_t v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NormalMoments) {
  Rng rng(5);
  Accumulator acc;
  for (int i = 0; i < 20000; ++i) acc.add(rng.normal());
  EXPECT_NEAR(acc.mean(), 0.0, 0.05);
  EXPECT_NEAR(acc.stddev(), 1.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng(6);
  Accumulator acc;
  for (int i = 0; i < 20000; ++i) acc.add(rng.exponential(150.0));
  EXPECT_NEAR(acc.mean(), 150.0, 5.0);
}

TEST(Rng, SampleIndicesDistinct) {
  Rng rng(8);
  auto s = rng.sample_indices(100, 30);
  EXPECT_EQ(s.size(), 30u);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 30u);
  for (std::size_t v : s) EXPECT_LT(v, 100u);
}

TEST(Rng, SampleAllIndices) {
  Rng rng(9);
  auto s = rng.sample_indices(5, 5);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 5u);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(10);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.shuffle(v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(Mix64, InjectiveOnSmallSample) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 10000; ++i) seen.insert(mix64(i));
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(HashString, DifferentNamesDiffer) {
  EXPECT_NE(hash_string("index-a", 7), hash_string("index-b", 7));
}

TEST(HashString, Deterministic) {
  EXPECT_EQ(hash_string("docs", 4), hash_string("docs", 4));
}

TEST(Zipf, RankZeroMostFrequent) {
  Rng rng(11);
  ZipfSampler zipf(1000, 1.0);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[500]);
}

TEST(Zipf, AllDrawsInRange) {
  Rng rng(12);
  ZipfSampler zipf(50, 1.2);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(zipf(rng), 50u);
}

// ----- ring arithmetic -----

TEST(RingMath, OpenIntervalBasic) {
  EXPECT_TRUE(in_open(5, 1, 10));
  EXPECT_FALSE(in_open(1, 1, 10));
  EXPECT_FALSE(in_open(10, 1, 10));
  EXPECT_FALSE(in_open(0, 1, 10));
}

TEST(RingMath, OpenIntervalWraps) {
  Id hi = ~Id{0};
  EXPECT_TRUE(in_open(hi, hi - 5, 3));
  EXPECT_TRUE(in_open(1, hi - 5, 3));
  EXPECT_FALSE(in_open(4, hi - 5, 3));
  EXPECT_FALSE(in_open(hi - 6, hi - 5, 3));
}

TEST(RingMath, OpenIntervalDegenerate) {
  // (a, a) is the whole ring except a.
  EXPECT_TRUE(in_open(5, 9, 9));
  EXPECT_FALSE(in_open(9, 9, 9));
}

TEST(RingMath, OpenClosed) {
  EXPECT_TRUE(in_open_closed(10, 1, 10));
  EXPECT_FALSE(in_open_closed(1, 1, 10));
  EXPECT_TRUE(in_open_closed(2, ~Id{0} - 1, 5));
  // Full ring when a == b.
  EXPECT_TRUE(in_open_closed(123, 7, 7));
}

TEST(RingMath, ClosedOpen) {
  EXPECT_TRUE(in_closed_open(1, 1, 10));
  EXPECT_FALSE(in_closed_open(10, 1, 10));
  EXPECT_TRUE(in_closed_open(~Id{0}, ~Id{0} - 1, 5));
  EXPECT_TRUE(in_closed_open(42, 3, 3));
}

TEST(RingMath, ClockwiseDistanceWraps) {
  EXPECT_EQ(clockwise_distance(10, 15), 5u);
  EXPECT_EQ(clockwise_distance(15, 10), ~Id{0} - 4);
}

// ----- bit/prefix helpers -----

TEST(Bits, GetBitMsbFirst) {
  Id x = Id{1} << 63;  // bit 1 set
  EXPECT_EQ(get_bit(x, 1), 1);
  EXPECT_EQ(get_bit(x, 2), 0);
  EXPECT_EQ(get_bit(Id{1}, 64), 1);
  EXPECT_EQ(get_bit(Id{1}, 63), 0);
}

TEST(Bits, SetClearRoundTrip) {
  Id x = 0;
  x = set_bit(x, 3);
  EXPECT_EQ(get_bit(x, 3), 1);
  x = clear_bit(x, 3);
  EXPECT_EQ(x, 0u);
}

TEST(Bits, PrefixMasksLowBits) {
  Id x = ~Id{0};
  EXPECT_EQ(prefix(x, 0), 0u);
  EXPECT_EQ(prefix(x, 64), x);
  EXPECT_EQ(prefix(x, 1), Id{1} << 63);
  EXPECT_EQ(prefix(x, 8), Id{0xFF} << 56);
}

TEST(Bits, SamePrefix) {
  Id a = 0xABCD000000000000ull;
  Id b = 0xABCF000000000000ull;
  EXPECT_TRUE(same_prefix(a, b, 14));
  EXPECT_FALSE(same_prefix(a, b, 16));
  EXPECT_TRUE(same_prefix(a, b, 0));
}

TEST(Bits, CommonPrefixLength) {
  EXPECT_EQ(common_prefix_length(0, 0), 64);
  EXPECT_EQ(common_prefix_length(0, Id{1} << 63), 0);
  Id a = 0xFF00000000000000ull;
  Id b = 0xFF80000000000000ull;
  EXPECT_EQ(common_prefix_length(a, b), 8);
}

TEST(Bits, FirstZeroBit) {
  Id x = ~Id{0};
  EXPECT_EQ(first_zero_bit(x, 1, 64), 0);  // none
  Id y = clear_bit(x, 10);
  EXPECT_EQ(first_zero_bit(y, 1, 64), 10);
  EXPECT_EQ(first_zero_bit(y, 11, 64), 0);
  EXPECT_EQ(first_zero_bit(0, 5, 64), 5);
}

TEST(Bits, PrefixSpan) {
  KeySpan whole = prefix_span(0, 0);
  EXPECT_EQ(whole.lo, 0u);
  EXPECT_EQ(whole.hi, ~Id{0});
  KeySpan leaf = prefix_span(42, 64);
  EXPECT_EQ(leaf.lo, 42u);
  EXPECT_EQ(leaf.hi, 42u);
  KeySpan upper_half = prefix_span(Id{1} << 63, 1);
  EXPECT_EQ(upper_half.lo, Id{1} << 63);
  EXPECT_EQ(upper_half.hi, ~Id{0});
}

// ----- statistics -----

TEST(Stats, AccumulatorBasics) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  acc.add(2);
  acc.add(4);
  acc.add(6);
  EXPECT_EQ(acc.count(), 3u);
  EXPECT_DOUBLE_EQ(acc.mean(), 4.0);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 6.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 12.0);
  EXPECT_NEAR(acc.variance(), 4.0, 1e-12);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
}

TEST(Stats, PercentileSingleValue) {
  EXPECT_DOUBLE_EQ(percentile({7.0}, 95), 7.0);
}

TEST(Stats, GiniEvenIsZero) {
  EXPECT_NEAR(gini({5, 5, 5, 5}), 0.0, 1e-12);
}

TEST(Stats, GiniSkewedApproachesOne) {
  EXPECT_GT(gini({0, 0, 0, 100}), 0.7);
}

TEST(Stats, GiniEmptyAndZeroSafe) {
  EXPECT_EQ(gini({}), 0.0);
  EXPECT_EQ(gini({0, 0}), 0.0);
}

TEST(Stats, PercentileNthMatchesSortingPercentile) {
  Rng rng(91);
  std::vector<double> v;
  for (int i = 0; i < 5000; ++i) v.push_back(rng.uniform(0, 1000));
  for (double p : {0.0, 12.5, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    double expect = percentile(v, p);  // copies + fully sorts
    std::vector<double> scratch = v;
    EXPECT_DOUBLE_EQ(percentile_nth(scratch, p), expect) << "p=" << p;
  }
}

TEST(Stats, PercentileNthRepeatedCallsOnSameVector) {
  // The flagship bench extracts p50/p90/p99/p999 from one sample vector
  // with consecutive nth_element calls; earlier partial orderings must
  // not change later answers.
  Rng rng(92);
  std::vector<double> v;
  for (int i = 0; i < 3000; ++i) v.push_back(rng.uniform(-5, 5));
  std::vector<double> copy = v;
  double p50 = percentile_nth(copy, 50);
  double p99 = percentile_nth(copy, 99);
  double p01 = percentile_nth(copy, 1);
  EXPECT_DOUBLE_EQ(p50, percentile(v, 50));
  EXPECT_DOUBLE_EQ(p99, percentile(v, 99));
  EXPECT_DOUBLE_EQ(p01, percentile(v, 1));
}

// ----- table printing -----

TEST(Table, AlignsColumns) {
  TablePrinter t({"a", "long_header"});
  t.add_row({"xxxx", "1"});
  std::string s = t.str();
  EXPECT_NE(s.find("a     long_header"), std::string::npos);
  EXPECT_NE(s.find("xxxx  1"), std::string::npos);
}

TEST(Table, CsvFormat) {
  TablePrinter t({"x", "y"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.csv(), "x,y\n1,2\n");
}

TEST(Table, FmtDecimals) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
}

}  // namespace
}  // namespace lmk
