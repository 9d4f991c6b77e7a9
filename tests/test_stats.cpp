#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>

namespace pcieb {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(42.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1: sum sq dev = 32, / 7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MatchesNaiveOnRandomData) {
  std::mt19937 gen(7);
  std::uniform_real_distribution<double> d(-100.0, 100.0);
  RunningStats s;
  std::vector<double> vals;
  for (int i = 0; i < 10000; ++i) {
    const double v = d(gen);
    vals.push_back(v);
    s.add(v);
  }
  double mean = 0;
  for (double v : vals) mean += v;
  mean /= vals.size();
  double var = 0;
  for (double v : vals) var += (v - mean) * (v - mean);
  var /= (vals.size() - 1);
  EXPECT_NEAR(s.mean(), mean, 1e-9);
  EXPECT_NEAR(s.variance(), var, 1e-6);
}

TEST(SampleSet, EmptyQueriesAreZero) {
  SampleSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.median(), 0.0);
  EXPECT_EQ(s.percentile(99), 0.0);
  EXPECT_TRUE(s.cdf().empty());
}

TEST(SampleSet, MedianOddAndEven) {
  SampleSet odd({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(odd.median(), 2.0);
  SampleSet even({4.0, 1.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(even.median(), 2.5);
}

TEST(SampleSet, PercentileEdges) {
  SampleSet s({10.0, 20.0, 30.0, 40.0});
  EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 40.0);
  EXPECT_DOUBLE_EQ(s.percentile(-5), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(105), 40.0);
}

TEST(SampleSet, PercentileInterpolates) {
  SampleSet s({0.0, 100.0});
  EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(25), 25.0);
}

TEST(SampleSet, PercentilesOfUniformSequence) {
  SampleSet s;
  for (int i = 0; i <= 1000; ++i) s.add(static_cast<double>(i));
  EXPECT_NEAR(s.percentile(95), 950.0, 1.0);
  EXPECT_NEAR(s.percentile(99), 990.0, 1.0);
  EXPECT_NEAR(s.percentile(99.9), 999.0, 1.0);
}

TEST(SampleSet, AddInvalidatesSortCache) {
  SampleSet s({5.0, 1.0});
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  s.add(0.5);
  EXPECT_DOUBLE_EQ(s.min(), 0.5);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(SampleSet, CdfIsMonotonic) {
  SampleSet s;
  std::mt19937 gen(3);
  std::uniform_real_distribution<double> d(0.0, 1.0);
  for (int i = 0; i < 5000; ++i) s.add(d(gen));
  auto cdf = s.cdf(100);
  ASSERT_EQ(cdf.size(), 100u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].first, cdf[i].first);
    EXPECT_LT(cdf[i - 1].second, cdf[i].second);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(0.0, 0.0, 10), std::invalid_argument);
  EXPECT_THROW(Histogram(1.0, 0.0, 10), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Histogram, BinsAndSaturation) {
  Histogram h(0.0, 10.0, 10);
  h.add(-5.0);   // below: bin 0
  h.add(0.5);    // bin 0
  h.add(9.99);   // bin 9
  h.add(100.0);  // above: bin 9
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(9), 2u);
  EXPECT_DOUBLE_EQ(h.bin_lo(3), 3.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(3), 4.0);
}

TEST(Histogram, TotalMatchesSumOfBins) {
  Histogram h(0.0, 1.0, 7);
  std::mt19937 gen(11);
  std::uniform_real_distribution<double> d(0.0, 1.0);
  for (int i = 0; i < 999; ++i) h.add(d(gen));
  std::size_t sum = 0;
  for (std::size_t b = 0; b < h.bins(); ++b) sum += h.bin_count(b);
  EXPECT_EQ(sum, 999u);
  EXPECT_EQ(h.total(), 999u);
}

TEST(LatencySummaryTest, SummarizesPercentiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  auto sum = summarize_latency(s);
  EXPECT_EQ(sum.count, 100u);
  EXPECT_DOUBLE_EQ(sum.min_ns, 1.0);
  EXPECT_DOUBLE_EQ(sum.max_ns, 100.0);
  EXPECT_NEAR(sum.median_ns, 50.5, 0.01);
  EXPECT_NEAR(sum.p95_ns, 95.05, 0.1);
  EXPECT_NEAR(sum.mean_ns, 50.5, 1e-9);
}

TEST(LatencySummaryTest, FormatContainsFields) {
  SampleSet s({1.0, 2.0, 3.0});
  auto str = format_latency_summary(summarize_latency(s));
  EXPECT_NE(str.find("median="), std::string::npos);
  EXPECT_NE(str.find("p99="), std::string::npos);
  EXPECT_NE(str.find("n=3"), std::string::npos);
}

class PercentileSweep : public ::testing::TestWithParam<double> {};

TEST_P(PercentileSweep, PercentileIsBetweenMinAndMax) {
  SampleSet s;
  std::mt19937 gen(42);
  std::normal_distribution<double> d(500.0, 50.0);
  for (int i = 0; i < 2000; ++i) s.add(d(gen));
  const double p = GetParam();
  const double v = s.percentile(p);
  EXPECT_GE(v, s.min());
  EXPECT_LE(v, s.max());
}

TEST_P(PercentileSweep, PercentileIsMonotoneInP) {
  SampleSet s;
  std::mt19937 gen(43);
  std::exponential_distribution<double> d(0.01);
  for (int i = 0; i < 2000; ++i) s.add(d(gen));
  const double p = GetParam();
  if (p >= 1.0) {
    EXPECT_LE(s.percentile(p - 1.0), s.percentile(p));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PercentileSweep,
                         ::testing::Values(1.0, 5.0, 25.0, 50.0, 75.0, 90.0,
                                           95.0, 99.0, 99.9));

TEST(SampleSet, EmptySummaryHasNoNaN) {
  SampleSet s;
  const auto sum = summarize_latency(s);
  EXPECT_EQ(sum.count, 0u);
  for (double v : {sum.mean_ns, sum.median_ns, sum.min_ns, sum.max_ns,
                   sum.p95_ns, sum.p99_ns, sum.p999_ns}) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_EQ(v, 0.0);
  }
  // The formatted line must never leak "nan" into reports or CSV.
  EXPECT_EQ(format_latency_summary(sum).find("nan"), std::string::npos);
}

TEST(Histogram, NonFiniteInputsAreSafe) {
  Histogram h(0.0, 10.0, 4);
  h.add(std::nan(""));  // dropped: NaN orders with nothing
  EXPECT_EQ(h.total(), 0u);
  h.add(std::numeric_limits<double>::infinity());
  h.add(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.total(), 2u);
  EXPECT_EQ(h.bin_count(3), 1u);  // +inf saturates the top bin
  EXPECT_EQ(h.bin_count(0), 1u);  // -inf saturates the bottom bin
}

TEST(LogHistogram, NonFiniteInputsAreSafe) {
  LogHistogram h(1.0, 5);
  h.add(std::nan(""));
  EXPECT_EQ(h.total(), 0u);
  h.add(std::numeric_limits<double>::infinity());
  h.add(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.total(), 2u);
  EXPECT_EQ(h.bin_count(4), 1u);  // +inf saturates the top bin
  EXPECT_EQ(h.bin_count(0), 1u);  // below-range (and -inf) land in bin 0
}

TEST(LogHistogram, EmptyHistogramReportsZeroTotal) {
  LogHistogram h(1.0, 8);
  EXPECT_EQ(h.total(), 0u);
  for (std::size_t i = 0; i < h.bins(); ++i) EXPECT_EQ(h.bin_count(i), 0u);
}

}  // namespace
}  // namespace pcieb
