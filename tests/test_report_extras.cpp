// Tests for the §5.4 reporting extensions: histogram, time-series and
// raw-order access.
#include <gtest/gtest.h>

#include <sstream>

#include "common/stats.hpp"
#include "core/report.hpp"
#include "core/runner.hpp"
#include "sysconfig/profiles.hpp"

namespace pcieb {
namespace {

TEST(SampleSetRawOrder, RawPreservesInsertionOrder) {
  SampleSet s;
  s.add(3.0);
  s.add(1.0);
  s.add(2.0);
  // Query a sorted statistic first — raw order must survive.
  EXPECT_DOUBLE_EQ(s.median(), 2.0);
  const auto& raw = s.raw();
  ASSERT_EQ(raw.size(), 3u);
  EXPECT_DOUBLE_EQ(raw[0], 3.0);
  EXPECT_DOUBLE_EQ(raw[1], 1.0);
  EXPECT_DOUBLE_EQ(raw[2], 2.0);
}

TEST(SampleSetRawOrder, SortedIsAscendingCopy) {
  SampleSet s({5.0, 4.0, 6.0});
  const auto& v = s.sorted();
  EXPECT_DOUBLE_EQ(v.front(), 4.0);
  EXPECT_DOUBLE_EQ(v.back(), 6.0);
  EXPECT_DOUBLE_EQ(s.raw().front(), 5.0);
}

core::LatencyResult small_run() {
  sim::System system(sys::nfp6000_hsw().config);
  core::BenchParams p;
  p.kind = core::BenchKind::LatRd;
  p.iterations = 600;
  return core::run_latency_bench(system, p);
}

TEST(HistogramDump, CountsSumToSamples) {
  const auto r = small_run();
  std::istringstream is(core::histogram_dump(r, 20));
  double lo = 0, hi = 0;
  std::size_t count = 0, total = 0, lines = 0;
  while (is >> lo >> hi >> count) {
    total += count;
    ++lines;
    EXPECT_LT(lo, hi);
  }
  EXPECT_EQ(lines, 20u);
  EXPECT_EQ(total, 600u);
}

TEST(HistogramDump, EmptyInputsAreEmpty) {
  core::LatencyResult r;
  EXPECT_TRUE(core::histogram_dump(r).empty());
  const auto run = small_run();
  EXPECT_TRUE(core::histogram_dump(run, 0).empty());
}

TEST(TimeSeriesDump, ThinnedToRequestedPoints) {
  const auto r = small_run();
  std::istringstream is(core::time_series_dump(r, 100));
  std::size_t idx = 0;
  double value = 0;
  std::size_t lines = 0;
  std::size_t prev_idx = 0;
  bool first = true;
  while (is >> idx >> value) {
    if (!first) {
      EXPECT_GT(idx, prev_idx);
    }
    prev_idx = idx;
    first = false;
    ++lines;
    EXPECT_GT(value, 0.0);
  }
  EXPECT_GE(lines, 100u);
  EXPECT_LE(lines, 101u);
}

TEST(TimeSeriesDump, ValuesComeFromMeasurementOrder) {
  const auto r = small_run();
  std::istringstream is(core::time_series_dump(r, 600));
  std::size_t idx = 0;
  double value = 0;
  while (is >> idx >> value) {
    ASSERT_LT(idx, r.samples_ns.raw().size());
    EXPECT_DOUBLE_EQ(value, r.samples_ns.raw()[idx]);
  }
}

}  // namespace
}  // namespace pcieb
