// core::LoadGen's flow picks and core::FlowTable's tallies. next_flow
// scans forward from a guide table over the Zipf CDF; these cases pin it
// to a plain std::upper_bound over the same CDF, draw for draw, which is
// what keeps overload arrival schedules (and their pinned outputs)
// independent of the table.
#include "core/loadgen.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"

namespace pcieb::core {
namespace {

/// The normalized Zipf CDF, built exactly as LoadGen builds it.
std::vector<double> zipf_cdf(std::uint32_t flows, double s) {
  std::vector<double> cdf;
  double total = 0.0;
  for (std::uint32_t i = 0; i < flows; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf.push_back(total);
  }
  for (double& c : cdf) c /= total;
  cdf.back() = 1.0;
  return cdf;
}

/// The reference pick: binary search, clamped to the last flow.
std::uint32_t upper_bound_flow(const std::vector<double>& cdf, double u) {
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
  const auto idx = static_cast<std::size_t>(it - cdf.begin());
  return static_cast<std::uint32_t>(std::min(idx, cdf.size() - 1));
}

LoadGenConfig config(std::uint32_t flows, double zipf_s, std::uint64_t seed) {
  LoadGenConfig cfg;
  cfg.flows = flows;
  cfg.zipf_s = zipf_s;
  cfg.seed = seed;
  return cfg;
}

struct Shape {
  std::uint32_t flows;
  double zipf_s;
};

const Shape kShapes[] = {{1, 0.0},    {1, 1.1},   {1, 2.0},
                         {64, 0.0},   {64, 1.1},  {64, 2.0},
                         {1000, 0.0}, {1000, 1.1}, {1000, 2.0}};

TEST(LoadGen, NextFlowMatchesUpperBoundDrawForDraw) {
  for (const Shape& sh : kShapes) {
    const std::uint64_t seed = 0x5eed + sh.flows;
    LoadGen gen(config(sh.flows, sh.zipf_s, seed));
    const std::vector<double> cdf = zipf_cdf(sh.flows, sh.zipf_s);
    Xoshiro256 rng(seed);  // the stream LoadGen draws its u from
    for (int i = 0; i < 100000; ++i) {
      const double u = rng.uniform();
      ASSERT_EQ(gen.next_flow(), upper_bound_flow(cdf, u))
          << "flows=" << sh.flows << " s=" << sh.zipf_s << " draw " << i
          << " u=" << u;
    }
  }
}

TEST(LoadGen, FlowForMatchesUpperBoundOnEveryGuideBoundary) {
  // Every guide table holds a power of two slots, at most 2^16, so the
  // multiples of 2^-16 include every slot boundary; probe each one, the
  // double just below it, and each CDF value itself (upper_bound must
  // step past an exactly equal entry).
  for (const Shape& sh : kShapes) {
    const LoadGen gen(config(sh.flows, sh.zipf_s, 1));
    const std::vector<double> cdf = zipf_cdf(sh.flows, sh.zipf_s);
    std::vector<double> probes = {0.0, std::nextafter(1.0, 0.0)};
    for (std::uint32_t j = 1; j < (1u << 16); ++j) {
      const double b = static_cast<double>(j) / 65536.0;
      probes.push_back(b);
      probes.push_back(std::nextafter(b, 0.0));
    }
    for (const double c : cdf) {
      if (c < 1.0) probes.push_back(c);
    }
    for (const double u : probes) {
      ASSERT_EQ(gen.flow_for(u), upper_bound_flow(cdf, u))
          << "flows=" << sh.flows << " s=" << sh.zipf_s << " u=" << u;
    }
  }
}

TEST(LoadGen, SameSeedReplaysTheSameSchedule) {
  LoadGenConfig cfg = config(64, 1.1, 9);
  cfg.mean_gap_ps = 5000.0;
  LoadGen a(cfg), b(cfg);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_gap(), b.next_gap());
    ASSERT_EQ(a.next_flow(), b.next_flow());
  }
}

TEST(LoadGen, RejectsDegenerateConfigs) {
  LoadGenConfig cfg;
  cfg.flows = 0;
  EXPECT_THROW(LoadGen{cfg}, std::invalid_argument);
  cfg = {};
  cfg.burst_frames = 0;
  EXPECT_THROW(LoadGen{cfg}, std::invalid_argument);
  cfg = {};
  cfg.mean_gap_ps = 0.5;
  EXPECT_THROW(LoadGen{cfg}, std::invalid_argument);
}

TEST(FlowTable, TalliesPerFlowAndInTotal) {
  FlowTable t(3);
  t.offered(0);
  t.offered(0);
  t.offered(2);
  t.delivered(0);
  t.dropped(0);
  t.dropped(2);
  EXPECT_EQ(t.stats()[0].offered, 2u);
  EXPECT_EQ(t.stats()[0].delivered, 1u);
  EXPECT_EQ(t.stats()[0].dropped, 1u);
  EXPECT_EQ(t.stats()[1].offered, 0u);
  EXPECT_EQ(t.total_offered(), 3u);
  EXPECT_EQ(t.total_delivered(), 1u);
  EXPECT_EQ(t.total_dropped(), 2u);
  EXPECT_THROW(t.offered(3), std::out_of_range);
}

}  // namespace
}  // namespace pcieb::core
