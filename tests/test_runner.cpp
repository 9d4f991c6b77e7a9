#include "core/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/report.hpp"
#include "sysconfig/profiles.hpp"

namespace pcieb::core {
namespace {

sim::SystemConfig hsw() { return sys::nfp6000_hsw().config; }

TEST(BenchRunnerTest, LatencyRunProducesRequestedSamples) {
  sim::System system(hsw());
  BenchParams p;
  p.kind = BenchKind::LatRd;
  p.iterations = 500;
  auto r = run_latency_bench(system, p);
  EXPECT_EQ(r.samples_ns.count(), 500u);
  EXPECT_GT(r.summary.min_ns, 0.0);
  EXPECT_GE(r.summary.max_ns, r.summary.median_ns);
  EXPECT_GE(r.summary.median_ns, r.summary.min_ns);
}

TEST(BenchRunnerTest, RunnersDetachTheirBuffersWhenDestroyed) {
  // A runner owns the buffer it attaches: once the runner is gone, no
  // function's locality resolver may still point at it.
  BenchParams p;
  p.kind = BenchKind::BwRd;
  p.iterations = 200;
  sim::System system(hsw());
  {
    BenchRunner runner(system, p);
    EXPECT_EQ(system.function().buffer(), &runner.buffer());
    runner.run_bandwidth();
  }
  EXPECT_EQ(system.function().buffer(), nullptr);

  sim::SystemConfig cfg = hsw();
  cfg.tenants = 3;
  sim::System tenants(cfg);
  {
    BenchRunner runner = BenchRunner::per_function(tenants, p);
    for (unsigned vf = 0; vf < 3; ++vf) {
      EXPECT_EQ(tenants.function(vf).buffer(), &runner.buffer(vf));
    }
    runner.run_tenants();
  }
  for (unsigned vf = 0; vf < 3; ++vf) {
    EXPECT_EQ(tenants.function(vf).buffer(), nullptr) << "vf" << vf;
  }
}

TEST(BenchRunnerTest, WarmupSamplesAreDiscarded) {
  sim::System system(hsw());
  BenchParams p;
  p.kind = BenchKind::LatRd;
  p.iterations = 300;
  p.warmup = 200;
  auto r = run_latency_bench(system, p);
  EXPECT_EQ(r.samples_ns.count(), 300u);
}

TEST(BenchRunnerTest, LatencyQuantizedToDeviceResolution) {
  sim::System system(hsw());  // NFP: 19.2 ns counter
  BenchParams p;
  p.kind = BenchKind::LatRd;
  p.iterations = 200;
  auto r = run_latency_bench(system, p);
  const double res = 19.2;
  for (double v : r.samples_ns.sorted()) {
    const double ticks = v / res;
    EXPECT_NEAR(ticks, std::round(ticks), 1e-6) << v;
  }
}

TEST(BenchRunnerTest, KindMismatchThrows) {
  sim::System system(hsw());
  BenchParams p;
  p.kind = BenchKind::BwRd;
  BenchRunner runner(system, p);
  EXPECT_THROW(runner.run_latency(), std::logic_error);

  sim::System system2(hsw());
  p.kind = BenchKind::LatRd;
  BenchRunner runner2(system2, p);
  EXPECT_THROW(runner2.run_bandwidth(), std::logic_error);
}

TEST(BenchRunnerTest, InvalidParamsThrowAtConstruction) {
  sim::System system(hsw());
  BenchParams p;
  p.transfer_size = 0;
  EXPECT_THROW(BenchRunner(system, p), std::invalid_argument);
}

TEST(BenchRunnerTest, IommuPageMismatchThrows) {
  auto cfg = sys::with_iommu(hsw(), true, 4096);
  sim::System system(cfg);
  BenchParams p;
  p.page_bytes = 2ull << 20;  // buffer pages disagree with IOMMU granule
  EXPECT_THROW(BenchRunner(system, p), std::logic_error);
}

TEST(BenchRunnerTest, BandwidthAccountsAllBytes) {
  sim::System system(hsw());
  BenchParams p;
  p.kind = BenchKind::BwWr;
  p.transfer_size = 128;
  p.iterations = 2000;
  auto r = run_bandwidth_bench(system, p);
  EXPECT_EQ(r.payload_bytes, 2000ull * 128);
  EXPECT_GT(r.elapsed, 0);
  EXPECT_GT(r.gbps, 0.0);
  EXPECT_GT(r.mtps, 0.0);
}

TEST(BenchRunnerTest, RdwrReportsPerDirectionBytes) {
  sim::System system(hsw());
  BenchParams p;
  p.kind = BenchKind::BwRdWr;
  p.transfer_size = 128;
  p.iterations = 2000;
  auto r = run_bandwidth_bench(system, p);
  EXPECT_EQ(r.payload_bytes, 1000ull * 128);
}

TEST(BenchRunnerTest, BandwidthWarmupExcludedFromTiming) {
  sim::System a(hsw());
  BenchParams p;
  p.kind = BenchKind::BwRd;
  p.transfer_size = 64;
  p.iterations = 5000;
  auto base = run_bandwidth_bench(a, p);

  sim::System b(hsw());
  p.warmup = 5000;
  auto warmed = run_bandwidth_bench(b, p);
  // Same measured iterations; throughput similar despite the extra phase.
  EXPECT_EQ(warmed.payload_bytes, base.payload_bytes);
  EXPECT_NEAR(warmed.gbps, base.gbps, base.gbps * 0.1);
}

TEST(BenchRunnerTest, ColdSlowerThanWarmForSmallReads) {
  BenchParams p;
  p.kind = BenchKind::LatRd;
  p.transfer_size = 64;
  p.iterations = 1000;
  p.cache_state = CacheState::HostWarm;
  sim::System warm_sys(hsw());
  auto warm = run_latency_bench(warm_sys, p);

  p.cache_state = CacheState::Thrash;
  sim::System cold_sys(hsw());
  auto cold = run_latency_bench(cold_sys, p);
  EXPECT_GT(cold.summary.median_ns, warm.summary.median_ns + 50.0);
}

TEST(BenchRunnerTest, DeviceWarmServesReadsFromCache) {
  BenchParams p;
  p.kind = BenchKind::LatRd;
  p.transfer_size = 64;
  p.iterations = 1000;
  p.cache_state = CacheState::DeviceWarm;
  sim::System sys1(hsw());
  auto dev_warm = run_latency_bench(sys1, p);

  p.cache_state = CacheState::HostWarm;
  sim::System sys2(hsw());
  auto host_warm = run_latency_bench(sys2, p);
  EXPECT_NEAR(dev_warm.summary.median_ns, host_warm.summary.median_ns, 25.0);
}

TEST(BenchRunnerTest, PendingEventsRejected) {
  sim::System system(hsw());
  system.sim().after(100, [] {});
  BenchParams p;
  EXPECT_THROW(BenchRunner(system, p), std::logic_error);
}

TEST(ReportTest, PctChange) {
  EXPECT_DOUBLE_EQ(pct_change(100.0, 80.0), -20.0);
  EXPECT_DOUBLE_EQ(pct_change(50.0, 75.0), 50.0);
  EXPECT_DOUBLE_EQ(pct_change(0.0, 10.0), 0.0);
}

TEST(ReportTest, FormatsIncludeNumbers) {
  sim::System system(hsw());
  BenchParams p;
  p.kind = BenchKind::LatRd;
  p.iterations = 100;
  auto r = run_latency_bench(system, p);
  EXPECT_NE(format(r).find("LAT_RD"), std::string::npos);

  sim::System system2(hsw());
  p.kind = BenchKind::BwRd;
  auto b = run_bandwidth_bench(system2, p);
  EXPECT_NE(format(b).find("Gb/s"), std::string::npos);
}

TEST(ReportTest, CdfDumpHasRequestedPoints) {
  sim::System system(hsw());
  BenchParams p;
  p.kind = BenchKind::LatRd;
  p.iterations = 100;
  auto r = run_latency_bench(system, p);
  const std::string dump = cdf_dump(r, 10);
  EXPECT_EQ(std::count(dump.begin(), dump.end(), '\n'), 10);
}

}  // namespace
}  // namespace pcieb::core
