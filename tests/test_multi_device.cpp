#include "sim/system.hpp"

#include <gtest/gtest.h>

#include "core/multi_runner.hpp"
#include "sysconfig/profiles.hpp"

namespace pcieb {
namespace {

using core::BenchKind;
using core::MultiDeviceSpec;

sim::SystemConfig host() { return sys::nfp6000_bdw().config; }

/// `base` with `n` devices, each on its own port.
sim::SystemConfig devices(sim::SystemConfig base, unsigned n) {
  base.devices = n;
  return base;
}

MultiDeviceSpec read_spec(std::uint64_t window, std::uint64_t pages = 4096) {
  MultiDeviceSpec spec;
  spec.kind = BenchKind::BwRd;
  spec.transfer_size = 64;
  spec.window_bytes = window;
  spec.page_bytes = pages;
  spec.iterations = 8000;
  spec.warmup = 2000;
  return spec;
}

TEST(MultiDeviceSystemTest, ConstructionRejectsZeroDevices) {
  EXPECT_THROW(sim::System(devices(host(), 0)), std::invalid_argument);
}

TEST(MultiDeviceSystemTest, ConstructionRejectsTooManyDevicesOrVfsOnDevices) {
  EXPECT_THROW(sim::System(devices(host(), 65)), std::invalid_argument);
  // A device's port holds one function: devices and VFs never mix.
  sim::SystemConfig mixed = devices(host(), 2);
  mixed.tenants = 2;
  EXPECT_THROW(sim::System{mixed}, std::invalid_argument);
}

TEST(MultiDeviceSystemTest, PortsAreIndependentObjects) {
  sim::System system(devices(host(), 3));
  EXPECT_EQ(system.function_count(), 3u);
  EXPECT_NE(&system.device(0), &system.device(1));
  EXPECT_NE(&system.root_complex(0), &system.root_complex(2));
  EXPECT_NE(&system.upstream(0), &system.upstream(1));
  EXPECT_NE(&system.downstream(1), &system.downstream(2));
  EXPECT_FALSE(system.shared());
  EXPECT_THROW(system.upstream(3), std::out_of_range);
  sim::System plain(host());
  EXPECT_THROW(plain.downstream(1), std::out_of_range);
}

TEST(MultiDeviceRunnerTest, RejectsLatencyKinds) {
  sim::System system(devices(host(), 1));
  MultiDeviceSpec spec = read_spec(64 << 10);
  spec.kind = BenchKind::LatRd;
  EXPECT_THROW(core::run_multi_device_bandwidth(system, spec),
               std::invalid_argument);
}

TEST(MultiDeviceRunnerTest, SingleDeviceMatchesSingleSystem) {
  sim::System system(devices(host(), 1));
  const auto r = core::run_multi_device_bandwidth(system, read_spec(64 << 10));
  ASSERT_EQ(r.per_device_gbps.size(), 1u);
  // ~27 Gb/s: the warm 64 B read rate of the single-device system.
  EXPECT_NEAR(r.per_device_gbps[0], 27.0, 2.5);
}

TEST(MultiDeviceRunnerTest, SeparateLinksScaleWithoutIommu) {
  // Each device has its own x8 link; without the IOMMU the shared memory
  // system has ample headroom, so aggregate throughput scales.
  sim::System one(devices(host(), 1));
  const auto r1 = core::run_multi_device_bandwidth(one, read_spec(128 << 10));
  sim::System four(devices(host(), 4));
  const auto r4 = core::run_multi_device_bandwidth(four, read_spec(128 << 10));
  EXPECT_GT(r4.total_gbps, 3.5 * r1.total_gbps);
}

TEST(MultiDeviceRunnerTest, SharedIoTlbThrashesWithManyDevices) {
  // The §9 question: with 4 KB pages, each 128 KB window needs 32 IO-TLB
  // entries. One device fits the 64-entry TLB; four devices thrash it.
  const auto iommu_host = sys::with_iommu(host(), true, 4096);
  sim::System one(devices(iommu_host, 1));
  const auto r1 = core::run_multi_device_bandwidth(one, read_spec(128 << 10));
  EXPECT_NEAR(r1.per_device_gbps[0], 27.0, 2.5);  // fits: no penalty
  EXPECT_EQ(r1.tlb_misses, 0u);

  sim::System four(devices(iommu_host, 4));
  const auto r4 = core::run_multi_device_bandwidth(four, read_spec(128 << 10));
  EXPECT_LT(r4.per_device_gbps[0], 0.5 * r1.per_device_gbps[0]);
  EXPECT_GT(r4.tlb_misses, 1000u);
}

TEST(MultiDeviceRunnerTest, SuperpagesRemoveTheContention) {
  const auto sp_host = sys::with_iommu(host(), true, 2ull << 20);
  sim::System four(devices(sp_host, 4));
  const auto r =
      core::run_multi_device_bandwidth(four, read_spec(128 << 10, 2ull << 20));
  for (double g : r.per_device_gbps) {
    EXPECT_NEAR(g, 27.0, 2.5);
  }
}

TEST(MultiDeviceRunnerTest, WritesRunConcurrently) {
  sim::System system(devices(host(), 2));
  MultiDeviceSpec spec = read_spec(64 << 10);
  spec.kind = BenchKind::BwWr;
  const auto r = core::run_multi_device_bandwidth(system, spec);
  ASSERT_EQ(r.per_device_gbps.size(), 2u);
  EXPECT_GT(r.per_device_gbps[0], 30.0);
  EXPECT_GT(r.per_device_gbps[1], 30.0);
}

TEST(MultiDeviceRunnerTest, DeterministicAcrossRuns) {
  sim::System a(devices(host(), 2));
  const auto ra = core::run_multi_device_bandwidth(a, read_spec(128 << 10));
  sim::System b(devices(host(), 2));
  const auto rb = core::run_multi_device_bandwidth(b, read_spec(128 << 10));
  EXPECT_EQ(ra.per_device_gbps, rb.per_device_gbps);
}

}  // namespace
}  // namespace pcieb
