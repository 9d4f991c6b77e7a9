#include "nic/commodity.hpp"

#include <gtest/gtest.h>

#include "sysconfig/profiles.hpp"

namespace pcieb::nic {
namespace {

sim::SystemConfig host() { return sys::nfp6000_snb().config; }

CommodityProbeResult probe(std::uint64_t window, bool warm,
                           CommodityProbeConfig::Mode mode =
                               CommodityProbeConfig::Mode::VaryTx) {
  sim::System system(host());
  CommodityProbeConfig cfg;
  cfg.window_bytes = window;
  cfg.warm = warm;
  cfg.mode = mode;
  cfg.iterations = 1500;
  return run_commodity_probe(system, cfg);
}

TEST(CommodityProbeTest, ProducesRequestedSamples) {
  const auto r = probe(8192, true);
  EXPECT_EQ(r.per_packet.count, 1500u);
  EXPECT_GT(r.per_packet.median_ns, 0.0);
}

TEST(CommodityProbeTest, VaryTxExposesCacheResidency) {
  // §6.3 through the commodity lens: warm windows are ~70 ns faster.
  const auto warm = probe(64 << 10, true);
  const auto cold = probe(64 << 10, false);
  EXPECT_NEAR(cold.per_packet.median_ns - warm.per_packet.median_ns, 70.0,
              30.0);
}

TEST(CommodityProbeTest, WarmBenefitVanishesPastLlc) {
  const auto small = probe(64 << 10, true);
  const auto huge = probe(64ull << 20, true);
  EXPECT_GT(huge.per_packet.median_ns, small.per_packet.median_ns + 40.0);
}

TEST(CommodityProbeTest, VaryRxIsCacheInsensitive) {
  // Writes land in DDIO regardless of residency, so the RX-varied mode
  // shows no warm/cold contrast in small windows.
  const auto warm = probe(64 << 10, true, CommodityProbeConfig::Mode::VaryRx);
  const auto cold = probe(64 << 10, false, CommodityProbeConfig::Mode::VaryRx);
  EXPECT_NEAR(warm.per_packet.median_ns, cold.per_packet.median_ns, 25.0);
}

TEST(CommodityProbeTest, BaselineFarAboveProgrammableBench) {
  // The descriptor transfers and the wire loop put the commodity baseline
  // far above a programmable device's LAT_RD — the §5.5 accuracy caveat.
  const auto r = probe(8192, true);
  EXPECT_GT(r.per_packet.median_ns, 1500.0);
  EXPECT_GT(r.descriptor_overhead_ns, 0.0);
}

TEST(CommodityProbeTest, DeterministicPerSeed) {
  const auto a = probe(8192, true);
  const auto b = probe(8192, true);
  EXPECT_EQ(a.per_packet.median_ns, b.per_packet.median_ns);
  EXPECT_EQ(a.per_packet.max_ns, b.per_packet.max_ns);
}

}  // namespace
}  // namespace pcieb::nic
