#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>

#include "model/interaction.hpp"
#include "model/nic_models.hpp"
#include "nic/commodity.hpp"
#include "nic/frame.hpp"
#include "nic/loopback.hpp"
#include "nic/nic_sim.hpp"
#include "nic/ring.hpp"
#include "pcie/bandwidth.hpp"
#include "sysconfig/profiles.hpp"

namespace pcieb::nic {
namespace {

TEST(FrameTest, WireOverheadIs24Bytes) {
  EXPECT_EQ(wire_bytes(60), 84u);
  EXPECT_EQ(wire_bytes(1514), 1538u);
}

TEST(FrameTest, WireTimeAnchor) {
  // 128 B frame at 40G: (128+24)*8/40 = 30.4 ns.
  EXPECT_EQ(wire_time(128, 40.0), from_nanos(30.4));
}

TEST(DescriptorRingTest, PostConsumeCycle) {
  DescriptorRing ring(8);
  EXPECT_EQ(ring.free_slots(), 8u);
  EXPECT_EQ(ring.post(5), 5u);
  EXPECT_EQ(ring.pending(), 5u);
  EXPECT_EQ(ring.consume(3), 3u);
  EXPECT_EQ(ring.pending(), 2u);
  EXPECT_EQ(ring.free_slots(), 6u);
}

TEST(DescriptorRingTest, PostSaturatesAtCapacity) {
  DescriptorRing ring(4);
  EXPECT_EQ(ring.post(10), 4u);
  EXPECT_EQ(ring.post(1), 0u);
}

TEST(DescriptorRingTest, ConsumeLimitedToPending) {
  DescriptorRing ring(4);
  ring.post(2);
  EXPECT_EQ(ring.consume(10), 2u);
  EXPECT_EQ(ring.consume(1), 0u);
}

TEST(DescriptorRingTest, MonotonicTotals) {
  DescriptorRing ring(4);
  ring.post(4);
  ring.consume(4);
  ring.post(4);
  EXPECT_EQ(ring.total_posted(), 8u);
  EXPECT_EQ(ring.total_consumed(), 4u);
}

TEST(DescriptorRingTest, ZeroSlotsThrows) {
  EXPECT_THROW(DescriptorRing(0), std::invalid_argument);
}

TEST(DescriptorRingTest, MaxPendingTracksHighWatermark) {
  DescriptorRing ring(8);
  ring.post(3);
  ring.consume(3);
  ring.post(6);
  EXPECT_EQ(ring.max_pending(), 6u);
  ring.consume(6);
  EXPECT_EQ(ring.max_pending(), 6u);  // watermark never decays
}

// Property: under any randomized post/consume sequence the occupancy
// protocol holds — pending never exceeds slots, pending + free == slots,
// post/consume return values match the index deltas, and the watermark
// dominates every observed occupancy.
TEST(DescriptorRingTest, RandomizedSequencePreservesInvariants) {
  std::mt19937_64 rng(0xdecafbad);
  for (int round = 0; round < 8; ++round) {
    const std::uint32_t slots = 1u + static_cast<std::uint32_t>(rng() % 512);
    DescriptorRing ring(slots);
    std::uint64_t posted = 0, consumed = 0;
    std::uint32_t peak = 0;
    for (int step = 0; step < 4000; ++step) {
      const std::uint32_t n = static_cast<std::uint32_t>(rng() % 64);
      if (rng() & 1) {
        const std::uint32_t fit = ring.post(n);
        ASSERT_LE(fit, n);
        posted += fit;
      } else {
        const std::uint32_t took = ring.consume(n);
        ASSERT_LE(took, n);
        consumed += took;
      }
      ASSERT_LE(ring.pending(), slots);
      ASSERT_EQ(ring.pending() + ring.free_slots(), slots);
      ASSERT_EQ(ring.total_posted(), posted);
      ASSERT_EQ(ring.total_consumed(), consumed);
      ASSERT_EQ(ring.pending(), posted - consumed);
      peak = std::max(peak, ring.pending());
      ASSERT_EQ(ring.max_pending(), peak);
    }
  }
}

// Property: the monotonic u64 producer/consumer indices survive past
// 2^32 descriptors — the u32 occupancy arithmetic must keep working
// when the 32-bit truncation of either index has wrapped.
TEST(DescriptorRingTest, IndicesSurvivePastFourBillionDescriptors) {
  const std::uint32_t slots = 1u << 20;
  DescriptorRing ring(slots);
  const std::uint64_t rounds = (1ull << 32) / slots + 2;  // > 2^32 total
  for (std::uint64_t i = 0; i < rounds; ++i) {
    ASSERT_EQ(ring.post(slots), slots);
    ASSERT_EQ(ring.pending(), slots);
    ASSERT_EQ(ring.consume(slots), slots);
    ASSERT_EQ(ring.pending(), 0u);
  }
  EXPECT_GT(ring.total_posted(), 1ull << 32);
  EXPECT_EQ(ring.total_posted(), ring.total_consumed());
  EXPECT_EQ(ring.free_slots(), slots);
  EXPECT_EQ(ring.max_pending(), slots);
}

// ---- loopback (Fig 2) -------------------------------------------------------

TEST(LoopbackTest, PcieDominatesSmallPackets) {
  // Fig 2: PCIe contributes ~90 % of NIC latency for small packets.
  sim::System system(sys::netfpga_hsw().config);
  LoopbackConfig cfg;
  cfg.frame_bytes = 64;
  cfg.iterations = 400;
  auto r = run_loopback(system, cfg);
  EXPECT_GT(r.pcie_fraction, 0.80);
  EXPECT_LT(r.pcie_fraction, 0.97);
}

TEST(LoopbackTest, PcieShareFallsWithPacketSize) {
  double prev = 1.0;
  for (std::uint32_t f : {64u, 512u, 1514u}) {
    sim::System system(sys::netfpga_hsw().config);
    LoopbackConfig cfg;
    cfg.frame_bytes = f;
    cfg.iterations = 300;
    auto r = run_loopback(system, cfg);
    EXPECT_LT(r.pcie_fraction, prev) << f;
    prev = r.pcie_fraction;
  }
  EXPECT_GT(prev, 0.5);  // still the majority at 1514 B (paper: 77 %)
}

TEST(LoopbackTest, TotalLatencyAroundAMicrosecondAt128B) {
  // Fig 2: round trip for a 128 B payload is ~1000 ns.
  sim::System system(sys::netfpga_hsw().config);
  LoopbackConfig cfg;
  cfg.frame_bytes = 128;
  cfg.iterations = 400;
  auto r = run_loopback(system, cfg);
  EXPECT_GT(r.total.median_ns, 600.0);
  EXPECT_LT(r.total.median_ns, 1300.0);
}

TEST(LoopbackTest, NicRunnersDetachTheirBuffers) {
  // Each runner's buffer lives on its stack: it must be detached before
  // the runner returns, or the function's locality resolver dangles.
  sim::System loop(sys::netfpga_hsw().config);
  LoopbackConfig lc;
  lc.iterations = 20;
  run_loopback(loop, lc);
  EXPECT_EQ(loop.function().buffer(), nullptr);

  sim::System probe(sys::nfp6000_snb().config);
  CommodityProbeConfig cc;
  cc.iterations = 20;
  run_commodity_probe(probe, cc);
  EXPECT_EQ(probe.function().buffer(), nullptr);
}

TEST(LoopbackTest, LatencyGrowsWithPacketSize) {
  sim::System a(sys::netfpga_hsw().config);
  LoopbackConfig small;
  small.frame_bytes = 64;
  small.iterations = 200;
  sim::System b(sys::netfpga_hsw().config);
  LoopbackConfig big;
  big.frame_bytes = 1514;
  big.iterations = 200;
  EXPECT_GT(run_loopback(b, big).total.median_ns,
            run_loopback(a, small).total.median_ns + 500.0);
}

// ---- full NIC datapath simulation vs the Fig 1 analytic models -------------

NicSimResult simulate(NicSimConfig cfg, std::uint32_t frame,
                      std::uint64_t packets = 6000) {
  sim::System system(sys::netfpga_hsw().config);
  cfg.frame_bytes = frame;
  cfg.packets = packets;
  return run_nic_sim(system, cfg);
}

TEST(NicSimTest, PresetsReflectDriverDesign) {
  const auto simple = NicSimConfig::simple();
  EXPECT_EQ(simple.desc_batch, 1u);
  EXPECT_EQ(simple.irq_moderation, 1u);
  const auto dpdk = NicSimConfig::modern_dpdk();
  EXPECT_EQ(dpdk.irq_moderation, 0u);
  EXPECT_FALSE(dpdk.mmio_status_reads);
}

TEST(NicSimTest, OrderingMatchesFigureOne) {
  for (std::uint32_t frame : {64u, 256u}) {
    const auto s = simulate(NicSimConfig::simple(), frame);
    const auto k = simulate(NicSimConfig::modern_kernel(), frame);
    const auto d = simulate(NicSimConfig::modern_dpdk(), frame);
    EXPECT_LT(s.tx_goodput_gbps, k.tx_goodput_gbps) << frame;
    EXPECT_LT(k.tx_goodput_gbps, d.tx_goodput_gbps) << frame;
  }
}

TEST(NicSimTest, TxTracksAnalyticModelForModernNics) {
  const auto link = proto::gen3_x8();
  // At 64 B the executable datapath is additionally bounded by the DMA
  // engine's read tags — an effect the byte-accounting model ignores — so
  // the tolerance is wider than at 256 B.
  const double model64 =
      model::bidirectional_goodput_gbps(link, model::modern_nic_dpdk(), 64);
  const auto sim64 = simulate(NicSimConfig::modern_dpdk(), 64);
  EXPECT_NEAR(sim64.tx_goodput_gbps, model64, model64 * 0.30);

  const double model256 =
      model::bidirectional_goodput_gbps(link, model::modern_nic_kernel(), 256);
  const auto sim256 = simulate(NicSimConfig::modern_kernel(), 256);
  EXPECT_NEAR(sim256.tx_goodput_gbps, model256, model256 * 0.15);
}

TEST(NicSimTest, RxCappedByWireLineRate) {
  // Offered load is 40G line rate; delivery can match but never beat it.
  const auto r = simulate(NicSimConfig::modern_dpdk(), 1024);
  const double offered = proto::ethernet_pcie_demand_gbps(40.0, 1024);
  EXPECT_LE(r.rx_goodput_gbps, offered * 1.02);
  EXPECT_GT(r.rx_goodput_gbps, offered * 0.95);
}

TEST(NicSimTest, SimpleNicDropsSmallPacketsHeavily) {
  // The §2 story: a simple NIC cannot sustain line rate below 512 B, so
  // the freelist starves and arrivals drop far more than on a modern NIC
  // (both are PCIe-bound at 64 B, but the simple NIC much more so).
  const auto simple = simulate(NicSimConfig::simple(), 64);
  const auto dpdk = simulate(NicSimConfig::modern_dpdk(), 64);
  EXPECT_GT(simple.rx_dropped,
            3 * std::max<std::uint64_t>(dpdk.rx_dropped, 1) / 2);
  EXPECT_LT(simple.rx_goodput_gbps, dpdk.rx_goodput_gbps);
}

TEST(NicSimTest, LargeFramesDontDropOnModernNic) {
  const auto r = simulate(NicSimConfig::modern_dpdk(), 1024);
  EXPECT_LT(r.rx_dropped, 60u);  // transient fill only
}

TEST(NicSimTest, PerDirectionIsMinOfTxRx) {
  const auto r = simulate(NicSimConfig::modern_kernel(), 256);
  EXPECT_DOUBLE_EQ(r.per_direction_goodput_gbps,
                   std::min(r.tx_goodput_gbps, r.rx_goodput_gbps));
}

TEST(NicSimTest, RingWatermarksAreBoundedAndExercised) {
  const auto r = simulate(NicSimConfig::modern_dpdk(), 256);
  EXPECT_GT(r.tx_ring_max_pending, 0u);
  EXPECT_LE(r.tx_ring_max_pending, NicSimConfig::kRingSlots);
  EXPECT_GT(r.rx_ring_max_pending, 0u);
  EXPECT_LE(r.rx_ring_max_pending, NicSimConfig::kRingSlots);
  // The saturating TX driver keeps its ring essentially full.
  EXPECT_GE(r.tx_ring_max_pending, NicSimConfig::kRingSlots / 2);
}

// ---- NicSimConfig::validate: every rejected knob, none starts a run ---------

TEST(NicSimConfigTest, PresetsValidate) {
  EXPECT_NO_THROW(NicSimConfig{}.validate());
  EXPECT_NO_THROW(NicSimConfig::simple().validate());
  EXPECT_NO_THROW(NicSimConfig::modern_kernel().validate());
  EXPECT_NO_THROW(NicSimConfig::modern_dpdk().validate());
}

TEST(NicSimConfigTest, RejectsZeroDescBatch) {
  NicSimConfig cfg;
  cfg.desc_batch = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(NicSimConfigTest, RejectsZeroTxWriteBackBatch) {
  NicSimConfig cfg;
  cfg.tx_wb_batch = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(NicSimConfigTest, RejectsZeroRxWriteBackBatch) {
  NicSimConfig cfg;
  cfg.rx_wb_batch = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(NicSimConfigTest, RejectsZeroDoorbellBatch) {
  // Regression: the TX driver posted zero descriptors and rang a
  // doorbell on every pass of its refill loop, which never returned.
  NicSimConfig cfg;
  cfg.doorbell_batch = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(NicSimConfigTest, RejectsFrameOutsideEthernetRange) {
  NicSimConfig cfg;
  cfg.frame_bytes = kMinFrame - 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.frame_bytes = kMaxFrame + 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.frame_bytes = kMinFrame;
  EXPECT_NO_THROW(cfg.validate());
  cfg.frame_bytes = kMaxFrame;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(NicSimConfigTest, RejectsDoorbellBatchAboveRing) {
  NicSimConfig cfg;
  cfg.doorbell_batch = NicSimConfig::kRingSlots + 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.doorbell_batch = NicSimConfig::kRingSlots;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(NicSimConfigTest, RunValidatesBeforeTouchingTheSystem) {
  sim::System system(sys::netfpga_hsw().config);
  NicSimConfig cfg;
  cfg.frame_bytes = 32;
  EXPECT_THROW(run_nic_sim(system, cfg), std::invalid_argument);
  EXPECT_EQ(system.sim().executed(), 0u);
  EXPECT_EQ(system.upstream().tlps_sent(), 0u);
}

}  // namespace
}  // namespace pcieb::nic
