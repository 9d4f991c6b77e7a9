#include "sim/switch.hpp"

#include <gtest/gtest.h>

#include "core/multi_runner.hpp"
#include "sim/switched_system.hpp"
#include "sysconfig/profiles.hpp"

namespace pcieb {
namespace {

using core::BenchKind;
using core::MultiDeviceSpec;

sim::SystemConfig host() { return sys::nfp6000_bdw().config; }

MultiDeviceSpec read_spec(std::uint32_t size) {
  MultiDeviceSpec spec;
  spec.kind = BenchKind::BwRd;
  spec.transfer_size = size;
  spec.window_bytes = 128 << 10;
  spec.iterations = 6000;
  spec.warmup = 1500;
  return spec;
}

// ---- raw switch unit tests --------------------------------------------------

struct SwitchFixture {
  sim::Simulator sim;
  proto::LinkConfig link_cfg = proto::gen3_x8();
  sim::Link uplink{sim, link_cfg, from_nanos(10)};
  sim::SwitchConfig cfg;
  sim::PcieSwitch sw;
  std::vector<proto::Tlp> at_rc;
  std::vector<std::vector<proto::Tlp>> at_ports;

  SwitchFixture() : cfg{from_nanos(20), proto::gen3_x8()}, sw(sim, cfg, uplink) {
    uplink.set_deliver([this](const proto::Tlp& t) { at_rc.push_back(t); });
  }

  unsigned make_port() {
    const auto index = at_ports.size();
    at_ports.emplace_back();
    return sw.add_port([this, index](const proto::Tlp& t) {
      at_ports[index].push_back(t);
    });
  }
};

TEST(PcieSwitchTest, ForwardsUpstreamTraffic) {
  SwitchFixture f;
  const unsigned p = f.make_port();
  proto::Tlp wr{proto::TlpType::MemWr, 0x1000, 64, 0, 0};
  f.sw.port_ingress(p).send(wr);
  f.sim.run();
  ASSERT_EQ(f.at_rc.size(), 1u);
  EXPECT_EQ(f.at_rc[0].payload, 64u);
  EXPECT_EQ(f.sw.forwarded_upstream(), 1u);
}

TEST(PcieSwitchTest, TranslatesReadTags) {
  SwitchFixture f;
  const unsigned p0 = f.make_port();
  const unsigned p1 = f.make_port();
  // Both devices use the SAME device tag — the switch must disambiguate.
  proto::Tlp rd{proto::TlpType::MemRd, 0x1000, 0, 64, 7};
  f.sw.port_ingress(p0).send(rd);
  f.sw.port_ingress(p1).send(rd);
  f.sim.run();
  ASSERT_EQ(f.at_rc.size(), 2u);
  EXPECT_NE(f.at_rc[0].tag, f.at_rc[1].tag);

  // Completions route back to the right ports with the original tag.
  proto::Tlp cpl0{proto::TlpType::CplD, 0x1000, 64, 0, f.at_rc[0].tag};
  proto::Tlp cpl1{proto::TlpType::CplD, 0x1000, 64, 0, f.at_rc[1].tag};
  f.sw.on_downstream(cpl1);
  f.sw.on_downstream(cpl0);
  f.sim.run();
  ASSERT_EQ(f.at_ports[0].size(), 1u);
  ASSERT_EQ(f.at_ports[1].size(), 1u);
  EXPECT_EQ(f.at_ports[0][0].tag, 7u);
  EXPECT_EQ(f.at_ports[1][0].tag, 7u);
}

TEST(PcieSwitchTest, ReadRouteRetiresWithItsLastCompletion) {
  SwitchFixture f;
  const unsigned p = f.make_port();
  f.sw.port_ingress(p).send({proto::TlpType::MemRd, 0x1000, 0, 128, 3});
  f.sw.port_ingress(p).send({proto::TlpType::MemRd, 0x2000, 0, 64, 4});
  f.sim.run();
  ASSERT_EQ(f.at_rc.size(), 2u);
  EXPECT_EQ(f.sw.reads_in_flight(), 2u);

  // The 128 B read completes in two RCB-sized pieces.
  const std::uint32_t split = f.at_rc[0].tag;
  f.sw.on_downstream({proto::TlpType::CplD, 0x1000, 64, 0, split});
  EXPECT_EQ(f.sw.reads_in_flight(), 2u);
  f.sw.on_downstream({proto::TlpType::CplD, 0x1040, 64, 0, split});
  EXPECT_EQ(f.sw.reads_in_flight(), 1u);
  EXPECT_THROW(f.sw.on_downstream({proto::TlpType::CplD, 0x1040, 64, 0, split}),
               std::logic_error);

  // A data-less error completion ends its request too.
  proto::Tlp ur{proto::TlpType::Cpl, 0x2000, 0, 0, f.at_rc[1].tag};
  ur.cpl_status = proto::CplStatus::UR;
  f.sw.on_downstream(ur);
  EXPECT_EQ(f.sw.reads_in_flight(), 0u);
  f.sim.run();
  ASSERT_EQ(f.at_ports[0].size(), 3u);
  EXPECT_EQ(f.at_ports[0][0].tag, 3u);
  EXPECT_EQ(f.at_ports[0][1].tag, 3u);
  EXPECT_EQ(f.at_ports[0][2].tag, 4u);
}

TEST(PcieSwitchTest, UnknownCompletionTagThrows) {
  SwitchFixture f;
  f.make_port();
  proto::Tlp cpl{proto::TlpType::CplD, 0, 64, 0, 999};
  EXPECT_THROW(f.sw.on_downstream(cpl), std::logic_error);
}

// ---- switched system integration --------------------------------------------

TEST(SwitchedSystemTest, ConstructionRejectsZeroDevices) {
  EXPECT_THROW(sim::SwitchedSystem(host(), 0), std::invalid_argument);
}

TEST(SwitchedSystemTest, SingleDeviceWorksEndToEnd) {
  sim::SwitchedSystem system(host(), 1);
  const auto r = core::run_multi_device_bandwidth(system, read_spec(512));
  ASSERT_EQ(r.per_device_gbps.size(), 1u);
  // One device behind the switch still saturates the shared x8 link for
  // 512 B reads (the extra forward latency is hidden by pipelining).
  EXPECT_GT(r.per_device_gbps[0], 48.0);
}

TEST(SwitchedSystemTest, SharedUplinkDividesBandwidth) {
  sim::SwitchedSystem one(host(), 1);
  const auto r1 = core::run_multi_device_bandwidth(one, read_spec(512));
  sim::SwitchedSystem four(host(), 4);
  const auto r4 = core::run_multi_device_bandwidth(four, read_spec(512));
  // Total stays at the uplink's effective rate...
  EXPECT_NEAR(r4.total_gbps, r1.total_gbps, r1.total_gbps * 0.08);
  // ...so each device gets roughly a quarter.
  for (double g : r4.per_device_gbps) {
    EXPECT_NEAR(g, r1.per_device_gbps[0] / 4.0, r1.per_device_gbps[0] * 0.06);
  }
}

TEST(SwitchedSystemTest, IndependentLinksScaleWhereSharedDoNot) {
  sim::SwitchedSystem shared(host(), 4);
  const auto rs = core::run_multi_device_bandwidth(shared, read_spec(512));
  sim::SystemConfig indep_cfg = host();
  indep_cfg.devices = 4;
  sim::System indep(indep_cfg);
  const auto ri = core::run_multi_device_bandwidth(indep, read_spec(512));
  EXPECT_GT(ri.total_gbps, 3.0 * rs.total_gbps);
}

TEST(SwitchedSystemTest, BandwidthRunLeavesNoReadRoutes) {
  // Default spec: 24,000 reads per device, every one forwarded by the
  // switch, every one completed by the end of the run.
  sim::SwitchedSystem system(sys::nfp6000_hsw().config, 3);
  const auto r = core::run_multi_device_bandwidth(system, MultiDeviceSpec{});
  ASSERT_EQ(r.per_device_gbps.size(), 3u);
  EXPECT_GE(system.fabric().forwarded_upstream(), 3u * 24000u);
  EXPECT_EQ(system.fabric().reads_in_flight(), 0u);
}

TEST(SwitchedSystemTest, FairSharingAcrossPorts) {
  sim::SwitchedSystem four(host(), 4);
  const auto r = core::run_multi_device_bandwidth(four, read_spec(256));
  const double first = r.per_device_gbps[0];
  for (double g : r.per_device_gbps) {
    EXPECT_NEAR(g, first, first * 0.05);
  }
}

}  // namespace
}  // namespace pcieb
