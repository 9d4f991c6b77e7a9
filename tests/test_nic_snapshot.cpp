// Tier-2 snapshot of the closed-loop NIC runners: nic::run_nic_sim for the
// three Fig 1 driver presets at six frame sizes on NetFPGA-HSW (6,000
// packets each) plus one NFP6000-HSW point, one nic::run_loopback point
// and one nic::run_commodity_probe point. bench/expected/nic_sim.txt pins
// one line per run: every measured result field at %.17g, the upstream
// and downstream link TLP counts and the simulated end time.
//
// Event counts are left out, as in trial_outcomes.txt, so a change that
// cuts simulator events without moving a TLP keeps this file. A
// deliberate change to a result shows as a reviewed diff: on a mismatch
// the test writes the actual text to a temp file and names it, and
//
//   cp <that file> bench/expected/nic_sim.txt
//
// regenerates the pin.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/stats.hpp"
#include "exec/journal.hpp"
#include "nic/commodity.hpp"
#include "nic/loopback.hpp"
#include "nic/nic_sim.hpp"
#include "sysconfig/profiles.hpp"

using namespace pcieb;

namespace {

std::string fmt(const char* format, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, format);
  std::vsnprintf(buf, sizeof buf, format, ap);
  va_end(ap);
  return buf;
}

/// The link TLP counts and the end time every line closes with.
std::string tail(sim::System& system) {
  return fmt(" up=%" PRIu64 " down=%" PRIu64 " end_ps=%lld\n",
             system.upstream().tlps_sent(), system.downstream().tlps_sent(),
             static_cast<long long>(system.sim().now()));
}

std::string summary(const char* name, const LatencySummary& s) {
  return fmt(" %s=%zu/%.17g/%.17g/%.17g/%.17g/%.17g/%.17g/%.17g", name,
             s.count, s.mean_ns, s.median_ns, s.min_ns, s.max_ns, s.p95_ns,
             s.p99_ns, s.p999_ns);
}

std::string nic_sim_line(const char* system_name, const char* preset,
                         nic::NicSimConfig cfg, std::uint32_t frame) {
  sim::System system(sys::profile_by_name(system_name).config);
  cfg.frame_bytes = frame;
  cfg.packets = 6000;
  const nic::NicSimResult r = nic::run_nic_sim(system, cfg);
  return fmt("nic_sim %s %s %u tx_gbps=%.17g rx_gbps=%.17g tx_pps=%.17g "
             "rx_pps=%.17g rx_dropped=%" PRIu64 " tx_max=%u rx_max=%u "
             "per_dir_gbps=%.17g",
             system_name, preset, frame, r.tx_goodput_gbps,
             r.rx_goodput_gbps, r.tx_pps, r.rx_pps, r.rx_dropped,
             r.tx_ring_max_pending, r.rx_ring_max_pending,
             r.per_direction_goodput_gbps) +
         tail(system);
}

std::string loopback_line() {
  sim::System system(sys::netfpga_hsw().config);
  nic::LoopbackConfig cfg;
  cfg.frame_bytes = 128;
  cfg.iterations = 400;
  const nic::LoopbackResult r = nic::run_loopback(system, cfg);
  return "loopback NetFPGA-HSW 128" + summary("total", r.total) +
         summary("pcie", r.pcie) +
         fmt(" pcie_fraction=%.17g", r.pcie_fraction) + tail(system);
}

std::string commodity_line() {
  sim::System system(sys::nfp6000_snb().config);
  nic::CommodityProbeConfig cfg;
  cfg.window_bytes = 64 << 10;
  cfg.iterations = 1500;
  const nic::CommodityProbeResult r = nic::run_commodity_probe(system, cfg);
  return "commodity NFP6000-SNB 64 vary_tx 64K warm" +
         summary("per_packet", r.per_packet) +
         fmt(" descriptor_overhead_ns=%.17g", r.descriptor_overhead_ns) +
         tail(system);
}

std::string expected() {
  const std::string path =
      std::string(PCIEB_SOURCE_DIR) + "/bench/expected/nic_sim.txt";
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace

TEST(NicSnapshot, ClosedLoopRunnersMatchPinnedResults) {
  std::string actual =
      "# Closed-loop NIC runner results, pinned by "
      "tests/test_nic_snapshot.cpp.\n"
      "# Regenerate a deliberate change with: cp <the file the failing test\n"
      "# names> bench/expected/nic_sim.txt\n";
  const struct {
    const char* name;
    nic::NicSimConfig cfg;
  } presets[] = {{"simple", nic::NicSimConfig::simple()},
                 {"modern_kernel", nic::NicSimConfig::modern_kernel()},
                 {"modern_dpdk", nic::NicSimConfig::modern_dpdk()}};
  for (const auto& p : presets) {
    for (const std::uint32_t frame : {64u, 128u, 256u, 512u, 1024u, 1514u}) {
      actual += nic_sim_line("NetFPGA-HSW", p.name, p.cfg, frame);
    }
  }
  actual += nic_sim_line("NFP6000-HSW", "modern_kernel",
                         nic::NicSimConfig::modern_kernel(), 256);
  actual += loopback_line();
  actual += commodity_line();

  const std::string pinned = expected();
  if (actual == pinned) return;
  const std::string path =
      exec::make_temp_dir("pcieb-nic-sim-") + "/nic_sim.txt";
  std::ofstream(path, std::ios::binary) << actual;
  // Line by line, so the failure names the first runs that moved.
  std::istringstream es(pinned), as(actual);
  std::string eline, aline;
  while (std::getline(es, eline)) {
    ASSERT_TRUE(std::getline(as, aline)) << "missing: " << eline;
    EXPECT_EQ(aline, eline);
  }
  EXPECT_FALSE(std::getline(as, aline)) << "extra: " << aline;
  ADD_FAILURE() << "actual results written to " << path;
}
