// Tier-2 snapshot of core::run_multi_device_bandwidth, the §9 multi-device
// study, on NFP6000-BDW. bench/expected/multi_device.txt pins one line per
// run:
//
//  * bench/ablation_multidevice's nine IO-TLB points: 1, 2 and 4 devices
//    with the IOMMU off, on with 4 KB pages and on with 2 MB pages (64 B
//    reads, 128 KB windows, 15,000 iterations);
//  * its shared-uplink table: 1, 2 and 4 devices at 512 B and 12,000
//    iterations, on independent links and behind a PCIe switch;
//  * the same three independent-link shapes as BW_WR, which exercise the
//    posted-credit return.
//
// Each line holds every MultiDeviceResult field at %.17g (the TLB hits
// and misses among them), every port's up and down link TLP counts and
// the simulated end time. Event counts are left out, as in
// trial_outcomes.txt and nic_sim.txt, so a change that cuts simulator
// events without moving a TLP keeps this file. A deliberate change to a
// result shows as a reviewed diff: on a mismatch the test writes the
// actual text to a temp file and names it, and
//
//   cp <that file> bench/expected/multi_device.txt
//
// regenerates the pin.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/multi_runner.hpp"
#include "exec/journal.hpp"
#include "sim/switched_system.hpp"
#include "sim/system.hpp"
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

std::string result_fields(const core::MultiDeviceResult& r) {
  std::string out = " gbps=";
  for (std::size_t d = 0; d < r.per_device_gbps.size(); ++d) {
    out += fmt(d == 0 ? "%.17g" : "/%.17g", r.per_device_gbps[d]);
  }
  return out + fmt(" total_gbps=%.17g tlb_hits=%" PRIu64 " tlb_misses=%" PRIu64,
                   r.total_gbps, r.tlb_hits, r.tlb_misses);
}

core::MultiDeviceSpec spec_of(core::BenchKind kind, std::uint32_t size,
                              std::uint64_t pages, std::size_t iterations) {
  core::MultiDeviceSpec spec;
  spec.kind = kind;
  spec.transfer_size = size;
  spec.window_bytes = 128ull << 10;
  spec.page_bytes = pages;
  spec.iterations = iterations;
  return spec;
}

std::string independent_line(const char* label, sim::SystemConfig host,
                             unsigned devices,
                             const core::MultiDeviceSpec& spec) {
  host.devices = devices;
  sim::System system(host);
  const core::MultiDeviceResult r =
      core::run_multi_device_bandwidth(system, spec);
  std::string out = fmt("independent %s x%u", label, devices) +
                    result_fields(r);
  for (unsigned d = 0; d < devices; ++d) {
    out += fmt(" port%u=%" PRIu64 "/%" PRIu64, d,
               system.upstream(d).tlps_sent(),
               system.downstream(d).tlps_sent());
  }
  return out +
         fmt(" end_ps=%lld\n", static_cast<long long>(system.sim().now()));
}

std::string switched_line(const sim::SystemConfig& host, unsigned devices,
                          const core::MultiDeviceSpec& spec) {
  sim::SwitchedSystem system(host, devices);
  const core::MultiDeviceResult r =
      core::run_multi_device_bandwidth(system, spec);
  std::string out = fmt("switched rd512 x%u", devices) + result_fields(r) +
                    fmt(" uplink=%" PRIu64, system.shared_uplink().tlps_sent());
  for (unsigned d = 0; d < devices; ++d) {
    out += fmt(" port%u=%" PRIu64, d,
               system.fabric().port_ingress(d).tlps_sent());
  }
  return out + fmt(" forwarded=%" PRIu64 "/%" PRIu64 " end_ps=%lld\n",
                   system.fabric().forwarded_upstream(),
                   system.fabric().forwarded_downstream(),
                   static_cast<long long>(system.sim().now()));
}

std::string expected() {
  const std::string path =
      std::string(PCIEB_SOURCE_DIR) + "/bench/expected/multi_device.txt";
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace

TEST(MultiDeviceSnapshot, AblationRunsMatchPinnedResults) {
  using core::BenchKind;
  const sim::SystemConfig base = sys::nfp6000_bdw().config;
  std::string actual =
      "# Multi-device bandwidth results, pinned by "
      "tests/test_multi_device_snapshot.cpp.\n"
      "# Regenerate a deliberate change with: cp <the file the failing test\n"
      "# names> bench/expected/multi_device.txt\n";
  const struct {
    const char* label;
    bool iommu;
    std::uint64_t pages;
  } tlb_points[] = {{"rd64-iommu-off", false, 4096},
                    {"rd64-iommu-4K", true, 4096},
                    {"rd64-iommu-2M", true, 2ull << 20}};
  for (const unsigned devices : {1u, 2u, 4u}) {
    for (const auto& c : tlb_points) {
      const sim::SystemConfig host =
          c.iommu ? sys::with_iommu(base, true, c.pages) : base;
      actual += independent_line(c.label, host, devices,
                                 spec_of(BenchKind::BwRd, 64, c.pages, 15000));
    }
  }
  for (const unsigned devices : {1u, 2u, 4u}) {
    const core::MultiDeviceSpec rd = spec_of(BenchKind::BwRd, 512, 4096, 12000);
    actual += switched_line(base, devices, rd);
    actual += independent_line("rd512", base, devices, rd);
    actual += independent_line("wr512", base, devices,
                               spec_of(BenchKind::BwWr, 512, 4096, 12000));
  }

  const std::string pinned = expected();
  if (actual == pinned) return;
  const std::string path =
      exec::make_temp_dir("pcieb-multi-device-") + "/multi_device.txt";
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
