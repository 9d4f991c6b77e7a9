// §9 future-work study: multiple high-performance PCIe devices in one
// server. Each device has its own x8 link but shares the LLC, the DRAM
// channels, the IOMMU page walkers and — crucially — the IO-TLB.
//
// The experiment: N devices each read a 128 KB window of their own
// buffer (64 B transfers, warm). With the IOMMU off, devices barely
// interact (separate links, ample uncore). With the IOMMU on and 4 KB
// pages, each window needs 32 IO-TLB entries: one device fits in the
// 64-entry TLB, two fill it exactly, and four thrash it — per-device
// throughput collapses even though each device's window alone is within
// TLB reach. Superpages make the contention disappear.
#include <cstdio>

#include "bench_common.hpp"
#include "core/multi_runner.hpp"
#include "sim/switched_system.hpp"
#include "sim/system.hpp"

int main() {
  using namespace pcieb;
  bench::print_header(
      "Ablation: multi-device IO-TLB sharing (NFP6000-BDW class host)",
      "Answers §9's open question: IO-TLB entries ARE shared between "
      "devices in this model — co-located devices evict each other's "
      "translations and queue on the shared page walkers.");

  const auto base = sys::nfp6000_bdw().config;

  TextTable table({"devices", "iommu", "pages", "per_device_Gbps",
                   "total_Gbps", "tlb_miss_rate_%"});
  for (unsigned devices : {1u, 2u, 4u}) {
    struct Cfg {
      const char* label;
      bool iommu;
      std::uint64_t pages;
    };
    for (const auto& c : {Cfg{"off", false, 4096ull},
                          Cfg{"on", true, 4096ull},
                          Cfg{"on", true, 2ull << 20}}) {
      auto host = c.iommu ? sys::with_iommu(base, true, c.pages) : base;
      host.devices = devices;
      sim::System system(host);
      core::MultiDeviceSpec spec;
      spec.kind = core::BenchKind::BwRd;
      spec.transfer_size = 64;
      spec.window_bytes = 128ull << 10;  // 32 pages at 4 KB
      spec.page_bytes = c.pages;
      spec.iterations = 15000;
      const auto r = core::run_multi_device_bandwidth(system, spec);
      const double miss_rate =
          r.tlb_hits + r.tlb_misses
              ? 100.0 * static_cast<double>(r.tlb_misses) /
                    static_cast<double>(r.tlb_hits + r.tlb_misses)
              : 0.0;
      table.add_row({std::to_string(devices), c.label,
                     c.pages == 4096 ? "4K" : "2M",
                     TextTable::num(r.per_device_gbps.front(), 1),
                     TextTable::num(r.total_gbps, 1),
                     TextTable::num(miss_rate, 1)});
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Reading: with 4 KB pages, 1 device (32 pages) fits the 64-entry "
      "IO-TLB, 2 devices fill it exactly, 4 devices thrash it. 2 MB "
      "superpages collapse each window to a single entry.\n\n");

  // The other multi-device bottleneck: all devices behind one switch
  // sharing a single Gen 3 x8 uplink (IOMMU off). 512 B reads, so each
  // device alone could saturate the uplink.
  std::printf("--- shared-uplink topology (PCIe switch, 512 B reads) ---\n");
  TextTable sw({"devices", "per_device_Gbps", "total_Gbps",
                "independent_total_Gbps"});
  for (unsigned devices : {1u, 2u, 4u}) {
    core::MultiDeviceSpec spec;
    spec.kind = core::BenchKind::BwRd;
    spec.transfer_size = 512;
    spec.window_bytes = 128ull << 10;
    spec.iterations = 12000;
    sim::SwitchedSystem shared(base, devices);
    const auto rs = core::run_multi_device_bandwidth(shared, spec);
    auto indep_cfg = base;
    indep_cfg.devices = devices;
    sim::System indep(indep_cfg);
    const auto ri = core::run_multi_device_bandwidth(indep, spec);
    sw.add_row({std::to_string(devices),
                TextTable::num(rs.per_device_gbps.front(), 1),
                TextTable::num(rs.total_gbps, 1),
                TextTable::num(ri.total_gbps, 1)});
  }
  std::printf("%s", sw.to_string().c_str());
  std::printf(
      "The switch shares one x8 uplink: total saturates at the link's "
      "effective rate and per-device shares divide, while independent "
      "links scale linearly.\n");
  return 0;
}
