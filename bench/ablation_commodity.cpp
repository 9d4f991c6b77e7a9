// §5.5: pcie-bench on a commodity NIC in loopback mode. Runs the probe's
// default VaryTx mode — the transmit buffers walk a window, so the NIC
// fetches them with DMA reads, as LAT_RD does — and compares the
// *relative* latency change against the programmable-device ground truth,
// showing the method works but carries descriptor-transfer noise, exactly
// as the paper predicts. (The VaryRx mode walks the freelist instead; its
// DMA writes land in DDIO and show no warm/cold contrast.)
#include <cstdio>

#include "bench_common.hpp"
#include "nic/commodity.hpp"

int main() {
  using namespace pcieb;
  bench::print_header(
      "Ablation: commodity-NIC loopback probing (§5.5, NFP6000-SNB host)",
      "A non-programmable NIC can expose host cache behaviour by walking "
      "its transmit buffers through a window (DMA reads, as LAT_RD), but "
      "every sample includes descriptor transfers; the LLC knee is visible "
      "yet less crisp than with programmable devices.");

  const auto cfg = sys::nfp6000_snb().config;

  TextTable table({"window", "commodity_warm_ns", "commodity_cold_ns",
                   "pciebench_warm_ns", "pciebench_cold_ns"});
  for (std::uint64_t w : bench::window_ladder()) {
    nic::CommodityProbeConfig probe;
    probe.frame_bytes = 64;
    probe.window_bytes = w;
    probe.iterations = 3000;
    probe.warm = true;
    sim::System s1(cfg);
    const auto warm = nic::run_commodity_probe(s1, probe);
    probe.warm = false;
    sim::System s2(cfg);
    const auto cold = nic::run_commodity_probe(s2, probe);

    bench::LatencySpec lat;
    lat.kind = core::BenchKind::LatRd;
    lat.size = 64;
    lat.window = w;
    lat.iterations = 3000;
    lat.cache = core::CacheState::HostWarm;
    const auto ref_warm = bench::run_latency(cfg, lat);
    lat.cache = core::CacheState::Thrash;
    const auto ref_cold = bench::run_latency(cfg, lat);

    table.add_row({bench::human_window(w),
                   TextTable::num(warm.per_packet.median_ns, 0),
                   TextTable::num(cold.per_packet.median_ns, 0),
                   TextTable::num(ref_warm.summary.median_ns, 0),
                   TextTable::num(ref_cold.summary.median_ns, 0)});
  }
  std::printf("%s\n", table.to_string().c_str());

  nic::CommodityProbeConfig probe;
  sim::System s(cfg);
  const auto r = nic::run_commodity_probe(s, probe);
  std::printf("Fixed descriptor overhead per probe sample: ~%.0f ns of link "
              "time plus three extra DMA round trips — why the paper calls "
              "commodity results 'less accurate'.\n",
              r.descriptor_overhead_ns);
  return 0;
}
