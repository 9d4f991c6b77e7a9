// Ablation: unaligned DMA and access-pattern effects — the pcie-bench
// `offset` and `pattern` parameters (§4, Fig 3) that the paper's model
// deliberately does not cover ("the model does not account for PCIe
// overheads of unaligned DMA reads").
#include <cstdio>

#include "bench_common.hpp"
#include "pcie/packetizer.hpp"

int main() {
  using namespace pcieb;
  using core::BenchKind;
  bench::print_header(
      "Ablation: unaligned access and access patterns (NetFPGA-HSW)",
      "Reads starting off a Read Completion Boundary generate extra CplD "
      "TLPs (the RCB rule), costing bandwidth the analytic model ignores; "
      "sequential vs random access matters once the window leaves the LLC.");

  const auto cfg = sys::netfpga_hsw().config;

  std::printf("--- completion TLPs per read (RCB 64, MPS 256) ---\n");
  TextTable tlps({"size_B", "offset0", "offset4", "offset60"});
  for (std::uint32_t sz : {64u, 128u, 256u, 512u, 1024u}) {
    auto count = [&](std::uint32_t off) {
      proto::TlpVec reqs;
      proto::TlpVec cpls;
      std::size_t n = 0;
      proto::segment_read_requests(cfg.link, off, sz, reqs);
      for (const auto& req : reqs) {
        proto::segment_completions(cfg.link, req.addr, req.read_len, cpls);
        n += cpls.size();
      }
      return n;
    };
    tlps.add_row({std::to_string(sz), std::to_string(count(0)),
                  std::to_string(count(4)), std::to_string(count(60))});
  }
  std::printf("%s\n", tlps.to_string().c_str());

  std::printf("--- measured read bandwidth vs offset (warm 8 KB window) ---\n");
  TextTable bw({"size_B", "aligned_Gbps", "offset4_Gbps", "offset60_Gbps",
                "penalty_%"});
  for (std::uint32_t sz : {64u, 128u, 256u, 512u}) {
    auto run = [&](std::uint32_t off) {
      sim::System system(cfg);
      core::BenchParams p;
      p.kind = BenchKind::BwRd;
      p.transfer_size = sz;
      p.offset = off;
      p.window_bytes = 16384;
      p.cache_state = core::CacheState::HostWarm;
      p.iterations = 25000;
      return core::run_bandwidth_bench(system, p).gbps;
    };
    const double a = run(0);
    const double b = run(4);
    const double c = run(60);
    bw.add_row({std::to_string(sz), TextTable::num(a, 1),
                TextTable::num(b, 1), TextTable::num(c, 1),
                TextTable::num(core::pct_change(a, c), 1)});
  }
  std::printf("%s\n", bw.to_string().c_str());

  std::printf("--- sequential vs random reads, 64 B cold ---\n");
  TextTable pat({"window", "sequential_Gbps", "random_Gbps"});
  for (std::uint64_t w : {64ull << 10, 16ull << 20, 64ull << 20}) {
    auto run = [&](core::AccessPattern pattern) {
      sim::System system(cfg);
      core::BenchParams p;
      p.kind = BenchKind::BwRd;
      p.transfer_size = 64;
      p.window_bytes = w;
      p.pattern = pattern;
      p.cache_state = core::CacheState::Thrash;
      p.iterations = 25000;
      return core::run_bandwidth_bench(system, p).gbps;
    };
    pat.add_row({bench::human_window(w),
                 TextTable::num(run(core::AccessPattern::Sequential), 1),
                 TextTable::num(run(core::AccessPattern::Random), 1)});
  }
  std::printf("%s", pat.to_string().c_str());
  return 0;
}
