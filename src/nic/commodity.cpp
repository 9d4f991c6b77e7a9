#include "nic/commodity.hpp"

#include <algorithm>
#include <functional>

#include "common/rng.hpp"
#include "nic/frame.hpp"
#include "pcie/packetizer.hpp"
#include "sim/host_buffer.hpp"

namespace pcieb::nic {

CommodityProbeResult run_commodity_probe(sim::System& system,
                                         const CommodityProbeConfig& cfg) {
  auto& sim = system.sim();
  auto& dev = system.device();

  sim::BufferConfig buf_cfg;
  buf_cfg.size_bytes =
      std::max<std::uint64_t>(64ull << 20, cfg.window_bytes + (1ull << 20));
  buf_cfg.seed = cfg.seed;
  sim::HostBuffer buffer(buf_cfg);
  system.attach_buffer(&buffer);

  // Layout: descriptor rings + the fixed packet buffer live in the first
  // 64 KB (always warm, like real rings); the varied window follows.
  const std::uint64_t tx_desc = buffer.iova(0);
  const std::uint64_t rx_desc = buffer.iova(16 << 10);
  const std::uint64_t fixed_buf = buffer.iova(32 << 10);
  const std::uint64_t window_base = 64ull << 10;
  const bool vary_tx = cfg.mode == CommodityProbeConfig::Mode::VaryTx;

  system.thrash_cache();
  system.warm_host(buffer, 0, 64 << 10);
  if (cfg.warm) system.warm_host(buffer, window_base, cfg.window_bytes);

  const Picos wire_delay = loop_time(cfg.frame_bytes);
  const std::uint64_t units = cfg.window_bytes / 64 ? cfg.window_bytes / 64 : 1;

  Xoshiro256 rng(cfg.seed);
  SampleSet samples;
  samples.reserve(cfg.iterations);
  std::size_t remaining = cfg.iterations;
  Picos t0 = 0;
  std::uint64_t committed = 0;
  std::uint32_t expected = 0;

  std::function<void()> next = [&] {
    if (remaining == 0) return;
    --remaining;
    t0 = sim.now();
    // Pick this iteration's window slot; the other side stays fixed.
    const std::uint64_t slot = rng.below(units) * 64;
    const std::uint64_t window_addr = buffer.iova(window_base + slot);
    const std::uint64_t tx_buf = vary_tx ? window_addr : fixed_buf;
    const std::uint64_t rx_buf = vary_tx ? fixed_buf : window_addr;
    // TX: descriptor fetch, then the packet buffer. The buffer addresses
    // are captured by value — the callbacks outlive this stack frame.
    dev.dma_read(tx_desc, 16, [&, tx_buf, rx_buf] {
      dev.dma_read(tx_buf, cfg.frame_bytes, [&, rx_buf] {
        sim.after(wire_delay, [&, rx_buf] {
          // RX: freelist descriptor, packet data, descriptor write-back.
          dev.dma_read(rx_desc, 16, [&, rx_buf] {
            committed = 0;
            expected = cfg.frame_bytes + 16;  // packet + RX descriptor
            dev.dma_write(rx_buf, cfg.frame_bytes, {});
            dev.dma_write(rx_desc, 16, {});
          });
        });
      });
    });
  };
  // Installed once for the whole run: replacing or clearing the observer
  // from inside its own invocation would destroy the std::function that
  // is still executing. Writes only occur in the RX phase, after
  // `expected` is set, so the permanent observer fires at the same points.
  system.function().set_write_observer([&](std::uint32_t bytes) {
    committed += bytes;
    if (expected == 0 || committed < expected) return;
    expected = 0;
    samples.add(to_nanos(sim.now() - t0));
    next();
  });
  next();
  sim.run();
  system.function().set_write_observer({});
  system.attach_buffer(nullptr);

  CommodityProbeResult result;
  result.config = cfg;
  result.per_packet = summarize_latency(samples);
  // The two descriptor reads and one descriptor write-back are the fixed
  // commodity overhead per packet; estimate from the wire model.
  const auto& link = system.config().link;
  const double desc_bytes =
      static_cast<double>(proto::dma_read_bytes(link, 0, 16).upstream +
                          proto::dma_read_bytes(link, 0, 16).downstream) *
          2.0 +
      static_cast<double>(proto::dma_write_bytes(link, 0, 16).upstream);
  result.descriptor_overhead_ns = desc_bytes * 8.0 / link.tlp_gbps();
  return result;
}

}  // namespace pcieb::nic
