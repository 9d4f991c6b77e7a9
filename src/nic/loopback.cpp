#include "nic/loopback.hpp"

#include <functional>

#include "nic/frame.hpp"
#include "sim/host_buffer.hpp"

namespace pcieb::nic {

LoopbackResult run_loopback(sim::System& system, const LoopbackConfig& cfg) {
  auto& sim = system.sim();
  auto& dev = system.device();

  sim::BufferConfig buf_cfg;
  buf_cfg.size_bytes = 8ull << 20;
  sim::HostBuffer buffer(buf_cfg);
  system.attach_buffer(&buffer);
  system.thrash_cache();
  system.warm_host(buffer, 0, 64 << 10);

  const Picos wire_delay = loop_time(cfg.frame_bytes);
  const std::uint64_t tx_addr = buffer.iova(0);
  const std::uint64_t rx_addr = buffer.iova(32 << 10);

  SampleSet totals;
  SampleSet pcie;
  totals.reserve(cfg.iterations);
  pcie.reserve(cfg.iterations);

  std::size_t remaining = cfg.iterations;
  Picos t0 = 0;
  std::uint64_t committed = 0;  ///< bytes of the in-flight write committed

  std::function<void()> next_iteration = [&] {
    if (remaining == 0) return;
    --remaining;
    t0 = sim.now();
    // Outbound: the NIC pulls the packet from the driver's buffer.
    dev.dma_read(tx_addr, cfg.frame_bytes, [&] {
      // Through the MAC, onto the wire, looped back, received.
      sim.after(wire_delay, [&] {
        // Inbound: the NIC pushes the received packet to host memory. The
        // iteration completes when the whole write (possibly several MWr
        // TLPs) has committed at the root complex.
        committed = 0;
        dev.dma_write(rx_addr, cfg.frame_bytes, {});
      });
    });
  };
  // Installed once for the whole run: replacing or clearing the observer
  // from inside its own invocation would destroy the std::function that
  // is still executing. Writes only occur in the inbound phase, so the
  // permanent observer fires at exactly the same points.
  system.function().set_write_observer([&](std::uint32_t bytes) {
    committed += bytes;
    if (committed < cfg.frame_bytes) return;
    const double total_ns = to_nanos(sim.now() - t0);
    totals.add(total_ns);
    pcie.add(total_ns - to_nanos(wire_delay));
    next_iteration();
  });
  next_iteration();
  sim.run();
  system.function().set_write_observer({});
  system.attach_buffer(nullptr);

  LoopbackResult result;
  result.config = cfg;
  result.total = summarize_latency(totals);
  result.pcie = summarize_latency(pcie);
  result.pcie_fraction =
      result.total.median_ns > 0 ? result.pcie.median_ns / result.total.median_ns
                                 : 0.0;
  return result;
}

}  // namespace pcieb::nic
