// pcie-bench on a commodity (non-programmable) NIC — the §5.5 sketch.
//
// Without programmable DMA engines, host-side PCIe behaviour can still be
// probed in loopback mode by controlling buffer placement: enqueue the
// SAME transmit buffer every time while directing received packets into a
// freelist that walks a variable window. Relative changes in per-packet
// latency and throughput then expose the host-side cache hierarchy — but,
// as the paper cautions, every measurement also carries descriptor
// transfer overheads, so the results are noisier than the programmable
// implementations'.
#pragma once

#include <cstdint>

#include "common/stats.hpp"
#include "sim/system.hpp"

namespace pcieb::nic {

struct CommodityProbeConfig {
  std::uint32_t frame_bytes = 64;
  std::uint64_t window_bytes = 8192;  ///< the varied buffer window
  /// Which side walks the window (§5.5's "or vice versa"):
  ///  * VaryTx — transmit buffers walk the window (DMA *reads*, exposing
  ///    the cache-residency effects of §6.3);
  ///  * VaryRx — freelist buffers walk the window (DMA *writes*, exposing
  ///    the DDIO quota instead).
  enum class Mode { VaryTx, VaryRx };
  Mode mode = Mode::VaryTx;
  bool warm = true;  ///< host-warm the window first
  std::size_t iterations = 4000;
  std::uint64_t seed = 42;
};

struct CommodityProbeResult {
  CommodityProbeConfig config;
  /// Per-packet loopback latency including descriptor transfers.
  LatencySummary per_packet;
  /// Descriptor-only overhead estimate (same run, zero-size window effect
  /// removed): the fixed cost a commodity probe cannot avoid.
  double descriptor_overhead_ns = 0.0;
};

/// Run the loopback probe: per packet, fetch a TX descriptor and the
/// (fixed) TX buffer, loop through the wire, fetch a freelist descriptor,
/// write the packet into the window, write back an RX descriptor.
CommodityProbeResult run_commodity_probe(sim::System& system,
                                         const CommodityProbeConfig& cfg);

}  // namespace pcieb::nic
