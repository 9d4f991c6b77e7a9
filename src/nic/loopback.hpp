// ExaNIC-style loopback latency measurement (§2, Figure 2).
//
// Per iteration: the NIC fetches a packet from the host over PCIe, the MAC
// loops it through the wire (serialize out + loop + serialize in), and the
// NIC writes it back to host memory. Total latency is measured from DMA
// start to the write's commit at the root complex; the wire portion is
// known exactly, so the PCIe contribution is total minus wire — the same
// decomposition the modified ExaNIC firmware reports.
#pragma once

#include <cstdint>

#include "common/stats.hpp"
#include "sim/system.hpp"

namespace pcieb::nic {

/// The wire runs at kWireGbps and the MAC/PHY loop takes kMacLoop
/// (nic/frame.hpp).
struct LoopbackConfig {
  std::uint32_t frame_bytes = 128;
  std::size_t iterations = 2000;
};

struct LoopbackResult {
  LoopbackConfig config;
  LatencySummary total;
  LatencySummary pcie;
  double pcie_fraction = 0.0;  ///< median PCIe share of median total
};

LoopbackResult run_loopback(sim::System& system, const LoopbackConfig& cfg);

}  // namespace pcieb::nic
