// Bandwidth across concurrently active simulated devices, the driver for
// the §9 multi-device study. Each device hammers its own buffer window
// with DMA reads (or writes); the shared LLC, DRAM channels, IOMMU walkers
// and IO-TLB are where they interact.
#pragma once

#include <cstdint>
#include <vector>

#include "core/params.hpp"
#include "sim/switched_system.hpp"
#include "sim/system.hpp"

namespace pcieb::core {

/// Every device runs the spec over its own host-warmed window.
struct MultiDeviceSpec {
  BenchKind kind = BenchKind::BwRd;  ///< BwRd or BwWr
  std::uint32_t transfer_size = 64;
  std::uint64_t window_bytes = 128ull << 10;  ///< per device
  std::uint64_t page_bytes = 4096;
  std::size_t iterations = 20000;  ///< per device
  std::size_t warmup = 4000;       ///< per device
};

struct MultiDeviceResult {
  std::vector<double> per_device_gbps;  ///< goodput of each device
  double total_gbps = 0.0;
  std::uint64_t tlb_misses = 0;
  std::uint64_t tlb_hits = 0;
};

/// Runs the spec on every device concurrently and reports
/// per-device goodput. Throws on latency kinds. Works on both the
/// independent-link topology (a System with SystemConfig::devices ports)
/// and the shared-uplink one (SwitchedSystem).
template <typename SystemT>
MultiDeviceResult run_multi_device_bandwidth(SystemT& system,
                                             const MultiDeviceSpec& spec);

extern template MultiDeviceResult run_multi_device_bandwidth(
    sim::System&, const MultiDeviceSpec&);
extern template MultiDeviceResult run_multi_device_bandwidth(
    sim::SwitchedSystem&, const MultiDeviceSpec&);

}  // namespace pcieb::core
