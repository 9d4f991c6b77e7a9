// N devices behind one PCIe switch sharing a single uplink and root
// complex — the bandwidth-sharing topology complementing a multi-device
// System's (SystemConfig::devices) independent links + shared-IOMMU study.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/host_buffer.hpp"
#include "sim/switch.hpp"
#include "sim/system.hpp"

namespace pcieb::sim {

class SwitchedSystem {
 public:
  /// `base.link` describes the shared uplink; each port gets a link of
  /// the same configuration (a device cannot out-run its own slot).
  /// The switch forwards with SwitchConfig's default latency (100 ns).
  SwitchedSystem(const SystemConfig& base, unsigned device_count);

  Simulator& sim() { return sim_; }
  /// One function per device, as on a multi-device System.
  unsigned function_count() const {
    return static_cast<unsigned>(devices_.size());
  }
  DmaDevice& device(unsigned i) { return *devices_.at(i); }
  PcieSwitch& fabric() { return *switch_; }
  Link& shared_uplink() { return *uplink_; }
  RootComplex& root_complex() { return *rc_; }
  MemorySystem& memory() { return *mem_; }
  Iommu& iommu() { return *iommu_; }

  void warm_host(const HostBuffer& buf, std::uint64_t offset, std::uint64_t len);
  void thrash_cache();

 private:
  SystemConfig cfg_;
  Simulator sim_;
  std::unique_ptr<MemorySystem> mem_;
  std::unique_ptr<Iommu> iommu_;
  std::unique_ptr<Link> uplink_;    ///< switch -> root complex (shared)
  std::unique_ptr<Link> downlink_;  ///< root complex -> switch (shared)
  std::unique_ptr<RootComplex> rc_;
  std::unique_ptr<PcieSwitch> switch_;
  std::vector<std::unique_ptr<DmaDevice>> devices_;
};

}  // namespace pcieb::sim
