// SR-IOV multi-tenant composition: N virtual functions sharing one
// physical PCIe port, each a first-class simulated tenant.
//
// A MultiTenantSystem owns one Simulator and one up/down link pair, and
// instantiates per-VF everything that provides isolation on real SR-IOV
// silicon:
//  * per-VF DMA engines and requester IDs — every TLP carries its
//    function number; tag spaces are per-VF by construction (each
//    DmaDevice owns its own tag pool) and a requester-ID check at each
//    function's ingress counts-and-drops any TLP carrying another VF's
//    RID (cross-VF tag bleed, asserted zero by the isolation monitors);
//  * per-VF IOMMU domains — translations are domain-qualified so a page
//    cached by one VF never satisfies another's lookup, with independent
//    per-domain IO-TLB hit/miss/eviction/fault/remap accounting;
//  * per-VF error reporting and recovery — each VF is a sim::PcieFunction
//    with its own AerLog, recovery ladder and watchdog; VF-level FLR
//    aborts only that VF's in-flight work and remaps only its IOMMU
//    domain.
//
// The TenantIsolation knobs select between isolating and shared
// implementations of each layer; `armed()` (all knobs on) is the
// configuration whose headline property the chaos campaign verifies as a
// differential identity: a victim VF's latency digest and counters are
// byte-identical whether or not an attacker VF's fault plan is armed.
//  * tdm_link — weighted TDM virtual lanes (Link::configure_tenants):
//    each VF serializes at weight/total of the link rate on its own
//    timeslot schedule, so a tenant saturating (or replay-storming) its
//    slice never delays another. Off = one shared FIFO wire: attacker
//    retrains/replays queue in front of victim TLPs.
//  * per_vf_iotlb — partitioned IO-TLB and walker-pool slices per domain.
//    Off = one shared capacity pool (still domain-keyed — translations
//    NEVER resolve across domains, even weakened): attacker miss storms
//    evict victim entries and starve walkers.
//  * per_vf_uncore — per-VF memory systems with an LLC slice and a
//    configurable DDIO-way quota, plus an independent jitter stream. Off
//    = one shared memory system: bandwidth contention and one shared
//    jitter RNG couple every tenant's timing.
//  * vf_scoped_recovery — recovery actions touch only the erring VF
//    (func-scoped derate/containment, VF FLR, domain remap). Off = each
//    action hits the whole device. Either way, escalation to hot reset
//    is inherently device-wide; every device-wide action a VF's ladder
//    performs increments the counted blast-radius expansion tally.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "fault/aer.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "fault/recovery.hpp"
#include "fault/watchdog.hpp"
#include "sim/device.hpp"
#include "sim/host_buffer.hpp"
#include "sim/iommu.hpp"
#include "sim/link.hpp"
#include "sim/memory_system.hpp"
#include "sim/pcie_function.hpp"
#include "sim/simulator.hpp"
#include "sim/system.hpp"

namespace pcieb::sim {

/// Which isolation mechanisms are in force. Defaults to fully armed.
struct TenantIsolation {
  bool tdm_link = true;
  bool per_vf_iotlb = true;
  bool per_vf_uncore = true;
  bool vf_scoped_recovery = true;

  /// Full isolation: the configuration under which the differential
  /// identity (victim unaffected by attacker faults) must hold exactly.
  bool armed() const {
    return tdm_link && per_vf_iotlb && per_vf_uncore && vf_scoped_recovery;
  }
  static TenantIsolation all_armed() { return {}; }
  static TenantIsolation all_weakened() {
    return {false, false, false, false};
  }
};

struct MultiTenantConfig {
  /// Shared physical resources (link geometry, IOMMU sizing, device
  /// profile, memory model) plus fault plan / recovery policy / seed.
  SystemConfig base;
  unsigned tenants = 2;
  /// Link arbitration weight per VF; empty = equal shares.
  std::vector<unsigned> weights;
  /// DDIO ways per VF's LLC slice (per_vf_uncore mode); empty keeps the
  /// base config's ddio_ways in every slice.
  std::vector<unsigned> ddio_quota;
  TenantIsolation isolation;
};

class MultiTenantSystem {
 public:
  explicit MultiTenantSystem(const MultiTenantConfig& cfg);

  Simulator& sim() { return sim_; }
  unsigned tenants() const { return static_cast<unsigned>(vfs_.size()); }
  const MultiTenantConfig& config() const { return cfg_; }

  /// VF `vf`'s PCIe function: RC, DMA engine and their ledgers.
  PcieFunction& function(unsigned vf) { return vfs_.at(vf); }
  DmaDevice& device(unsigned vf) { return function(vf).device(); }
  MemorySystem& memory(unsigned vf) {
    return slices_.empty() ? *shared_mem_ : *slices_.at(vf);
  }
  Iommu& iommu() { return *iommu_; }
  Link& upstream() { return *up_; }
  Link& downstream() { return *down_; }

  /// VF-scoped AER log (completer errors, timeouts, per-lane DLL records
  /// in TDM mode). Link-wide physical events land in port_aer().
  fault::AerLog& aer(unsigned vf) { return function(vf).aer(); }
  fault::AerLog& port_aer() { return port_aer_; }
  fault::FaultInjector* fault_injector() { return injector_.get(); }
  fault::RecoveryManager* recovery(unsigned vf) {
    return function(vf).recovery();
  }
  fault::Watchdog* watchdog(unsigned vf) { return function(vf).watchdog(); }

  /// Device-wide recovery actions performed on behalf of a single VF's
  /// ladder — the blast-radius expansion count. Zero for a fully-armed
  /// isolation config that never escalates past VF-level FLR.
  std::uint64_t device_wide_actions() const { return device_wide_actions_; }

  /// Register VF `vf`'s benchmark buffer for NUMA locality resolution.
  void attach_buffer(unsigned vf, const HostBuffer* buf) {
    function(vf).attach_buffer(buf);
  }

  // Cache-state preparation, scoped to one VF's memory system (the
  // shared one in non-isolated uncore mode — preparation then overlaps,
  // deterministically, since VFs prepare serially before traffic).
  void warm_host(unsigned vf, const HostBuffer& buf, std::uint64_t offset,
                 std::uint64_t len);
  void warm_device(unsigned vf, const HostBuffer& buf, std::uint64_t offset,
                   std::uint64_t len);
  void thrash_cache(unsigned vf);

  /// Call once the event queue drains: every VF's watchdog verifies no
  /// transaction is still outstanding.
  void check_deadlock() {
    for (PcieFunction& f : vfs_) f.check_deadlock();
  }

  /// Canonical per-VF counter line ("k=v k=v ..."), the tenant-chaos
  /// identity artifact: every counter that describes VF `vf`'s observable
  /// behaviour, none that aggregates across tenants.
  std::string counters_line(unsigned vf) const;

  /// TEST-ONLY seeded isolation bug: when enabled, an injector drop of
  /// one VF's upstream TLP arms a one-shot completion misroute — the next
  /// downstream completion belonging to that VF is delivered to its
  /// neighbour's function instead (RID unchanged). The victim's
  /// requester-ID check counts it (foreign_tlps), which is exactly the
  /// cross-VF bleed the isolation monitors exist to catch; chaos shrinks
  /// the trigger to the one-line vf:K fault clause. Never enable outside
  /// tests/chaos --seed-bug.
  void test_misroute_completions(bool on) { test_misroute_ = on; }
  bool test_misroutes_completions() const { return test_misroute_; }

 private:
  void arm_faults();
  void arm_recovery(unsigned vf);
  void freeze_port();
  void deliver_downstream(const proto::Tlp& tlp);

  MultiTenantConfig cfg_;
  Simulator sim_;
  std::unique_ptr<Link> up_;
  std::unique_ptr<Link> down_;
  std::unique_ptr<MemorySystem> shared_mem_;  ///< non-isolated uncore
  std::vector<std::unique_ptr<MemorySystem>> slices_;  ///< per_vf_uncore
  std::unique_ptr<Iommu> iommu_;
  /// One function per VF; a deque so every function keeps its address
  /// (its hooks capture it) while the rest are built.
  std::deque<PcieFunction> vfs_;
  fault::AerLog port_aer_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::uint64_t device_wide_actions_ = 0;
  bool test_misroute_ = false;
  int misroute_pending_ = -1;  ///< VF whose next completion is misrouted
};

}  // namespace pcieb::sim
