// Top-level composition: device <-> link pair <-> root complex <-> memory.
//
// A System owns a Simulator plus every component and wires them together,
// matching one row of the paper's Table 1 (host CPU + network adapter).
// Addressing note: DMA targets are IOVAs; with the IOMMU disabled Linux
// direct-maps DMA, and with it enabled our page mappings are identity at
// the chunk level, so the memory system indexes caches by IOVA directly.
//
// A System holds 1..64 ports (SystemConfig::devices), each holding 1..64
// PCIe functions (SystemConfig::tenants), but never several of both. The
// paper's device is the one-port, one-function case and owns its port.
// Several functions on one port are SR-IOV VFs, each a first-class tenant
// with its own requester ID and tag space, IOMMU domain, AER log, watchdog
// and recovery ladder (docs/ISOLATION.md). Several ports are the §9
// multi-device study: each device owns its port as the paper's device
// does, and all share one memory system and one IOMMU (IO-TLB, walkers).
// Everything a shared port adds is a branch on shared(), and each follows
// from "a lone function owns its port": it has no requester ID, one
// memory system on `seed`, no TDM lanes or IOMMU domains, its own AER log
// as the port's, timeouts and a watchdog only with a fault plan, and a
// ladder that derates, contains and hot-resets its whole port.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fault/aer.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "fault/recovery.hpp"
#include "fault/watchdog.hpp"
#include "obs/counters.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "sim/cache.hpp"
#include "sim/device.hpp"
#include "sim/host_buffer.hpp"
#include "sim/iommu.hpp"
#include "sim/jitter.hpp"
#include "sim/link.hpp"
#include "sim/memory_system.hpp"
#include "sim/pcie_function.hpp"
#include "sim/root_complex.hpp"
#include "sim/simulator.hpp"

namespace pcieb::sim {

/// Which isolation mechanisms a shared port keeps in force, all armed by
/// default (docs/ISOLATION.md tabulates them). Each knob off falls back to
/// the plain shape every VF then shares: one FIFO wire (tdm_link), one
/// IO-TLB pool that stays domain-keyed (per_vf_iotlb), one memory system
/// and jitter stream (per_vf_uncore), and recovery actions that hit the
/// whole device (vf_scoped_recovery). `armed()` is the configuration under
/// which the differential identity must hold exactly: a victim VF's latency
/// digest and counters are byte-identical whether or not an attacker VF's
/// fault plan is armed.
struct TenantIsolation {
  bool tdm_link = true;
  bool per_vf_iotlb = true;
  bool per_vf_uncore = true;
  bool vf_scoped_recovery = true;

  bool armed() const {
    return tdm_link && per_vf_iotlb && per_vf_uncore && vf_scoped_recovery;
  }
  static TenantIsolation all_armed() { return {}; }
  static TenantIsolation all_weakened() {
    return {false, false, false, false};
  }
};

struct SystemConfig {
  std::string name = "generic";
  proto::LinkConfig link;
  RootComplexConfig rc;
  CacheConfig cache;
  MemoryConfig mem;
  IommuConfig iommu;
  JitterModel jitter = JitterModel::none();
  DeviceProfile device = DeviceProfile::netfpga_sume();
  /// One-way PHY + switch-fabric pipeline delay per direction.
  Picos up_propagation = from_nanos(140);
  Picos down_propagation = from_nanos(140);
  /// DLL recovery parameters (ACK latency, REPLAY_TIMER/NUM, retrain).
  LinkDllConfig dll;
  /// Deterministic fault plan; empty keeps a one-function port entirely
  /// fault-free (no injector, no read timeouts, no watchdog — seed
  /// benchmarks stay bit-identical).
  fault::FaultPlan fault_plan;
  /// Watchdog thresholds; armed together with the fault plan (always, on
  /// a shared port).
  fault::WatchdogConfig watchdog;
  /// Error containment & recovery escalation ladder (AER-driven
  /// downtrain, FLR, DPC containment, hot reset); disabled by default —
  /// when off the manager is never constructed and nothing changes.
  fault::RecoveryPolicy recovery;
  std::uint64_t seed = 1;
  /// PCIe functions on the port (1..64); more than one are SR-IOV VFs.
  unsigned tenants = 1;
  /// Devices (1..64), each with its own port, link pair and one function,
  /// all sharing the memory system and the IOMMU. More than one needs
  /// tenants == 1.
  unsigned devices = 1;
  /// Link arbitration weight per function; empty = equal shares. Needs
  /// isolation.tdm_link: a shared FIFO has no lanes to weight.
  std::vector<unsigned> weights;
  /// DDIO ways per function's LLC; empty keeps cache.ddio_ways. Needs
  /// isolation.per_vf_uncore: a shared uncore has no slices to give one.
  std::vector<unsigned> ddio_quota;
  TenantIsolation isolation;
};

class System {
 public:
  /// Throws std::invalid_argument on a malformed link, tenant or device
  /// shape.
  explicit System(const SystemConfig& cfg);
  /// Every component's hooks capture `this` or a function's address.
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  Simulator& sim() { return sim_; }
  const SystemConfig& config() const { return cfg_; }
  /// One function per VF of a shared port, otherwise one per device.
  unsigned function_count() const { return static_cast<unsigned>(fns_.size()); }
  /// Several functions share one port (SR-IOV); a lone function owns its
  /// port.
  bool shared() const { return cfg_.tenants > 1; }

  /// Function `f`'s RC, DMA engine and their ledgers.
  PcieFunction& function(unsigned f = 0) { return fns_.at(f); }
  const PcieFunction& function(unsigned f = 0) const { return fns_.at(f); }
  DmaDevice& device(unsigned f = 0) { return function(f).device(); }
  RootComplex& root_complex(unsigned f = 0) {
    return function(f).root_complex();
  }
  /// Function `f`'s memory system: its own LLC slice with per_vf_uncore on
  /// a shared port, otherwise the port's one memory system.
  MemorySystem& memory(unsigned f = 0) {
    return mems_.size() == 1 ? mems_[0] : mems_.at(f);
  }
  Iommu& iommu() { return iommu_; }
  /// Function `f`'s port links: its device's own, or the shared port's.
  Link& upstream(unsigned f = 0) { return port(f).up; }
  Link& downstream(unsigned f = 0) { return port(f).down; }

  /// Register function `f`'s benchmark buffer so NUMA locality resolves
  /// per-address.
  void attach_buffer(const HostBuffer* buf, unsigned f = 0) {
    function(f).attach_buffer(buf);
  }

  // --- fault machinery (armed iff config().fault_plan is non-empty) ----
  /// Function `f`'s AER log (completer errors, timeouts, and per-lane DLL
  /// records in TDM mode); always attached, cheap when nothing records.
  fault::AerLog& aer(unsigned f = 0) { return function(f).aer(); }
  /// Where errors no one function owns land: a lone function's own log;
  /// otherwise a separate log that deliberately has no recovery listener
  /// — a shared port's link-wide errors (a dead port is not one tenant's
  /// ladder to run), or the shared IOMMU's faults on a multi-device
  /// System, whose devices carry no requester ID to attribute them by.
  fault::AerLog& port_aer() { return port_aer_ ? *port_aer_ : aer(); }
  /// The active injector, or nullptr when no fault plan is armed.
  fault::FaultInjector* fault_injector() { return injector_.get(); }
  /// Function `f`'s watchdog, or nullptr when unarmed.
  fault::Watchdog* watchdog(unsigned f = 0) { return function(f).watchdog(); }
  bool faults_armed() const { return injector_ != nullptr; }
  /// Function `f`'s recovery ladder, or nullptr when config().recovery is
  /// disabled.
  fault::RecoveryManager* recovery(unsigned f = 0) {
    return function(f).recovery();
  }

  /// Device-wide recovery actions performed on behalf of a single VF's
  /// ladder — the blast-radius expansion count. Zero on a one-function
  /// port (its ladder owns the port) and for a fully-armed shared port
  /// that never escalates past VF-level FLR.
  std::uint64_t device_wide_actions() const { return device_wide_actions_; }

  /// Call once the event queue drains: throws fault::WatchdogError when
  /// any function still has transactions outstanding (swallowed
  /// completion with no timeout armed). No-op for unarmed watchdogs.
  void check_deadlock() {
    for (PcieFunction& f : fns_) f.check_deadlock();
  }

  /// Canonical per-function counter line ("k=v k=v ..."), the tenant-chaos
  /// identity artifact: every counter that describes function `f`'s
  /// observable behaviour, none that aggregates across tenants. Its lane
  /// counters come from `f`'s port.
  std::string counters_line(unsigned f) const;

  /// TEST-ONLY bug seeding for the invariant monitors (check::MonitorSuite
  /// self-tests): when enabled, the up-link drop path "forgets" to return
  /// the dropped write's posted credits — the one-line credit-return
  /// omission the credit-conservation monitor exists to catch. Loss
  /// accounting is untouched so benchmarks still terminate; only the
  /// credit ledger drifts. Never enable outside tests.
  void test_leak_credits_on_drop(bool on) { test_leak_credits_on_drop_ = on; }

  /// TEST-ONLY seeded isolation bug: when enabled, an injector drop of
  /// one VF's upstream TLP arms a one-shot completion misroute — the next
  /// downstream completion belonging to that VF is delivered to its
  /// neighbour's function instead (RID unchanged). The victim's
  /// requester-ID check counts it (foreign_tlps), which is exactly the
  /// cross-VF bleed the isolation monitors exist to catch; chaos shrinks
  /// the trigger to the one-line vf:K fault clause. Never enable outside
  /// tests/chaos --seed-bug.
  void test_misroute_completions(bool on) { test_misroute_ = on; }

  /// Attach a trace sink to every component of every port (nullptr
  /// detaches). Costs one null-pointer check per would-be event when
  /// detached.
  void set_trace_sink(obs::TraceSink* sink);
  obs::TraceSink* trace_sink() const { return trace_; }

  /// Register function 0's and its port's counters and gauges with `reg`
  /// under the stable names documented in docs/OBSERVABILITY.md. Gauges
  /// sample live state, so the registry must not outlive this System.
  void register_counters(obs::CounterRegistry& reg);

  // --- cache state control (the §4 warm/thrash levers) -----------------
  // Each acts on function `f`'s memory system (the shared one without
  // per-VF uncore — preparation then overlaps, deterministically, since
  // functions prepare serially before traffic).
  /// Host warms a window by writing it (dirty lines, any way). Both warms
  /// throw std::out_of_range if the window runs past the buffer's end.
  void warm_host(const HostBuffer& buf, std::uint64_t offset,
                 std::uint64_t len, unsigned f = 0);
  /// Device warms a window (models prior DMA writes: DDIO ways, dirty).
  void warm_device(const HostBuffer& buf, std::uint64_t offset,
                   std::uint64_t len, unsigned f = 0);
  /// Fill the LLC with unrelated clean lines.
  void thrash_cache(unsigned f = 0);

 private:
  /// The public constructor's body: `build` is its SystemBuild profiling
  /// scope, a temporary that lives until this constructor returns, so the
  /// member initializers that build every component are charged to it.
  System(const SystemConfig& cfg, const obs::ProfScope& build);

  /// One port's link pair.
  struct Port {
    Port(Simulator& sim, const SystemConfig& cfg)
        : up(sim, cfg.link, cfg.up_propagation, cfg.dll),
          down(sim, cfg.link, cfg.down_propagation, cfg.dll) {}
    /// Apply `act` to the up link, then the down link.
    template <typename Act>
    void both(Act act) {
      act(up);
      act(down);
    }
    Link up;
    Link down;
  };
  /// Function `f`'s port: the one port every VF shares, or its device's.
  Port& port(unsigned f) {
    return ports_.size() == 1 && f < cfg_.tenants ? ports_[0] : ports_.at(f);
  }
  const Port& port(unsigned f) const {
    return const_cast<System&>(*this).port(f);
  }
  /// Apply `act` to every function on function `f`'s port: each VF of a
  /// shared port, or the lone function itself.
  template <typename Act>
  void for_port(unsigned f, Act act) {
    if (!shared()) return act(fns_[f]);
    for (PcieFunction& o : fns_) act(o);
  }

  /// The constructor's second half, once every component exists: give a
  /// shared port its RIDs, lanes and domains, install each port's routing
  /// and AER attachments, then arm fault/recovery machinery per cfg_.
  void wire();
  void arm_faults();
  void arm_recovery(unsigned f);
  /// DPC/linkdown freeze of function `f`'s port: block both directions.
  /// In-flight TLPs are discarded at delivery time; new sends drop at the
  /// entry check.
  void freeze_port(unsigned f);
  /// The function a shared port delivers `tlp` to (the seeded misroute
  /// may bend a downstream completion), or nullptr after logging an
  /// out-of-range RID.
  PcieFunction* addressee(const proto::Tlp& tlp, bool downstream);

  /// The ports, functions or memory systems, each at a fixed address
  /// (hooks capture them). The first lives inline and the rest on the
  /// heap, so a one-port, one-function System allocates in the order and
  /// amount its components do: heap-held lone elements measurably slowed
  /// sweep set-up.
  template <typename T>
  class Slots {
   public:
    Slots() = default;
    /// Built by `fill(*this)`, so a member initializer can place the
    /// elements before the members declared after it.
    template <typename Fill>
    explicit Slots(Fill fill) {
      fill(*this);
    }

    template <typename... Args>
    void emplace_back(Args&&... args) {
      if (!first_) {
        first_.emplace(std::forward<Args>(args)...);
      } else {
        rest_.push_back(std::make_unique<T>(std::forward<Args>(args)...));
      }
    }
    std::size_t size() const { return first_ ? 1 + rest_.size() : 0; }
    T& operator[](std::size_t i) { return i == 0 ? *first_ : *rest_[i - 1]; }
    T& at(std::size_t i) {
      if (i >= size()) throw std::out_of_range("function index out of range");
      return (*this)[i];
    }
    const T& at(std::size_t i) const { return const_cast<Slots&>(*this).at(i); }

    class Iterator {
     public:
      Iterator(Slots* s, std::size_t i) : s_(s), i_(i) {}
      T& operator*() const { return (*s_)[i_]; }
      Iterator& operator++() {
        ++i_;
        return *this;
      }
      bool operator!=(const Iterator& o) const { return i_ != o.i_; }

     private:
      Slots* s_;
      std::size_t i_;
    };
    Iterator begin() { return {this, 0}; }
    Iterator end() { return {this, size()}; }

   private:
    std::optional<T> first_;
    std::vector<std::unique_ptr<T>> rest_;
  };

  SystemConfig cfg_;
  Simulator sim_;
  /// One port per device.
  Slots<Port> ports_;
  /// One memory system, or one LLC slice per function (per_vf_uncore on
  /// a shared port).
  Slots<MemorySystem> mems_;
  Iommu iommu_;
  /// One function per VF or per device.
  Slots<PcieFunction> fns_;
  /// port_aer() when there are several functions; a lone one's own log is
  /// its port's.
  std::unique_ptr<fault::AerLog> port_aer_;
  obs::TraceSink* trace_ = nullptr;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::uint64_t device_wide_actions_ = 0;
  bool test_leak_credits_on_drop_ = false;
  bool test_misroute_ = false;
  int misroute_pending_ = -1;  ///< VF whose next completion is misrouted
};

}  // namespace pcieb::sim
