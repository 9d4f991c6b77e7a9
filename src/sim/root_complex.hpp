// Root complex model: the junction between the PCIe link and the host
// memory system (§2's "PCIe root complex").
//
// Inbound TLPs pass a short per-TLP pipeline stage, are translated by the
// IOMMU (when enabled), and then hit the memory system. Memory reads
// honour PCIe producer/consumer ordering — a read never passes an earlier
// posted write — and their completions are cut at RCB/MPS boundaries and
// streamed back down the link. Posted-write buffer credits are returned to
// the device once the write commits, which is what backpressures write
// bandwidth to the uncore ingest rate.
//
// Error handling (PR 2): inbound TLPs are validated instead of trusted.
// Malformed TLPs (zero/over-MPS payload, zero/over-MRRS read length) and
// poisoned posted writes are dropped with an AER record; a dropped write
// still returns flow-control credits via the write-drop hook so the
// device is never wedged by a discard. IOMMU remapping faults turn reads
// into Unsupported Request completions and silently drop writes (the
// spec-correct behaviours). An attached FaultInjector can additionally
// force UR/CA completion statuses at completion-emit time. Stray
// completions (unknown tag) are counted and dropped, never fatal.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>

#include "fault/aer.hpp"
#include "fault/injector.hpp"
#include "obs/trace.hpp"
#include "pcie/link_config.hpp"
#include "pcie/tlp.hpp"
#include "pcie/tlp_vec.hpp"
#include "sim/iommu.hpp"
#include "sim/link.hpp"
#include "sim/memory_system.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"

namespace pcieb::sim {

struct RootComplexConfig {
  /// Per-TLP pipeline occupancy in the inbound path.
  Picos tlp_pipeline = from_nanos(3);
};

class RootComplex {
 public:
  RootComplex(Simulator& sim, const proto::LinkConfig& link_cfg,
              const RootComplexConfig& cfg, MemorySystem& mem, Iommu& iommu,
              Link& downstream);

  /// Entry point: wire this to the upstream link's deliver callback.
  void on_upstream(const proto::Tlp& tlp);

  /// Host-initiated MMIO access to the device (driver doorbells and
  /// register reads). Writes are posted; reads call `done` when the
  /// device's completion returns — the §3 cost a poll-mode driver avoids
  /// by reading write-back descriptors in host memory instead.
  void host_mmio_write(std::uint64_t addr, std::uint32_t len);
  void host_mmio_read(std::uint64_t addr, std::uint32_t len, Callback done);

  /// Decides whether an address is local to the device's NUMA node.
  using LocalityResolver = std::function<bool(std::uint64_t)>;
  void set_locality_resolver(LocalityResolver r) { is_local_ = std::move(r); }

  /// Invoked when a posted write commits, with its payload size — used by
  /// the device model to return flow-control credits and by benchmarks to
  /// time write streams.
  using WriteCommitHook = std::function<void(std::uint32_t)>;
  void set_write_commit_hook(WriteCommitHook h) { on_write_commit_ = std::move(h); }

  /// Invoked with the payload size of every inbound posted write the RC
  /// discards (malformed, poisoned, or IOMMU-faulted) — the counterpart
  /// of the commit hook, so flow-control credits are returned and the
  /// bench can account lost goodput. Without it a discard would strand
  /// the device's credits and wedge write streams.
  using WriteDropHook = std::function<void(std::uint32_t)>;
  void set_write_drop_hook(WriteDropHook h) { on_write_drop_ = std::move(h); }

  std::uint64_t reads_handled() const { return reads_; }
  std::uint64_t writes_committed() const { return writes_committed_; }
  std::uint64_t write_bytes_committed() const { return write_bytes_; }

  /// Writes discarded by an IOMMU remapping fault (after entering the
  /// ordering fence).
  std::uint64_t writes_dropped() const { return writes_dropped_; }
  /// Writes rejected at validation (malformed or poisoned), before they
  /// entered the ordering fence.
  std::uint64_t writes_rejected() const { return malformed_writes_ + poisoned_dropped_; }
  /// Payload bytes across every discarded/rejected write.
  std::uint64_t write_bytes_dropped() const { return write_bytes_dropped_; }
  std::uint64_t malformed_tlps() const { return malformed_writes_ + malformed_reads_; }
  std::uint64_t poisoned_dropped() const { return poisoned_dropped_; }
  std::uint64_t unexpected_completions() const { return unexpected_cpls_; }
  /// Error (UR/CA) completions sent downstream.
  std::uint64_t error_completions() const { return error_cpls_; }

  /// Posted writes arrived but not yet globally visible (buffer occupancy).
  std::uint64_t posted_writes_pending() const {
    return writes_arrived_ - writes_committed_ - writes_dropped_;
  }
  /// High-water mark of the posted-write buffer occupancy.
  std::uint64_t posted_writes_pending_hwm() const { return posted_hwm_; }
  /// High-water mark of the ordered-read queue depth.
  std::uint64_t ordered_reads_hwm() const { return ordered_hwm_; }

  /// Stable addresses of the monotonic totals, for obs::CounterRegistry's
  /// raw readers. Valid for the root complex's lifetime.
  /// Derived values (malformed_tlps, posted_writes_pending) stay lambdas.
  struct CounterSources {
    const std::uint64_t* reads;
    const std::uint64_t* writes_committed;
    const std::uint64_t* write_bytes;
    const std::uint64_t* ordered_hwm;
    const std::uint64_t* posted_hwm;
    const std::uint64_t* writes_dropped;
    const std::uint64_t* write_bytes_dropped;
    const std::uint64_t* poisoned_dropped;
    const std::uint64_t* unexpected_cpls;
    const std::uint64_t* error_cpls;
  };
  CounterSources counter_sources() const {
    return {&reads_,          &writes_committed_,    &write_bytes_,
            &ordered_hwm_,    &posted_hwm_,          &writes_dropped_,
            &write_bytes_dropped_, &poisoned_dropped_, &unexpected_cpls_,
            &error_cpls_};
  }

  // Outstanding-work probes for the watchdog's deadlock check.
  std::size_t host_reads_pending() const { return host_reads_.size(); }
  std::size_t ordered_reads_pending() const { return ordered_reads_.size(); }

  /// Attach tracing (nullptr detaches).
  void set_trace(obs::TraceSink* sink) { trace_ = sink; }

  /// Attach fault machinery (nullptrs detach); `port` is the port whose
  /// completion ordinals this completer advances.
  void set_fault_injector(fault::FaultInjector* inj, unsigned port = 0) {
    injector_ = inj;
    injector_port_ = port;
  }
  void set_aer(fault::AerLog* aer) { aer_ = aer; }

  /// SR-IOV: the function this RC instance serves. Host MMIO TLPs are
  /// stamped with it; inbound DMA translates in the TLP's own requester
  /// function's IOMMU domain regardless. Default 0 = legacy single-tenant.
  void set_function(unsigned func) { func_ = static_cast<std::uint8_t>(func); }
  unsigned function() const { return func_; }

  // --- DPC containment support (fault::RecoveryManager via System) -----
  /// While true, new host MMIO reads are answered UR immediately (the
  /// downstream port is frozen; nobody will ever claim the request).
  void set_port_contained(bool contained) { port_contained_ = contained; }
  /// Deterministically complete every outstanding host MMIO read as UR —
  /// containment discards the in-flight requests/completions, and a
  /// frozen port must not strand the host's read callbacks. Ascending
  /// tag order keeps the completion sequence reproducible.
  void abort_host_reads();
  /// Host MMIO reads answered UR by containment (immediate + aborted).
  std::uint64_t contained_host_reads() const { return contained_host_reads_; }

 private:
  void handle_write(const proto::Tlp& tlp);
  void handle_read(const proto::Tlp& tlp);
  void emit_completions(const proto::Tlp& req);
  void send_error_completion(const proto::Tlp& req, proto::CplStatus status);
  void drop_write_payload(std::uint32_t payload);
  void drain_ordered_reads();
  void record_rx_and_pipeline(const proto::Tlp& tlp);
  /// Writes retired from the ordering fence (committed or discarded).
  std::uint64_t writes_retired() const {
    return writes_committed_ + writes_dropped_;
  }

  Simulator& sim_;
  proto::LinkConfig link_cfg_;
  RootComplexConfig cfg_;
  MemorySystem& mem_;
  Iommu& iommu_;
  Link& downstream_;
  SerialResource pipeline_;
  LocalityResolver is_local_;
  WriteCommitHook on_write_commit_;
  WriteDropHook on_write_drop_;

  /// Reusable segmentation scratch (completion cutting, MMIO writes).
  /// Safe: Link::send never delivers synchronously, so no segmentation
  /// can start while a loop is still reading the buffer.
  proto::TlpVec tlp_scratch_;

  std::uint64_t writes_arrived_ = 0;
  std::uint64_t writes_committed_ = 0;
  std::uint64_t write_bytes_ = 0;
  std::uint64_t reads_ = 0;
  std::uint64_t posted_hwm_ = 0;
  std::uint64_t ordered_hwm_ = 0;
  std::uint64_t writes_dropped_ = 0;
  std::uint64_t write_bytes_dropped_ = 0;
  std::uint64_t malformed_writes_ = 0;
  std::uint64_t malformed_reads_ = 0;
  std::uint64_t poisoned_dropped_ = 0;
  std::uint64_t unexpected_cpls_ = 0;
  std::uint64_t error_cpls_ = 0;
  obs::TraceSink* trace_ = nullptr;
  fault::FaultInjector* injector_ = nullptr;
  unsigned injector_port_ = 0;
  fault::AerLog* aer_ = nullptr;
  bool port_contained_ = false;
  std::uint64_t contained_host_reads_ = 0;
  std::uint8_t func_ = 0;

  struct PendingRead {
    proto::Tlp req;
    std::uint64_t writes_before;  ///< writes that must commit first
    Picos deferred_at;            ///< when ordering held it back
  };
  std::deque<PendingRead> ordered_reads_;

  /// Outstanding host MMIO reads, keyed by tag (high-bit tag space so
  /// they never collide with device DMA tags).
  std::uint32_t next_host_tag_ = 0x8000'0000u;
  std::unordered_map<std::uint32_t, Callback> host_reads_;
};

}  // namespace pcieb::sim
