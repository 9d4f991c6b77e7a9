// One PCIe function and the ledgers it keeps: the root complex that
// commits its posted writes and answers its reads, the DMA engine that
// issues them, its AER log, watchdog and recovery ladder, and the write
// observers and lost-write tally the benchmarks and invariant monitors
// read. A sim::System holds one per function on its port: one for the
// paper's device, one per SR-IOV VF on a shared port.
//
// What a function does to its own ledgers is wired here once: the write
// commit, RC-drop and FLR-abort hooks, up-link write-drop accounting, the
// watchdog's probes and diagnostics, NUMA locality and delivered bytes.
// What spans the port stays with the topology that owns it: link routing,
// fault-plan arming, when timeouts and watchdogs arm, and what each
// recovery action touches.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "fault/aer.hpp"
#include "fault/injector.hpp"
#include "fault/recovery.hpp"
#include "fault/watchdog.hpp"
#include "sim/device.hpp"
#include "sim/host_buffer.hpp"
#include "sim/root_complex.hpp"

namespace pcieb::sim {

struct SystemConfig;

class PcieFunction {
 public:
  using WriteObserver = std::function<void(std::uint32_t)>;

  /// Builds the RC (completing on `down`) and the device (issuing on
  /// `up`) from `cfg`'s link, RC and device fields.
  PcieFunction(Simulator& sim, const SystemConfig& cfg, MemorySystem& mem,
               Iommu& iommu, Link& up, Link& down);
  PcieFunction(const PcieFunction&) = delete;
  PcieFunction& operator=(const PcieFunction&) = delete;

  RootComplex& root_complex() { return rc_; }
  const RootComplex& root_complex() const { return rc_; }
  DmaDevice& device() { return device_; }
  const DmaDevice& device() const { return device_; }
  fault::AerLog& aer() { return aer_; }
  const fault::AerLog& aer() const { return aer_; }
  /// nullptr until arm_watchdog().
  fault::Watchdog* watchdog() { return watchdog_.get(); }
  /// nullptr until arm_recovery().
  fault::RecoveryManager* recovery() { return recovery_.get(); }
  const fault::RecoveryManager* recovery() const { return recovery_.get(); }

  /// SR-IOV requester ID: stamps `func` on every TLP and arms the
  /// device's foreign-RID ingress check. A lone function keeps no RID.
  void set_function(unsigned func) {
    rc_.set_function(func);
    device_.set_function(func);
  }

  /// Observe posted-write commits (payload bytes). The observer must not
  /// replace or clear itself from within its own invocation; install it
  /// for the run and clear it once the simulator has drained.
  void set_write_observer(WriteObserver obs) { write_observer_ = std::move(obs); }
  /// Observe posted-write payload lost to any drop or FLR abort.
  void set_write_drop_observer(WriteObserver obs) {
    write_drop_observer_ = std::move(obs);
  }
  /// Posted-write payload bytes lost to drops so far.
  std::uint64_t lost_write_bytes() const { return lost_write_bytes_; }
  /// Payload delivered so far: RC write commits plus read payload.
  std::uint64_t delivered_bytes() const {
    return rc_.write_bytes_committed() + device_.read_payload_delivered();
  }

  /// Register the function's benchmark buffer so NUMA locality resolves
  /// per address (addresses outside it count as local); nullptr detaches.
  /// Whoever attaches a buffer detaches it before destroying it.
  void attach_buffer(const HostBuffer* buf);
  const HostBuffer* buffer() const { return buffer_; }

  /// A posted write the up link lost has no completion to time out on:
  /// log it, reclaim its credits at the loss site and count it as lost.
  /// `return_credits` = false is System's test-only credit-leak seed.
  void drop_posted_write(const proto::Tlp& t, bool return_credits = true);

  /// Build the watchdog: device progress kicks it, five outstanding-work
  /// probes feed its quiescent check, and tag, AER and (with `injector`)
  /// injection diagnostics explain an abort. The topology's step hook
  /// drives Watchdog::on_event.
  void arm_watchdog(const fault::WatchdogConfig& cfg,
                    const fault::FaultInjector* injector);

  /// Build the ladder on the topology's downtrain, restore, FLR, contain,
  /// hot-reset and transition actions (scheduling, clock and delivered
  /// bytes are filled in here) and route this function's AER into it.
  void arm_recovery(const fault::RecoveryPolicy& policy,
                    fault::RecoveryManager::Actions actions);

  /// Throws fault::WatchdogError when work is still outstanding once the
  /// event queue drained. No-op without a watchdog.
  void check_deadlock();

  void set_trace(obs::TraceSink* sink);

 private:
  void lose_write(std::uint32_t bytes);

  Simulator& sim_;
  RootComplex rc_;
  DmaDevice device_;
  fault::AerLog aer_;
  std::unique_ptr<fault::Watchdog> watchdog_;
  std::unique_ptr<fault::RecoveryManager> recovery_;
  const HostBuffer* buffer_ = nullptr;
  WriteObserver write_observer_;
  WriteObserver write_drop_observer_;
  std::uint64_t lost_write_bytes_ = 0;
};

}  // namespace pcieb::sim
