#include "sim/pcie_function.hpp"

#include <string>

#include "sim/system.hpp"

namespace pcieb::sim {

PcieFunction::PcieFunction(Simulator& sim, const SystemConfig& cfg,
                           MemorySystem& mem, Iommu& iommu, Link& up,
                           Link& down)
    : sim_(sim),
      rc_(sim, cfg.link, cfg.rc, mem, iommu, down),
      device_(sim, cfg.device, cfg.link, up) {
  rc_.set_write_commit_hook([this](std::uint32_t bytes) {
    device_.grant_posted_credits(bytes);
    if (watchdog_) watchdog_->kick();
    if (write_observer_) write_observer_(bytes);
  });
  // Any write the RC discards still returns its flow-control credits —
  // an error must degrade goodput, never wedge the device.
  rc_.set_write_drop_hook([this](std::uint32_t bytes) {
    device_.grant_posted_credits(bytes);
    lose_write(bytes);
  });
  // An FLR discards queued-but-unsent writes; their payload is lost
  // goodput exactly like an RC-side drop, but no credits were ever taken
  // for them, so only the loss is accounted.
  device_.set_write_abort_hook(
      [this](std::uint32_t bytes) { lose_write(bytes); });
  rc_.set_aer(&aer_);
  device_.set_aer(&aer_);
}

void PcieFunction::lose_write(std::uint32_t bytes) {
  lost_write_bytes_ += bytes;
  if (write_drop_observer_) write_drop_observer_(bytes);
}

void PcieFunction::drop_posted_write(const proto::Tlp& t, bool return_credits) {
  aer_.record(fault::ErrorType::TransactionFailed, sim_.now(), t.addr, t.tag,
              t.payload);
  if (return_credits) device_.grant_posted_credits(t.payload);
  lose_write(t.payload);
}

void PcieFunction::attach_buffer(const HostBuffer* buf) {
  buffer_ = buf;
  rc_.set_locality_resolver([this](std::uint64_t addr) {
    if (buffer_ && buffer_->contains_iova(addr)) return buffer_->local();
    return true;
  });
}

void PcieFunction::arm_watchdog(const fault::WatchdogConfig& cfg,
                                const fault::FaultInjector* injector) {
  watchdog_ = std::make_unique<fault::Watchdog>(cfg);
  fault::Watchdog* w = watchdog_.get();
  device_.set_progress_hook([w] { w->kick(); });
  w->add_outstanding("device.dma_read_ops",
                     [this] { return device_.pending_read_ops(); });
  w->add_outstanding("device.read_requests",
                     [this] { return device_.inflight_read_requests(); });
  w->add_outstanding("device.pending_write_tlps",
                     [this] { return device_.pending_write_tlps(); });
  w->add_outstanding("rc.posted_writes",
                     [this] { return rc_.posted_writes_pending(); });
  w->add_outstanding("rc.host_mmio_reads",
                     [this] { return rc_.host_reads_pending(); });
  // A VF's tag dump is rid-prefixed, so a per-VF deadlock report names
  // the function that owns the stuck tags.
  w->add_diag("device.outstanding_tags",
              [this] { return device_.outstanding_tags(); });
  w->add_diag("aer", [this] {
    return "correctable=" +
           std::to_string(aer_.total(fault::ErrorSeverity::Correctable)) +
           " nonfatal=" +
           std::to_string(aer_.total(fault::ErrorSeverity::NonFatal)) +
           " fatal=" + std::to_string(aer_.total(fault::ErrorSeverity::Fatal));
  });
  if (injector) {
    w->add_diag("injector", [injector] {
      return "injected_total=" + std::to_string(injector->injected_total());
    });
  }
}

void PcieFunction::arm_recovery(const fault::RecoveryPolicy& policy,
                                fault::RecoveryManager::Actions actions) {
  actions.schedule = [this](Picos delay, std::function<void()> fn) {
    sim_.after(delay, std::move(fn));
  };
  actions.now = [this] { return sim_.now(); };
  actions.delivered_bytes = [this] { return delivered_bytes(); };
  recovery_ =
      std::make_unique<fault::RecoveryManager>(policy, std::move(actions));
  aer_.set_listener(
      [this](const fault::ErrorRecord& r) { recovery_->on_error(r); });
}

void PcieFunction::check_deadlock() {
  if (watchdog_) watchdog_->check_quiescent(sim_.now());
}

void PcieFunction::set_trace(obs::TraceSink* sink) {
  rc_.set_trace(sink);
  device_.set_trace(sink);
  aer_.set_trace(sink);
  if (recovery_) recovery_->set_trace(sink);
}

}  // namespace pcieb::sim
