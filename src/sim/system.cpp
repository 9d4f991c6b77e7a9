#include "sim/system.hpp"

#include "obs/profiler.hpp"

namespace pcieb::sim {

System::System(const SystemConfig& cfg) : cfg_(cfg) {
  obs::ProfScope prof(obs::CostCenter::SystemBuild);
  cfg_.link.validate();
  LinkFaultModel up_faults = cfg_.link_faults;
  LinkFaultModel down_faults = cfg_.link_faults;
  down_faults.seed ^= 0xd041ULL;
  up_ = std::make_unique<Link>(sim_, cfg_.link, cfg_.up_propagation, up_faults,
                               cfg_.dll);
  down_ = std::make_unique<Link>(sim_, cfg_.link, cfg_.down_propagation,
                                 down_faults, cfg_.dll);
  mem_ = std::make_unique<MemorySystem>(sim_, cfg_.cache, cfg_.mem,
                                        cfg_.jitter, cfg_.seed);
  iommu_ = std::make_unique<Iommu>(sim_, cfg_.iommu);
  rc_ = std::make_unique<RootComplex>(sim_, cfg_.link, cfg_.rc, *mem_,
                                      *iommu_, *down_);
  device_ = std::make_unique<DmaDevice>(sim_, cfg_.device, cfg_.link, *up_);
  wire();
}

void System::reset(const SystemConfig& cfg) {
  obs::ProfScope prof(obs::CostCenter::SystemBuild);
  // Per-trial machinery first: the AER listener points into the recovery
  // manager and the simulator's step hook into the watchdog, so detach
  // before destroying either.
  aer_.reset();
  recovery_.reset();
  watchdog_.reset();
  injector_.reset();
  cfg_ = cfg;
  cfg_.link.validate();
  sim_.reset();
  LinkFaultModel up_faults = cfg_.link_faults;
  LinkFaultModel down_faults = cfg_.link_faults;
  down_faults.seed ^= 0xd041ULL;
  up_->reset(up_faults, cfg_.dll);
  down_->reset(down_faults, cfg_.dll);
  mem_->reset(cfg_.seed);
  iommu_->reset();
  rc_->reset();
  device_->reset();
  buffer_ = nullptr;
  write_observer_ = {};
  write_drop_observer_ = {};
  trace_ = nullptr;
  lost_write_bytes_ = 0;
  test_leak_credits_on_drop_ = false;
  wire();
}

void System::wire() {
  up_->set_deliver([this](const proto::Tlp& t) { rc_->on_upstream(t); });
  down_->set_deliver([this](const proto::Tlp& t) { device_->on_downstream(t); });
  rc_->set_write_commit_hook([this](std::uint32_t bytes) {
    device_->grant_posted_credits(bytes);
    if (watchdog_) watchdog_->kick();
    if (write_observer_) write_observer_(bytes);
  });
  // Any write the RC discards still returns its flow-control credits —
  // an error must degrade goodput, never wedge the device.
  rc_->set_write_drop_hook([this](std::uint32_t bytes) {
    device_->grant_posted_credits(bytes);
    lost_write_bytes_ += bytes;
    if (write_drop_observer_) write_drop_observer_(bytes);
  });
  // An FLR discards queued-but-unsent writes; their payload is lost
  // goodput exactly like an RC-side drop, but no credits were ever taken
  // for them, so only the loss is accounted.
  device_->set_write_abort_hook([this](std::uint32_t bytes) {
    lost_write_bytes_ += bytes;
    if (write_drop_observer_) write_drop_observer_(bytes);
  });

  // Error reporting is always on (legacy LinkFaultModel replays show up
  // too); the injector, read timeouts and watchdog arm only with a plan,
  // keeping plan-free runs bit-identical to the seed.
  up_->set_aer(&aer_);
  down_->set_aer(&aer_);
  iommu_->set_aer(&aer_);
  rc_->set_aer(&aer_);
  device_->set_aer(&aer_);
  if (!cfg_.fault_plan.empty()) arm_faults();
  if (cfg_.recovery.enabled) arm_recovery();
}

void System::freeze_port() {
  up_->set_blocked(true);
  down_->set_blocked(true);
}

void System::arm_faults() {
  injector_ = std::make_unique<fault::FaultInjector>(cfg_.fault_plan);
  up_->set_fault_injector(injector_.get(), /*upstream=*/true);
  down_->set_fault_injector(injector_.get(), /*upstream=*/false);
  iommu_->set_fault_injector(injector_.get());
  rc_->set_fault_injector(injector_.get());
  device_->arm_timeouts(true);

  // A surprise link-down is a physical event: the port pair goes dark
  // whether or not a recovery policy is armed. Without one the links stay
  // blocked forever (workloads terminate via drop accounting and
  // completion timeouts); the recovery ladder is what brings them back.
  up_->set_linkdown_hook([this] { freeze_port(); });
  down_->set_linkdown_hook([this] { freeze_port(); });

  // A dropped posted write has no completion to time out on: reclaim its
  // credits at the loss site and report it as failed goodput. Dropped
  // reads/completions recover via the device's completion timeout.
  up_->set_drop_hook([this](const proto::Tlp& t) {
    if (t.type != proto::TlpType::MemWr) return;
    aer_.record(fault::ErrorType::TransactionFailed, sim_.now(), t.addr,
                t.tag, t.payload);
    // test_leak_credits_on_drop_ omits the credit return (and only the
    // credit return) so monitor self-tests can watch the ledger drift.
    if (!test_leak_credits_on_drop_) device_->grant_posted_credits(t.payload);
    lost_write_bytes_ += t.payload;
    if (write_drop_observer_) write_drop_observer_(t.payload);
  });

  watchdog_ = std::make_unique<fault::Watchdog>(cfg_.watchdog);
  sim_.set_step_hook(
      [this](Picos now, std::size_t executed) {
        watchdog_->on_event(now, executed);
      },
      cfg_.watchdog.check_every_events);
  device_->set_progress_hook([this] { watchdog_->kick(); });
  DmaDevice* dev = device_.get();
  RootComplex* rc = rc_.get();
  watchdog_->add_outstanding("device.dma_read_ops",
                             [dev] { return dev->pending_read_ops(); });
  watchdog_->add_outstanding("device.read_requests",
                             [dev] { return dev->inflight_read_requests(); });
  watchdog_->add_outstanding("device.pending_write_tlps",
                             [dev] { return dev->pending_write_tlps(); });
  watchdog_->add_outstanding("rc.posted_writes",
                             [rc] { return rc->posted_writes_pending(); });
  watchdog_->add_outstanding("rc.host_mmio_reads",
                             [rc] { return rc->host_reads_pending(); });
  watchdog_->add_diag("device.outstanding_tags",
                      [dev] { return dev->outstanding_tags(); });
  watchdog_->add_diag("aer", [this] {
    return "correctable=" +
           std::to_string(aer_.total(fault::ErrorSeverity::Correctable)) +
           " nonfatal=" +
           std::to_string(aer_.total(fault::ErrorSeverity::NonFatal)) +
           " fatal=" + std::to_string(aer_.total(fault::ErrorSeverity::Fatal));
  });
  watchdog_->add_diag("injector", [this] {
    return "injected_total=" + std::to_string(injector_->injected_total());
  });
}

void System::arm_recovery() {
  // Recovery needs the read-timeout machinery even without a fault plan:
  // completions discarded during containment must time out and retry (or
  // fail with accounting) rather than strand their tags.
  device_->arm_timeouts(true);

  fault::RecoveryManager::Actions a;
  a.downtrain = [this](unsigned lanes, unsigned gen) {
    up_->set_recovery_derate(lanes, gen);
    down_->set_recovery_derate(lanes, gen);
  };
  a.restore_link = [this] {
    up_->clear_recovery_derate();
    down_->clear_recovery_derate();
  };
  a.flr = [this] { device_->function_level_reset(); };
  a.contain = [this] {
    freeze_port();
    rc_->set_port_contained(true);
    rc_->abort_host_reads();
  };
  a.hot_reset = [this] {
    // Re-enumeration: the function resets (tags aborted, write queue
    // drained, credits re-initialized by conservation), the port
    // unfreezes and retrains at full width, and the IOMMU mappings are
    // rebuilt from scratch.
    device_->function_level_reset();
    up_->set_blocked(false);
    down_->set_blocked(false);
    up_->clear_recovery_derate();
    down_->clear_recovery_derate();
    rc_->set_port_contained(false);
    iommu_->remap_after_reset();
  };
  a.schedule = [this](Picos delay, std::function<void()> fn) {
    sim_.after(delay, std::move(fn));
  };
  a.now = [this] { return sim_.now(); };
  a.on_transition = [this] {
    // Containment and reset windows are intentionally quiet; re-prime so
    // the stall detector never mistakes them for a hang.
    if (watchdog_) watchdog_->reprime();
  };
  a.delivered_bytes = [this] {
    return rc_->write_bytes_committed() + device_->read_payload_delivered();
  };
  recovery_ =
      std::make_unique<fault::RecoveryManager>(cfg_.recovery, std::move(a));
  aer_.set_listener(
      [this](const fault::ErrorRecord& r) { recovery_->on_error(r); });
}

void System::check_deadlock() {
  if (watchdog_) watchdog_->check_quiescent(sim_.now());
}

void System::set_trace_sink(obs::TraceSink* sink) {
  trace_ = sink;
  up_->set_trace(sink, obs::Component::LinkUp);
  down_->set_trace(sink, obs::Component::LinkDown);
  rc_->set_trace(sink);
  iommu_->set_trace(sink);
  mem_->set_trace(sink);
  device_->set_trace(sink);
  aer_.set_trace(sink);
  if (recovery_) recovery_->set_trace(sink);
}

void System::register_counters(obs::CounterRegistry& reg) {
  // Monotonic uint64 totals register their member's address directly
  // (obs::CounterRegistry raw readers) — a snapshot read dereferences a
  // pointer instead of hopping through a std::function. Derived values,
  // non-uint64 sources (Picos, unsigned), and gauges keep lambdas.
  auto link_counters = [&](const char* prefix, Link* link) {
    const std::string p = prefix;
    const Link::CounterSources s = link->counter_sources();
    reg.add_counter(p + ".tlps", s.tlps);
    reg.add_counter(p + ".wire_bytes", s.wire_bytes);
    reg.add_counter(p + ".payload_bytes", s.payload_bytes);
    reg.add_counter(p + ".replays", s.replays);
    reg.add_counter(p + ".replay_timeouts", s.replay_timeouts);
    reg.add_counter(p + ".retrains", s.retrains);
    reg.add_counter(p + ".dropped", s.dropped);
    reg.add_counter(p + ".poisoned", s.poisoned);
    reg.add_counter(p + ".busy_ps",
                    [link] { return double(link->busy_total()); });
    reg.add_gauge(p + ".utilization", [this, link] {
      const Picos now = sim_.now();
      return now > 0 ? double(link->busy_total()) / double(now) : 0.0;
    });
  };
  link_counters("link.up", up_.get());
  link_counters("link.down", down_.get());

  DmaDevice* dev = device_.get();
  const DmaDevice::CounterSources ds = dev->counter_sources();
  reg.add_counter("device.reads_completed", ds.reads_completed);
  reg.add_counter("device.writes_sent", ds.writes_sent);
  reg.add_counter("device.fc_stall_ps",
                  [dev] { return double(dev->fc_stall_total()); });
  reg.add_counter("device.read_tags_hwm",
                  [dev] { return double(dev->read_tags_hwm()); });
  reg.add_counter("device.completion_timeouts", ds.completion_timeouts);
  reg.add_counter("device.read_retries", ds.read_retries);
  reg.add_counter("device.reads_failed", ds.reads_failed);
  reg.add_counter("device.failed_read_bytes", ds.failed_read_bytes);
  reg.add_counter("device.unexpected_cpls", ds.unexpected_cpls);
  reg.add_gauge("device.read_tags_in_use",
                [dev] { return double(dev->read_tags_in_use()); });

  RootComplex* rc = rc_.get();
  const RootComplex::CounterSources rs = rc->counter_sources();
  reg.add_counter("rc.reads", rs.reads);
  reg.add_counter("rc.writes_committed", rs.writes_committed);
  reg.add_counter("rc.write_bytes", rs.write_bytes);
  reg.add_counter("rc.ordered_queue_hwm", rs.ordered_hwm);
  reg.add_counter("rc.posted_buffer_hwm", rs.posted_hwm);
  reg.add_counter("rc.writes_dropped", rs.writes_dropped);
  reg.add_counter("rc.write_bytes_dropped", rs.write_bytes_dropped);
  reg.add_counter("rc.malformed_tlps",
                  [rc] { return double(rc->malformed_tlps()); });
  reg.add_counter("rc.poisoned_dropped", rs.poisoned_dropped);
  reg.add_counter("rc.unexpected_cpls", rs.unexpected_cpls);
  reg.add_counter("rc.error_cpls", rs.error_cpls);
  reg.add_gauge("rc.posted_buffer_occupancy",
                [rc] { return double(rc->posted_writes_pending()); });

  const Iommu::CounterSources ms = iommu_->counter_sources();
  reg.add_counter("iommu.tlb_hits", ms.tlb_hits);
  reg.add_counter("iommu.tlb_misses", ms.tlb_misses);
  reg.add_counter("iommu.tlb_evictions", ms.tlb_evictions);
  reg.add_counter("iommu.faults", ms.faults);

  const fault::AerLog* aer = &aer_;
  reg.add_counter("aer.correctable", [aer] {
    return double(aer->total(fault::ErrorSeverity::Correctable));
  });
  reg.add_counter("aer.nonfatal", [aer] {
    return double(aer->total(fault::ErrorSeverity::NonFatal));
  });
  reg.add_counter("aer.fatal", [aer] {
    return double(aer->total(fault::ErrorSeverity::Fatal));
  });

  const LastLevelCache::CounterSources cs = mem_->cache().counter_sources();
  reg.add_counter("cache.hits", cs.hits);
  reg.add_counter("cache.misses", cs.misses);
  reg.add_counter("cache.dirty_evictions", cs.dirty_evictions);
  reg.add_counter("cache.ddio_allocations", cs.ddio_allocations);
  reg.add_counter("cache.ddio_evictions", cs.ddio_evictions);

  const MemorySystem::CounterSources es = mem_->counter_sources();
  reg.add_counter("mem.reads", es.reads);
  reg.add_counter("mem.writes", es.writes);

  // Recovery-ladder counters register only when a policy is armed, so
  // recovery-free counter CSVs stay bit-identical to previous releases.
  if (recovery_) {
    fault::RecoveryManager* rec = recovery_.get();
    reg.add_counter("recovery.transitions",
                    [rec] { return double(rec->transitions()); });
    reg.add_counter("recovery.downtrains",
                    [rec] { return double(rec->downtrains()); });
    reg.add_counter("recovery.restores",
                    [rec] { return double(rec->restores()); });
    reg.add_counter("recovery.flrs", [rec] { return double(rec->flrs()); });
    reg.add_counter("recovery.containments",
                    [rec] { return double(rec->containments()); });
    reg.add_counter("recovery.hot_resets",
                    [rec] { return double(rec->hot_resets()); });
    reg.add_counter("recovery.quarantines",
                    [rec] { return double(rec->quarantines()); });
    reg.add_gauge("recovery.state", [rec] {
      return double(static_cast<unsigned>(rec->state()));
    });
    reg.add_counter("device.flrs", [dev] { return double(dev->flr_count()); });
    reg.add_counter("device.flr_aborted_reads",
                    [dev] { return double(dev->flr_aborted_reads()); });
    reg.add_counter("device.flr_dropped_writes",
                    [dev] { return double(dev->flr_dropped_writes()); });
    reg.add_counter("rc.contained_host_reads",
                    [rc] { return double(rc->contained_host_reads()); });
    Iommu* mmu = iommu_.get();
    reg.add_counter("iommu.remaps", [mmu] { return double(mmu->remaps()); });
    Link* up = up_.get();
    Link* down = down_.get();
    reg.add_counter("link.up.blocked_drops",
                    [up] { return double(up->blocked_drops()); });
    reg.add_counter("link.down.blocked_drops",
                    [down] { return double(down->blocked_drops()); });
  }
}

void System::attach_buffer(const HostBuffer* buf) {
  buffer_ = buf;
  rc_->set_locality_resolver([this](std::uint64_t addr) {
    if (buffer_ && buffer_->contains_iova(addr)) return buffer_->local();
    return true;
  });
}

void System::warm_host(const HostBuffer& buf, std::uint64_t offset,
                       std::uint64_t len) {
  // The buffer's IOVA range is contiguous, so this is the bulk (lazily
  // materialized) form of host_touch(buf.iova(o), true) per line.
  mem_->cache().warm_host_range(buf.window_iova(offset, len), len,
                                /*dirty=*/true);
}

void System::warm_device(const HostBuffer& buf, std::uint64_t offset,
                         std::uint64_t len) {
  mem_->cache().warm_device_range(buf.window_iova(offset, len), len);
}

void System::thrash_cache() { mem_->cache().thrash(); }

}  // namespace pcieb::sim
